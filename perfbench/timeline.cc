#include "timeline.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace perfbench {

namespace {

using Interval = std::pair<uint64_t, uint64_t>;  // [start, end) in ns

bool StartsWith(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

bool HasCounter(const biorank::obs::Span& span, const char* key) {
  for (const auto& counter : span.counters) {
    if (counter.first == key) return true;
  }
  return false;
}

/// Sorts and merges `intervals` in place; returns their total length.
uint64_t MergeUnion(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> merged;
  for (const Interval& interval : intervals) {
    if (interval.second <= interval.first) continue;
    if (!merged.empty() && interval.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, interval.second);
    } else {
      merged.push_back(interval);
    }
  }
  uint64_t total = 0;
  for (const Interval& interval : merged) total += interval.second - interval.first;
  intervals = std::move(merged);
  return total;
}

/// `outer` minus the union of `holes`, appended to `out`.
void Subtract(Interval outer, std::vector<Interval> holes,
              std::vector<Interval>& out) {
  MergeUnion(holes);
  uint64_t cursor = outer.first;
  for (const Interval& hole : holes) {
    const uint64_t begin = std::max(hole.first, outer.first);
    const uint64_t end = std::min(hole.second, outer.second);
    if (end <= begin) continue;
    if (begin > cursor) out.emplace_back(cursor, begin);
    cursor = std::max(cursor, end);
  }
  if (cursor < outer.second) out.emplace_back(cursor, outer.second);
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

std::string TagOf(const biorank::obs::Span& span) {
  const std::string& name = span.name;
  if (StartsWith(name, "bench.") || name == "api.query" ||
      name == "api.rank_graph" || name == "api.rank" ||
      name == "api.refine" || name == "shard.query" ||
      name == "shard.rank_graph") {
    return "";
  }
  if (name == "api.integrate") return "integrate";
  if (name == "serve.canonicalize") return "serve.canonicalize";
  if (name == "serve.cache_bounds") return "serve.bounds";
  if (name == "serve.publish") return "serve.publish";
  if (name == "serve.mc_shards") {
    return HasCounter(span, "exact") ? "core.exact" : "core.mc";
  }
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

Attribution Attribute(const std::vector<biorank::obs::Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const biorank::obs::Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(
          span.start_ns, span.start_ns + span.duration_ns);
    }
  }
  std::map<std::string, std::vector<Interval>> by_tag;
  std::vector<Interval> all;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string tag = TagOf(spans[i]);
    if (tag.empty()) continue;
    std::vector<Interval> self;
    Subtract({spans[i].start_ns, spans[i].start_ns + spans[i].duration_ns},
             children[i], self);
    std::vector<Interval>& tag_intervals = by_tag[tag];
    tag_intervals.insert(tag_intervals.end(), self.begin(), self.end());
    all.insert(all.end(), self.begin(), self.end());
  }
  Attribution attribution;
  for (auto& [tag, intervals] : by_tag) {
    attribution.tag_s[tag] = Seconds(MergeUnion(intervals));
  }
  attribution.attributed_s = Seconds(MergeUnion(all));
  return attribution;
}

void AttributionTotals::Add(const Attribution& one, double wall) {
  for (const auto& [tag, s] : one.tag_s) tag_s[tag] += s;
  attributed_s += one.attributed_s;
  wall_s += wall;
}

double AttributionTotals::Tag(const std::string& tag) const {
  auto it = tag_s.find(tag);
  return it == tag_s.end() ? 0.0 : it->second;
}

}  // namespace perfbench
