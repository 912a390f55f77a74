#include "common.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "stats.h"

namespace perfbench {

namespace fs = std::filesystem;

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Report::Check(bool ok, uint64_t count) {
  if (count == 0) return;
  attempted += count;
  if (!ok) {
    failed += count;
    correct = false;
  }
}

double PeakRssMb() {
  // VmHWM, not getrusage: ru_maxrss also keeps the peak of the image
  // this process replaced at exec (the launching interpreter).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void RssProbe::AddTo(Report& report) const {
  double mb = mb_.load();
  if (mb <= 0.0) {
    mb = PeakRssMb();
    report.Note("peak_rss_mb read at the window's end: only " +
                std::to_string(ops_.load()) + " of " +
                std::to_string(at_ops_) + " operations ran");
  }
  report.Add("peak_rss_mb", mb, "MB");
}

void AddSlicedMetrics(Report& report, const std::string& rate_name,
                      const std::string& prefix, const Latencies& latencies,
                      WindowTime window, int slices) {
  const double start = ToSeconds(window.start);
  const double slice_s = window.wall_s / slices;
  std::vector<std::vector<double>> parts(static_cast<size_t>(slices));
  for (size_t i = 0; i < latencies.ms.size(); ++i) {
    const int part = static_cast<int>((latencies.done_s[i] - start) / slice_s);
    parts[static_cast<size_t>(std::clamp(part, 0, slices - 1))].push_back(
        latencies.ms[i]);
  }
  size_t fewest = latencies.ms.size();
  std::vector<double> rates;
  for (std::vector<double>& part : parts) {
    std::sort(part.begin(), part.end());
    fewest = std::min(fewest, part.size());
    rates.push_back(static_cast<double>(part.size()) / slice_s);
  }
  report.Add(rate_name, Median(rates), "1/s");
  std::ostringstream note;
  note << prefix << ": " << latencies.ms.size() << " samples in " << slices
       << " slices, fewest " << fewest << ";";
  auto add = [&](const std::string& name, double pct) {
    std::vector<double> values;
    for (const std::vector<double>& part : parts) {
      values.push_back(PercentileOfSorted(part, pct));
    }
    report.Add(name, Median(values), "ms");
  };
  for (double pct : {50.0, 90.0, 99.0}) {
    if (!PercentileSupported(fewest, pct)) {
      note << " p" << pct << " unsupported;";
      continue;
    }
    add(prefix + "_p" + std::to_string(static_cast<int>(pct)) + "_ms", pct);
  }
  const double tail = HighestSupportedPct(fewest);
  if (tail > 0.0) {
    add(prefix + "_tail_ms", tail);
    note << " tail = p" << tail;
  }
  report.Note(note.str());
}

void SpanStore::Record(const std::string& op, const biorank::obs::Trace& trace,
                       double wall_s) {
  std::vector<biorank::obs::Span> spans = trace.Spans();
  const Attribution attribution = Attribute(spans);
  std::lock_guard<std::mutex> lock(mu_);
  totals_[op].Add(attribution, wall_s);
  if (trees_.size() < keep_trees_) {
    trees_.push_back(Tree{op, wall_s, std::move(spans)});
  }
}

AttributionTotals SpanStore::Totals(const std::string& op) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = totals_.find(op);
  return it == totals_.end() ? AttributionTotals{} : it->second;
}

AttributionTotals SpanStore::AllTotals() const {
  std::lock_guard<std::mutex> lock(mu_);
  AttributionTotals all;
  for (const auto& [op, totals] : totals_) {
    for (const auto& [tag, s] : totals.tag_s) all.tag_s[tag] += s;
    all.attributed_s += totals.attributed_s;
    all.wall_s += totals.wall_s;
  }
  return all;
}

void SpanStore::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const Tree& tree : trees_) {
    out << "{\"op\":\"" << tree.op << "\",\"wall_s\":" << tree.wall_s
        << ",\"spans\":[";
    for (size_t i = 0; i < tree.spans.size(); ++i) {
      const biorank::obs::Span& span = tree.spans[i];
      out << (i == 0 ? "" : ",") << "{\"name\":\"" << span.name
          << "\",\"parent\":" << span.parent
          << ",\"start_ns\":" << span.start_ns
          << ",\"duration_ns\":" << span.duration_ns << ",\"counters\":{";
      for (size_t c = 0; c < span.counters.size(); ++c) {
        out << (c == 0 ? "" : ",") << "\"" << span.counters[c].first
            << "\":" << span.counters[c].second;
      }
      out << "}}";
    }
    out << "]}\n";
  }
}

void FreshDirectory(const std::string& path) {
  RemoveTree(path);
  fs::create_directories(path);
}

void RemoveTree(const std::string& path) {
  std::error_code error;
  fs::remove_all(path, error);
}

uint64_t TreeBytes(const std::string& path) {
  uint64_t total = 0;
  std::error_code error;
  for (const auto& entry : fs::recursive_directory_iterator(path, error)) {
    if (entry.is_regular_file(error)) total += entry.file_size(error);
  }
  return total;
}

}  // namespace perfbench
