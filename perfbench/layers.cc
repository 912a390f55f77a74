#include "layers.h"

#include <algorithm>
#include <utility>

#include "stats.h"

namespace perfbench {

namespace {

using biorank::obs::Snapshot;

double SumCounter(const std::vector<Snapshot>& snapshots, const char* name) {
  double total = 0.0;
  for (const Snapshot& snapshot : snapshots) {
    for (const auto& counter : snapshot.counters) {
      if (counter.name == name) total += static_cast<double>(counter.value);
    }
  }
  return total;
}

HistogramTotals SumHistogram(const std::vector<Snapshot>& snapshots,
                             const char* name) {
  HistogramTotals totals;
  for (const Snapshot& snapshot : snapshots) {
    for (const auto& histogram : snapshot.histograms) {
      if (histogram.name == name) {
        totals.count += static_cast<double>(histogram.count);
        totals.sum += histogram.sum;
      }
    }
  }
  return totals;
}

}  // namespace

void ResponseTotals::Add(const biorank::api::QueryResponse& response,
                         double wall_s) {
  requests += 1.0;
  queue_s += response.timing.queue_s;
  self_s += std::max(
      0.0, wall_s - response.timing.integrate_s - response.timing.rank_s);
  nodes += response.result.query_graph.graph.num_nodes();
  answers += static_cast<double>(response.stats.candidates);
  stats.Add(response.stats);
}

void ResponseTotals::Merge(const ResponseTotals& other) {
  requests += other.requests;
  queue_s += other.queue_s;
  self_s += other.self_s;
  nodes += other.nodes;
  answers += other.answers;
  stats.Add(other.stats);
}

void RegistryWindow::Begin(std::vector<biorank::obs::Snapshot> servers) {
  before_.insert(before_.end(), servers.begin(), servers.end());
}

void RegistryWindow::End(std::vector<biorank::obs::Snapshot> servers) {
  after_.insert(after_.end(), servers.begin(), servers.end());
  last_ = std::move(servers);
}

double RegistryWindow::Counter(const char* name) const {
  return SumCounter(after_, name) - SumCounter(before_, name);
}

HistogramTotals RegistryWindow::Histogram(const char* name) const {
  const HistogramTotals after = SumHistogram(after_, name);
  const HistogramTotals before = SumHistogram(before_, name);
  return HistogramTotals{after.count - before.count, after.sum - before.sum};
}

double RegistryWindow::GaugeAtEnd(const char* name) const {
  double total = 0.0;
  for (const Snapshot& snapshot : last_) {
    for (const auto& gauge : snapshot.gauges) {
      if (gauge.name == name) total += gauge.value;
    }
  }
  return total;
}

void AddRequestLayers(Report& report, const ResponseTotals& r,
                      const AttributionTotals& spans,
                      const RegistryWindow& registry) {
  const double n = r.requests;
  const biorank::serve::RequestStats& stats = r.stats;
  report.Add("api.admit_wait_ms", 1e3 * Ratio(r.queue_s, n), "ms");
  report.Add("api.self_ms", 1e3 * Ratio(r.self_s, n), "ms");

  const double integrate_s = spans.Tag("integrate");
  report.Add("integrate.crawl_ms", 1e3 * Ratio(integrate_s, n), "ms");
  report.Add("integrate.share", Ratio(integrate_s, spans.wall_s), "ratio");
  report.Add("integrate.nodes_per_req", Ratio(r.nodes, n), "count");
  report.Add("integrate.answers_per_req", Ratio(r.answers, n), "count");

  const double canonicalize_s = spans.Tag("serve.canonicalize");
  report.Add("serve.canonicalize_ms", 1e3 * Ratio(canonicalize_s, n), "ms");
  report.Add("serve.canonicalize_share", Ratio(canonicalize_s, spans.wall_s),
             "ratio");
  report.Add("serve.canonicalize_us_per_answer",
             1e6 * Ratio(canonicalize_s, r.answers), "us");
  report.Add("serve.cache_hit_rate", stats.CacheHitRate(), "ratio");
  report.Add("serve.cache_entries",
             registry.GaugeAtEnd("biorank_serve_cache_entries"), "count");
  report.Add("serve.cache_evictions",
             registry.Counter("biorank_serve_cache_evictions_total"), "count");
  report.Add("serve.cache_invalidations",
             registry.Counter("biorank_serve_cache_invalidations_total"),
             "count");
  report.Add("serve.bounds_ms",
             1e3 * Ratio(registry.Histogram("biorank_serve_bounds_seconds").sum,
                         n),
             "ms");
  report.Add("serve.pruned_frac", stats.PrunedFraction(), "ratio");
  report.Add("serve.publish_ms", 1e3 * Ratio(spans.Tag("serve.publish"), n),
             "ms");

  const double mc_s = spans.Tag("core.mc");
  report.Add("core.mc_ms", 1e3 * Ratio(mc_s, n), "ms");
  report.Add("core.mc_share", Ratio(mc_s, spans.wall_s), "ratio");
  report.Add("core.mc_trials", Ratio(static_cast<double>(stats.mc_trials), n),
             "count");
  report.Add("core.mc_trials_per_s",
             Ratio(registry.Counter("biorank_serve_mc_trials_total"),
                   registry.Histogram("biorank_serve_mc_seconds").sum),
             "1/s");
  report.Add("core.exact_ms", 1e3 * Ratio(spans.Tag("core.exact"), n), "ms");
  report.Add("core.exact_resolutions", Ratio(stats.exact, n), "count");
  report.Add("core.mc_resolutions", Ratio(stats.monte_carlo, n), "count");
  report.Add("core.bound_exact", Ratio(stats.bound_exact, n), "count");
}

void AddShardLayers(Report& report, const ShardTotals* shard) {
  ShardTotals none;
  none.rpc_by_shard.resize(2);
  const ShardTotals& s = shard != nullptr ? *shard : none;
  for (size_t i = 0; i < s.rpc_by_shard.size(); ++i) {
    std::vector<double> sorted = s.rpc_by_shard[i].ms;
    std::sort(sorted.begin(), sorted.end());
    const std::string prefix = "shard.rpc" + std::to_string(i);
    report.Add(prefix + "_p50_ms", PercentileOfSorted(sorted, 50.0), "ms");
    // The per-shard tail: the highest percentile the sample supports.
    report.Add(prefix + "_tail_ms", HighestSupportedTail(sorted).value, "ms");
  }
  report.Add("shard.merge_ms", 1e3 * Ratio(s.merge_s, s.requests), "ms");
  report.Add("shard.rpc_imbalance", Ratio(s.imbalance_sum, s.requests),
             "ratio");
  report.Add("shard.useful_resolution_frac",
             Ratio(s.useful_resolutions, s.resolutions), "ratio");
  report.Add("shard.short_circuited_frac",
             Ratio(s.short_circuited, s.shard_calls), "ratio");
}

void AddIngestLayers(Report& report, const IngestTotals* ingest,
                     const RegistryWindow& registry) {
  const IngestTotals none;
  const IngestTotals& g = ingest != nullptr ? *ingest : none;
  const double deltas = registry.Counter("biorank_ingest_deltas_total");
  const HistogramTotals apply =
      registry.Histogram("biorank_ingest_apply_seconds");
  std::vector<double> delta_ms = g.delta_latency.ms;
  std::sort(delta_ms.begin(), delta_ms.end());
  report.Add("ingest.delta_rps", g.delta_rps, "1/s");
  report.Add("ingest.delta_p50_ms", PercentileOfSorted(delta_ms, 50.0), "ms");
  report.Add("ingest.delta_tail_ms", HighestSupportedTail(delta_ms).value,
             "ms");
  report.Add("ingest.apply_ms", 1e3 * Ratio(apply.sum, apply.count), "ms");
  report.Add("ingest.dirty_answers_per_delta",
             Ratio(registry.Counter("biorank_ingest_dirty_answers_total"),
                   deltas),
             "count");
  report.Add(
      "ingest.invalidated_per_delta",
      Ratio(registry.Counter("biorank_ingest_invalidated_entries_total"),
            deltas),
      "count");

  const HistogramTotals append =
      registry.Histogram("biorank_storage_wal_append_seconds");
  report.Add("storage.wal_append_ms", 1e3 * Ratio(append.sum, append.count),
             "ms");
  report.Add("storage.wal_bytes_per_delta",
             Ratio(registry.Counter("biorank_storage_wal_bytes_total"), deltas),
             "B");
  report.Add("storage.fsyncs_per_delta",
             Ratio(registry.Counter("biorank_storage_wal_syncs_total"), deltas),
             "count");
  report.Add("storage.checkpoint_s", Median(g.checkpoint_s), "s");
  report.Add("storage.checkpoint_bytes", Median(g.checkpoint_bytes), "B");
  report.Add("storage.disk_bytes_per_live_byte", g.disk_bytes_per_live_byte,
             "ratio");
  report.Add("storage.replayed_records", g.replayed_records, "count");
  report.Add("storage.recovery_s", g.recovery_s, "s");
}

void AddObsLayers(Report& report, const SpanStore& spans, double untraced_rps,
                  double traced_rps) {
  const AttributionTotals all = spans.AllTotals();
  report.Add("obs.attributed_frac", Ratio(all.attributed_s, all.wall_s),
             "ratio");
  report.Add("obs.trace_overhead", Ratio(untraced_rps, traced_rps) - 1.0,
             "ratio");
}

}  // namespace perfbench
