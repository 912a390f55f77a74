// The per-layer metrics of a traced window, named once for every
// workload. Each workload feeds what it measured; a layer the workload
// does not exercise reports 0 (README.md maps every metric to the
// end-to-end figure it should move).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "api/query.h"
#include "common.h"
#include "obs/metrics.h"

namespace perfbench {

/// Sums over the primary responses of a traced window.
struct ResponseTotals {
  double requests = 0.0;
  double queue_s = 0.0;
  double self_s = 0.0;  ///< client wall minus integrate and rank time
  double nodes = 0.0;   ///< integrated graph nodes (Query only)
  double answers = 0.0;
  biorank::serve::RequestStats stats;

  void Add(const biorank::api::QueryResponse& response, double wall_s);
  void Merge(const ResponseTotals& other);
};

/// Count and sum of one histogram.
struct HistogramTotals {
  double count = 0.0;
  double sum = 0.0;
};

/// Registry snapshots of every server the workload drives, bracketing
/// each traced slice of a run; deltas sum over the slices.
class RegistryWindow {
 public:
  void Begin(std::vector<biorank::obs::Snapshot> servers);
  void End(std::vector<biorank::obs::Snapshot> servers);

  /// after - before over the slices, summed over the servers.
  double Counter(const char* name) const;
  HistogramTotals Histogram(const char* name) const;
  /// Gauge summed over the servers at the end of the last slice.
  double GaugeAtEnd(const char* name) const;

 private:
  std::vector<biorank::obs::Snapshot> before_;
  std::vector<biorank::obs::Snapshot> after_;
  std::vector<biorank::obs::Snapshot> last_;
};

/// api, integrate, serve and core metrics of the primary request.
void AddRequestLayers(Report& report, const ResponseTotals& responses,
                      const AttributionTotals& spans,
                      const RegistryWindow& registry);

/// shard metrics, measured through the benchmark's timing transport.
struct ShardTotals {
  std::vector<Latencies> rpc_by_shard;
  double merge_s = 0.0;
  double imbalance_sum = 0.0;
  double requests = 0.0;
  double useful_resolutions = 0.0;
  double resolutions = 0.0;
  double short_circuited = 0.0;
  double shard_calls = 0.0;
};
void AddShardLayers(Report& report, const ShardTotals* shard);

/// ingest and storage metrics of the live-ingest writer.
struct IngestTotals {
  double delta_rps = 0.0;
  Latencies delta_latency;
  std::vector<double> checkpoint_s;
  std::vector<double> checkpoint_bytes;
  double disk_bytes_per_live_byte = 0.0;
  double replayed_records = 0.0;
  double recovery_s = 0.0;
};
void AddIngestLayers(Report& report, const IngestTotals* ingest,
                     const RegistryWindow& registry);

/// obs.attributed_frac and obs.trace_overhead.
void AddObsLayers(Report& report, const SpanStore& spans,
                  double untraced_rps, double traced_rps);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
