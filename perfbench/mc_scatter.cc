// mc_scatter: ShardRouter::RankGraph(g, 10) over two in-process shards
// from one closed-loop client, g drawn from an endless seeded stream of
// distinct layered DAGs (4 interior layers of 8 nodes, 32 answers). No
// canonical key repeats, so the cache is pure overhead; residues exceed
// the factoring limit, so survivors go to Monte Carlo. The router talks
// to the shards through TimedTransport, the benchmark's timing decorator
// over the public Transport interface, which yields the shard metrics
// from outside the router. (The 3x6x16 shape stays out: its factoring
// outliers swamp the tail.)

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/server.h"
#include "core/query_graph.h"
#include "layers.h"
#include "shard/router.h"
#include "shard/transport.h"
#include "stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace api = biorank::api;
namespace shard = biorank::shard;
using biorank::NodeId;
using biorank::QueryGraph;
using biorank::Rng;
using Fingerprint = std::vector<std::pair<NodeId, double>>;

constexpr int kTopK = 10;
constexpr uint32_t kShards = 2;
constexpr int kLayers = 4;
constexpr int kNodesPerLayer = 8;
constexpr int kAnswers = 32;
/// One request in this many is re-ranked by the monolith afterwards.
constexpr uint64_t kCheckEvery = 4;
/// Requests take ~150 ms, so a run holds too few for per-part figures:
/// latency and throughput pool the whole run.
constexpr int kSlices = 1;
/// peak_rss_mb is read after this many measured requests.
constexpr uint64_t kRssAtRequests = 40;

/// One layered random DAG: a source, kLayers interior layers, then the
/// answer layer, dense forward edges plus occasional layer skips, and
/// one guaranteed in-edge per node (the bench_shard_scaling shape).
QueryGraph MakeLayeredDag(Rng& rng) {
  constexpr double kEdgeDensity = 0.45;
  constexpr double kSkipDensity = 0.15;
  biorank::QueryGraphBuilder builder;
  std::vector<std::vector<NodeId>> layers = {{builder.Source()}};
  for (int layer = 0; layer < kLayers; ++layer) {
    std::vector<NodeId> current;
    for (int i = 0; i < kNodesPerLayer; ++i) {
      current.push_back(builder.Node(rng.NextUniform(0.3, 1.0)));
    }
    layers.push_back(current);
  }
  std::vector<NodeId> answers;
  for (int i = 0; i < kAnswers; ++i) {
    answers.push_back(
        builder.Node(rng.NextUniform(0.3, 1.0), "ans" + std::to_string(i)));
  }
  layers.push_back(answers);
  for (size_t layer = 0; layer + 1 < layers.size(); ++layer) {
    for (NodeId from : layers[layer]) {
      for (NodeId to : layers[layer + 1]) {
        if (rng.NextBernoulli(kEdgeDensity)) {
          builder.Edge(from, to, rng.NextUniform(0.2, 1.0));
        }
      }
      for (size_t skip = layer + 2; skip < layers.size(); ++skip) {
        for (NodeId to : layers[skip]) {
          if (rng.NextBernoulli(kSkipDensity)) {
            builder.Edge(from, to, rng.NextUniform(0.2, 1.0));
          }
        }
      }
    }
  }
  for (size_t layer = 1; layer < layers.size(); ++layer) {
    for (NodeId to : layers[layer]) {
      const std::vector<NodeId>& prev = layers[layer - 1];
      builder.Edge(prev[static_cast<size_t>(rng.NextBounded(prev.size()))], to,
                   rng.NextUniform(0.2, 1.0));
    }
  }
  return std::move(builder).Build(answers);
}

/// Times every shard call of the wrapped transport. Calls are collected
/// until the client takes them after its request returns, which is
/// exact with the workload's single client.
class TimedTransport : public shard::Transport {
 public:
  struct CallTime {
    uint32_t shard = 0;
    double seconds = 0.0;
  };

  explicit TimedTransport(shard::Transport& inner) : inner_(inner) {}

  uint32_t shard_count() const override { return inner_.shard_count(); }

  biorank::Result<shard::ShardReply> Call(
      uint32_t shard, const shard::ShardQuery& query) override {
    const Clock::time_point start = Clock::now();
    biorank::Result<shard::ShardReply> reply = inner_.Call(shard, query);
    const double seconds = SecondsSince(start);
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back({shard, seconds});
    return reply;
  }

  std::vector<CallTime> TakeCalls() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(calls_, {});
  }

 private:
  shard::Transport& inner_;
  std::mutex mu_;
  std::vector<CallTime> calls_;
};

/// The fleet a set-up builds: shard servers, the timing decorator, and
/// the router that fronts them.
struct Fleet {
  Fleet()
      : shards(kShards), timed(shards), router(shards.server(0), timed, [] {
          shard::ShardRouterOptions options;
          options.partition.num_shards = kShards;
          return options;
        }()) {}

  std::vector<biorank::obs::Snapshot> Snapshots() {
    std::vector<biorank::obs::Snapshot> snapshots;
    for (uint32_t s = 0; s < kShards; ++s) {
      snapshots.push_back(shards.server(s).MetricsSnapshot());
    }
    return snapshots;
  }

  shard::InProcessTransport shards;
  TimedTransport timed;
  shard::ShardRouter router;
};

/// A request kept for the monolith comparison.
struct Sample {
  QueryGraph graph;
  Fingerprint merged;
};

struct Client {
  Rng stream;         ///< the graph stream
  Rng sampler;        ///< which requests are checked
  Latencies latency;
  ResponseTotals responses;
  ShardTotals shard;
  std::vector<Sample> samples;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

WindowTime Window(Fleet& fleet, Client& client, double warmup_s,
                  double seconds, SpanStore* spans, RssProbe* rss = nullptr) {
  client.shard.rpc_by_shard.resize(kShards);
  return RunClosedLoop(1, warmup_s, seconds, [&](int, bool measured) {
    QueryGraph graph = MakeLayeredDag(client.stream);
    const bool sampled = client.sampler.NextBounded(kCheckEvery) == 0;
    std::optional<biorank::obs::Trace> trace;
    if (spans != nullptr) trace.emplace();
    const Clock::time_point start = Clock::now();
    api::Result<api::QueryResponse> response = [&] {
      // RankGraph takes no trace option: the router's spans nest under
      // the benchmark's root through the thread's trace binding.
      biorank::obs::SpanScope root(trace ? &*trace : nullptr,
                                   "bench.rank_graph");
      return fleet.router.RankGraph(graph, kTopK);
    }();
    const Clock::time_point done = Clock::now();
    const double wall_s = std::chrono::duration<double>(done - start).count();
    const std::vector<TimedTransport::CallTime> calls = fleet.timed.TakeCalls();
    if (!response.ok()) {
      ++client.failed;
      return;
    }
    ++client.ok;
    if (sampled) {
      client.samples.push_back(
          Sample{std::move(graph), api::RankingFingerprint(response.value())});
    }
    if (!measured) return;
    client.latency.Add(start, done);
    if (rss != nullptr) rss->Count();
    if (spans == nullptr) return;
    const api::QueryResponse& merged = response.value();
    client.responses.Add(merged, wall_s);
    spans->Record("rank_graph", *trace, wall_s);
    double slowest = 0.0;
    double total = 0.0;
    for (const TimedTransport::CallTime& call : calls) {
      client.shard.rpc_by_shard[call.shard].ms.push_back(call.seconds * 1e3);
      slowest = std::max(slowest, call.seconds);
      total += call.seconds;
    }
    ShardTotals& s = client.shard;
    s.requests += 1.0;
    s.merge_s += std::max(0.0, wall_s - slowest);
    if (!calls.empty() && total > 0.0) {
      s.imbalance_sum += slowest / (total / static_cast<double>(calls.size()));
    }
    for (const api::RankedAnswer& answer : merged.top) {
      if (answer.resolution == biorank::serve::Resolution::kExact ||
          answer.resolution == biorank::serve::Resolution::kMonteCarlo) {
        s.useful_resolutions += 1.0;
      }
    }
    s.resolutions += merged.stats.exact + merged.stats.monte_carlo;
  });
}

Client MakeClient(uint64_t seed, uint64_t window) {
  return Client{Rng::ForStream(seed, 100 + window),
                Rng::ForStream(seed, 200 + window),
                {}, {}, {}, {}, 0, 0};
}

/// Re-ranks every sampled graph on an unsharded server and compares the
/// merged top-k bit for bit.
void CheckAgainstMonolith(const std::vector<const Client*>& clients,
                          Report& report) {
  api::Server monolith;
  for (const Client* client : clients) {
    report.Check(true, client->ok);
    report.Check(false, client->failed);
    for (const Sample& sample : client->samples) {
      api::Result<api::QueryResponse> response =
          monolith.RankGraph(sample.graph, kTopK);
      report.Check(response.ok() &&
                   api::RankingFingerprint(response.value()) == sample.merged);
    }
  }
}

}  // namespace

Report RunMcScatter(const Config& config) {
  Report report;
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s;
  const int setups = config.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < setups; ++r) {
    fleet.reset();
    const Clock::time_point start = Clock::now();
    fleet = std::make_unique<Fleet>();
    setup_s.push_back(SecondsSince(start));
  }

  Client untraced = MakeClient(config.seed, 0);
  Client traced = MakeClient(config.seed, 1);
  if (!config.trace) {
    RssProbe rss(kRssAtRequests);
    const WindowTime window =
        Window(*fleet, untraced, kWarmupSeconds, config.seconds, nullptr, &rss);
    report.Add("setup_s", Median(setup_s), "s");
    AddSlicedMetrics(report, "throughput_rps", "req", untraced.latency, window,
                     kSlices);
    rss.AddTo(report);
  } else {
    SpanStore spans;
    RegistryWindow registry;
    double untraced_wall = 0.0;
    double traced_wall = 0.0;
    const double slice = config.seconds / (2 * kTraceRounds);
    for (int round = 0; round < kTraceRounds; ++round) {
      const double warmup_s = round == 0 ? kWarmupSeconds : 0.0;
      untraced_wall += Window(*fleet, untraced, warmup_s, slice, nullptr).wall_s;
      const shard::RouterStats before = fleet->router.Stats();
      registry.Begin(fleet->Snapshots());
      traced_wall += Window(*fleet, traced, 0.0, slice, &spans).wall_s;
      registry.End(fleet->Snapshots());
      const shard::RouterStats after = fleet->router.Stats();
      traced.shard.short_circuited += static_cast<double>(
          after.shards_short_circuited - before.shards_short_circuited);
      traced.shard.shard_calls +=
          static_cast<double>(after.shard_calls - before.shard_calls);
    }
    AddRequestLayers(report, traced.responses, spans.Totals("rank_graph"),
                     registry);
    AddShardLayers(report, &traced.shard);
    AddIngestLayers(report, nullptr, RegistryWindow{});
    AddObsLayers(report, spans,
                 static_cast<double>(untraced.latency.ms.size()) / untraced_wall,
                 static_cast<double>(traced.latency.ms.size()) / traced_wall);
    spans.Dump(config.work_dir + "/spans-mc_scatter-" +
               std::to_string(config.seed) + ".jsonl");
  }
  fleet.reset();
  CheckAgainstMonolith({&untraced, &traced}, report);
  return report;
}

}  // namespace perfbench
