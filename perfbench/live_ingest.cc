// live_ingest: writes next to reads on a durable server. Set-up opens
// one session per protein on a server whose store is a fresh directory
// (default group fsync) and derives reweight deltas from the seed and
// the initial graphs. Then a writer applies the deltas round-robin,
// checkpointing every kCheckpointEvery deltas, while a reader ranks the
// sessions round-robin. At the end the server is destroyed and
// warm-booted from its store, and every session must rank bit-identically
// to its ranking before the restart. A change that speeds reads by
// caching more but slows invalidation or the WAL shows up here.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/server.h"
#include "ingest/delta.h"
#include "layers.h"
#include "stats.h"
#include "storage/snapshot.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace api = biorank::api;
using biorank::EdgeId;
using biorank::Rng;
using biorank::ingest::EvidenceDelta;
using Fingerprint = std::vector<std::pair<biorank::NodeId, double>>;

constexpr int kTopK = 10;
constexpr uint64_t kCheckpointEvery = 200;
/// Each session's deltas reweight kEdgeSubsets random ~2% subsets of its
/// evidence edges, each to two versions of fresh values applied in turn,
/// so every application changes the graph. Many subsets per session keep
/// a run's cost, and its read tail, from hanging on which few edges one
/// seed happens to pick.
constexpr int kEdgeSubsets = 8;
/// Latency and rates are medians over this many parts of the run.
constexpr int kSlices = 5;
/// peak_rss_mb is read after this many measured deltas.
constexpr uint64_t kRssAtDeltas = 4000;
/// WAL records past the last snapshot when the warm boot runs.
constexpr uint64_t kReplayTail = 100;

/// One set-up: the durable server, its sessions and their deltas.
struct Store {
  std::string dir;
  api::ServerOptions options;
  std::unique_ptr<api::Server> server;
  std::vector<api::SessionId> sessions;
  /// deltas[i] cycles on sessions[i] (see kEdgeSubsets).
  std::vector<std::vector<EvidenceDelta>> deltas;
  std::vector<size_t> writable;  ///< sessions with at least one delta

  ~Store() {
    server.reset();
    if (!dir.empty()) RemoveTree(dir);
  }
};

std::vector<EvidenceDelta> MakeDeltas(const biorank::QueryGraph& graph,
                                      uint64_t seed, uint64_t session) {
  Rng rng = Rng::ForStream(seed, 1000 + session);
  std::vector<EdgeId> edges;
  for (EdgeId e : graph.graph.AliveEdges()) {
    if (graph.graph.edge(e).from != graph.source) edges.push_back(e);
  }
  if (edges.empty()) return {};
  const size_t per_delta = std::max<size_t>(1, edges.size() / 50);
  std::vector<EvidenceDelta> deltas(2 * kEdgeSubsets);
  for (int subset = 0; subset < kEdgeSubsets; ++subset) {
    rng.Shuffle(edges);
    for (int version = 0; version < 2; ++version) {
      EvidenceDelta& delta = deltas[static_cast<size_t>(version * kEdgeSubsets + subset)];
      for (size_t i = 0; i < per_delta; ++i) {
        const EdgeId e = edges[i];
        const double q = graph.graph.edge(e).q * rng.NextUniform(0.9, 1.1);
        delta.reweight_edges.push_back({e, std::min(1.0, std::max(0.05, q))});
      }
    }
  }
  return deltas;
}

/// Builds a store in `dir`; false (with the failure counted) on error.
bool SetUp(const Config& config, const std::string& dir, Store& store,
           Report& report) {
  FreshDirectory(dir);
  store.dir = dir;
  store.options.storage_dir = dir;
  store.server = std::make_unique<api::Server>(store.options);
  api::Server& server = *store.server;
  if (!server.storage_status().ok()) {
    report.Check(false);
    report.Note("storage boot failed: " + server.storage_status().ToString());
    return false;
  }
  for (const biorank::Protein& protein : server.universe().proteins()) {
    api::Result<api::SessionInfo> info =
        server.OpenSession(api::MakeProteinFunctionRequest(protein.gene_symbol));
    report.Check(info.ok());
    if (!info.ok()) return false;
    store.sessions.push_back(info.value().id);
  }
  for (size_t i = 0; i < store.sessions.size(); ++i) {
    api::Result<biorank::QueryGraph> graph =
        server.SessionSnapshot(store.sessions[i]);
    report.Check(graph.ok());
    if (!graph.ok()) return false;
    store.deltas.push_back(MakeDeltas(graph.value(), config.seed, i));
    if (!store.deltas.back().empty()) store.writable.push_back(i);
  }
  return !store.writable.empty();
}

/// The writer's n-th delta and the index of the session it applies to.
const EvidenceDelta& DeltaFor(const Store& store, uint64_t n, size_t& index) {
  index = store.writable[n % store.writable.size()];
  const std::vector<EvidenceDelta>& deltas = store.deltas[index];
  return deltas[(n / store.writable.size()) % deltas.size()];
}

struct Writer {
  uint64_t next = 0;
  Latencies latency;
  std::vector<double> checkpoint_s;
  std::vector<double> checkpoint_bytes;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

struct Reader {
  uint64_t next = 0;
  Latencies latency;
  ResponseTotals responses;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

/// Accumulates the windows of one mode (untraced or traced).
struct WindowResult {
  WindowTime time;  ///< start of the last window, wall time summed
  Writer writer;
  Reader reader;
};

/// One closed-loop window: client 0 writes, client 1 reads, and
/// `next_delta` carries the writer's position across windows. Traced
/// when `spans` is set; the benchmark's root spans bracket the calls
/// that take no trace option, and the program's spans nest under them.
void Window(Store& store, uint64_t& next_delta, double warmup_s,
            double seconds, SpanStore* spans, WindowResult& result,
            RssProbe* rss = nullptr) {
  api::Server& server = *store.server;
  result.writer.next = next_delta;
  const WindowTime time =
      RunClosedLoop(2, warmup_s, seconds, [&](int client, bool measured) {
    std::optional<biorank::obs::Trace> trace;
    biorank::obs::Trace* traced = spans != nullptr ? &trace.emplace() : nullptr;
    if (client == 0) {
      Writer& w = result.writer;
      const uint64_t n = w.next++;
      size_t index = 0;
      const EvidenceDelta& delta = DeltaFor(store, n, index);
      Clock::time_point start = Clock::now();
      bool ok = false;
      {
        biorank::obs::SpanScope root(traced, "bench.apply_delta");
        ok = server.ApplyDelta(store.sessions[index], delta).ok();
      }
      const Clock::time_point done = Clock::now();
      double wall_s = std::chrono::duration<double>(done - start).count();
      if (!ok) {
        ++w.failed;
        return;
      }
      ++w.ok;
      if (measured) {
        w.latency.Add(start, done);
        if (rss != nullptr) rss->Count();
        if (spans != nullptr) spans->Record("apply_delta", *trace, wall_s);
      }
      if ((n + 1) % kCheckpointEvery != 0) return;
      std::optional<biorank::obs::Trace> checkpoint_trace;
      start = Clock::now();
      api::Result<api::CheckpointReport> checkpoint = [&] {
        biorank::obs::SpanScope root(
            spans != nullptr ? &checkpoint_trace.emplace() : nullptr,
            "storage.checkpoint");
        return server.Checkpoint();
      }();
      wall_s = SecondsSince(start);
      if (!checkpoint.ok()) {
        ++w.failed;
        return;
      }
      ++w.ok;
      if (!measured) return;
      w.checkpoint_s.push_back(checkpoint.value().seconds);
      w.checkpoint_bytes.push_back(
          static_cast<double>(checkpoint.value().bytes));
      if (spans != nullptr) {
        spans->Record("checkpoint", *checkpoint_trace, wall_s);
      }
    } else {
      Reader& r = result.reader;
      const api::SessionId id = store.sessions[r.next++ % store.sessions.size()];
      const Clock::time_point start = Clock::now();
      api::Result<api::QueryResponse> response = [&] {
        biorank::obs::SpanScope root(traced, "bench.query_session");
        return server.QuerySession(id, kTopK);
      }();
      const Clock::time_point done = Clock::now();
      const double wall_s = std::chrono::duration<double>(done - start).count();
      if (!response.ok()) {
        ++r.failed;
        return;
      }
      ++r.ok;
      if (!measured) return;
      r.latency.Add(start, done);
      if (spans != nullptr) {
        r.responses.Add(response.value(), wall_s);
        spans->Record("query_session", *trace, wall_s);
      }
    }
  });
  result.time.start = time.start;
  result.time.wall_s += time.wall_s;
  next_delta = result.writer.next;
}

void CountWindow(const WindowResult& window, Report& report) {
  report.Check(true, window.writer.ok + window.reader.ok);
  report.Check(false, window.writer.failed + window.reader.failed);
}

/// Every session's top-k, in session order; nullopt marks a failed
/// query (counted).
std::vector<std::optional<Fingerprint>> Rankings(api::Server& server,
                                                 const Store& store,
                                                 Report& report) {
  std::vector<std::optional<Fingerprint>> rankings;
  for (api::SessionId id : store.sessions) {
    api::Result<api::QueryResponse> response = server.QuerySession(id, kTopK);
    report.Check(response.ok());
    rankings.push_back(response.ok() ? std::optional<Fingerprint>(
                                           api::RankingFingerprint(response.value()))
                                     : std::nullopt);
  }
  return rankings;
}

/// The store's size over its newest snapshot's size.
double DiskBytesPerLiveByte(const std::string& dir) {
  const auto snapshots = biorank::storage::ListSnapshots(dir);
  if (snapshots.empty()) return 0.0;
  std::error_code error;
  const double live = static_cast<double>(
      std::filesystem::file_size(snapshots.front().second, error));
  return error ? 0.0 : Ratio(static_cast<double>(TreeBytes(dir)), live);
}

}  // namespace

Report RunLiveIngest(const Config& config) {
  Report report;
  std::unique_ptr<Store> store;
  std::vector<double> setup_s;
  const int setups = config.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < setups; ++r) {
    store.reset();
    const Clock::time_point start = Clock::now();
    store = std::make_unique<Store>();
    const bool ok = SetUp(config, config.work_dir + "/store-" + std::to_string(r),
                          *store, report);
    setup_s.push_back(SecondsSince(start));
    if (!ok) {
      report.Note("live_ingest set-up failed");
      return report;
    }
  }

  IngestTotals ingest;
  SpanStore spans;
  RegistryWindow registry;
  WindowResult untraced;
  WindowResult traced;
  uint64_t next_delta = 0;
  if (!config.trace) {
    RssProbe rss(kRssAtDeltas);
    Window(*store, next_delta, kWarmupSeconds, config.seconds, nullptr,
           untraced, &rss);
    CountWindow(untraced, report);
    report.Add("setup_s", Median(setup_s), "s");
    AddSlicedMetrics(report, "throughput_rps", "req", untraced.reader.latency,
                     untraced.time, kSlices);
    AddSlicedMetrics(report, "delta_rps", "delta", untraced.writer.latency,
                     untraced.time, kSlices);
    rss.AddTo(report);
  } else {
    const double slice = config.seconds / (2 * kTraceRounds);
    for (int round = 0; round < kTraceRounds; ++round) {
      Window(*store, next_delta, round == 0 ? kWarmupSeconds : 0.0, slice,
             nullptr, untraced);
      registry.Begin({store->server->MetricsSnapshot()});
      Window(*store, next_delta, 0.0, slice, &spans, traced);
      registry.End({store->server->MetricsSnapshot()});
    }
    CountWindow(untraced, report);
    CountWindow(traced, report);
    ingest.delta_rps =
        static_cast<double>(untraced.writer.latency.ms.size()) /
        untraced.time.wall_s;
    ingest.delta_latency = untraced.writer.latency;
  }
  for (const WindowResult* window : {&untraced, &traced}) {
    const Writer& w = window->writer;
    ingest.checkpoint_s.insert(ingest.checkpoint_s.end(), w.checkpoint_s.begin(),
                               w.checkpoint_s.end());
    ingest.checkpoint_bytes.insert(ingest.checkpoint_bytes.end(),
                                   w.checkpoint_bytes.begin(),
                                   w.checkpoint_bytes.end());
  }
  report.Note(std::to_string(ingest.checkpoint_s.size()) + " checkpoints");

  // The warm boot replays a fixed WAL tail (a checkpoint, then
  // kReplayTail deltas), so recovery_s does not depend on where the
  // window stopped. Rank every session, destroy the server, boot a new
  // one from the store and rank again.
  report.Check(store->server->Checkpoint().ok());
  for (uint64_t i = 0; i < kReplayTail; ++i, ++next_delta) {
    size_t index = 0;
    const EvidenceDelta& delta = DeltaFor(*store, next_delta, index);
    report.Check(store->server->ApplyDelta(store->sessions[index], delta).ok());
  }
  const std::vector<std::optional<Fingerprint>> before =
      Rankings(*store->server, *store, report);
  ingest.disk_bytes_per_live_byte = DiskBytesPerLiveByte(store->dir);
  store->server.reset();
  const Clock::time_point boot = Clock::now();
  store->server = std::make_unique<api::Server>(store->options);
  ingest.recovery_s = SecondsSince(boot);
  report.Check(store->server->storage_status().ok());
  ingest.replayed_records =
      static_cast<double>(store->server->recovery_report().replayed_records);
  const std::vector<std::optional<Fingerprint>> after =
      Rankings(*store->server, *store, report);
  for (size_t i = 0; i < before.size(); ++i) {
    report.Check(before[i].has_value() && before[i] == after[i]);
  }

  if (!config.trace) {
    report.Add("recovery_s", ingest.recovery_s, "s");
  } else {
    AddRequestLayers(report, traced.reader.responses,
                     spans.Totals("query_session"), registry);
    AddShardLayers(report, nullptr);
    AddIngestLayers(report, &ingest, registry);
    AddObsLayers(report, spans,
                 static_cast<double>(untraced.reader.latency.ms.size()) /
                     untraced.time.wall_s,
                 static_cast<double>(traced.reader.latency.ms.size()) /
                     traced.time.wall_s);
    spans.Dump(config.work_dir + "/spans-live_ingest-" +
               std::to_string(config.seed) + ".jsonl");
  }
  return report;
}

}  // namespace perfbench
