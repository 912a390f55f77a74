// annotate: the paper's own question, "which functions does protein X
// have?", as Query(MakeProteinFunctionRequest(symbol, 10)) from two
// closed-loop clients. Symbols are Zipf(s=1) over every protein of the
// default universe; the popularity order is one fixed permutation, so
// every seed serves the same mix and the seed only picks the request
// sequence (with 194 proteins of uneven cost, a seeded order would make
// the mean cost depend on which proteins land on top). A set-up pass over all proteins warms the shared cache, so almost
// every canonical key hits: the request is canonicalization plus the
// source crawl, and Monte Carlo stays idle.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/server.h"
#include "layers.h"
#include "stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace api = biorank::api;
using Fingerprint = std::vector<std::pair<biorank::NodeId, double>>;

constexpr int kTopK = 10;
constexpr int kClients = 2;
/// Latency and throughput are medians over this many parts of the run.
constexpr int kSlices = 5;
/// peak_rss_mb is read after this many measured requests.
constexpr uint64_t kRssAtRequests = 10000;

/// Zipf(s=1) draws over a fixed permutation of the protein symbols.
class ZipfRequests {
 public:
  explicit ZipfRequests(const biorank::ProteinUniverse& universe) {
    std::vector<std::string> symbols;
    for (const biorank::Protein& protein : universe.proteins()) {
      symbols.push_back(protein.gene_symbol);
    }
    biorank::Rng rng(0x2a1f);
    rng.Shuffle(symbols);
    double total = 0.0;
    for (size_t rank = 1; rank <= symbols.size(); ++rank) {
      total += 1.0 / static_cast<double>(rank);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (const std::string& symbol : symbols) {
      requests_.push_back(api::MakeProteinFunctionRequest(symbol, kTopK));
    }
  }

  size_t Draw(biorank::Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }
  size_t size() const { return requests_.size(); }
  const api::QueryRequest& request(size_t i) const { return requests_[i]; }

 private:
  std::vector<double> cdf_;
  std::vector<api::QueryRequest> requests_;
};

struct Client {
  biorank::Rng rng;
  Latencies latency;
  ResponseTotals responses;
  /// The first ranking this client saw per request index; every later
  /// response must equal it, and it must equal the reference.
  std::map<size_t, Fingerprint> first;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

/// One closed-loop window; traced when `spans` is set.
WindowTime Window(api::Server& server, const ZipfRequests& requests,
              std::vector<Client>& clients, double warmup_s, double seconds,
              SpanStore* spans, RssProbe* rss = nullptr) {
  return RunClosedLoop(kClients, warmup_s, seconds, [&](int c, bool measured) {
    Client& client = clients[static_cast<size_t>(c)];
    const size_t index = requests.Draw(client.rng);
    api::QueryRequest request = requests.request(index);
    std::optional<biorank::obs::Trace> trace;
    if (spans != nullptr) request.options.trace = &trace.emplace();
    const Clock::time_point start = Clock::now();
    api::Result<api::QueryResponse> response = server.Query(request);
    const Clock::time_point done = Clock::now();
    const double wall_s = std::chrono::duration<double>(done - start).count();
    if (!response.ok()) {
      ++client.failed;
      return;
    }
    Fingerprint fingerprint = api::RankingFingerprint(response.value());
    auto [it, inserted] = client.first.emplace(index, fingerprint);
    if (!inserted && it->second != fingerprint) {
      ++client.failed;
      return;
    }
    ++client.ok;
    if (!measured) return;
    client.latency.Add(start, done);
    if (rss != nullptr) rss->Count();
    if (spans != nullptr) {
      client.responses.Add(response.value(), wall_s);
      spans->Record("query", *trace, wall_s);
    }
  });
}

std::vector<Client> MakeClients(uint64_t seed, uint64_t window) {
  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(Client{
        biorank::Rng::ForStream(seed, window * 16 + static_cast<uint64_t>(c)),
        {}, {}, {}, 0, 0});
  }
  return clients;
}

/// Compares every client's first-seen ranking per request against a
/// one-thread, cache-off server; a mismatch fails every response the
/// client served for that request.
void CheckAgainstReference(const ZipfRequests& requests,
                           const std::vector<Client>& clients,
                           Report& report) {
  api::ServerOptions options;
  options.ranking.num_threads = 1;
  options.ranking.enable_cache = false;
  api::Server reference(options);
  std::map<size_t, Fingerprint> expected;
  for (const Client& client : clients) {
    report.Check(true, client.ok);
    report.Check(false, client.failed);
    for (const auto& [index, fingerprint] : client.first) {
      auto it = expected.find(index);
      if (it == expected.end()) {
        api::Result<api::QueryResponse> response =
            reference.Query(requests.request(index));
        if (!response.ok()) {
          report.Check(false);
          report.Note("reference query failed: " + response.status().ToString());
          continue;
        }
        it = expected.emplace(index, api::RankingFingerprint(response.value()))
                 .first;
      }
      report.Check(it->second == fingerprint);
    }
  }
}

}  // namespace

Report RunAnnotate(const Config& config) {
  Report report;
  std::unique_ptr<api::Server> server;
  std::unique_ptr<ZipfRequests> requests;
  std::vector<double> setup_s;
  const int setups = config.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < setups; ++r) {
    server.reset();
    const Clock::time_point start = Clock::now();
    server = std::make_unique<api::Server>();
    requests = std::make_unique<ZipfRequests>(server->universe());
    for (size_t i = 0; i < requests->size(); ++i) {
      report.Check(server->Query(requests->request(i)).ok());
    }
    setup_s.push_back(SecondsSince(start));
  }

  std::vector<Client> all_clients;
  if (!config.trace) {
    std::vector<Client> clients = MakeClients(config.seed, 0);
    RssProbe rss(kRssAtRequests);
    const WindowTime window =
        Window(*server, *requests, clients, kWarmupSeconds, config.seconds,
               nullptr, &rss);
    Latencies latency;
    for (const Client& client : clients) latency.Merge(client.latency);
    report.Add("setup_s", Median(setup_s), "s");
    AddSlicedMetrics(report, "throughput_rps", "req", latency, window, kSlices);
    rss.AddTo(report);
    for (Client& client : clients) all_clients.push_back(std::move(client));
  } else {
    std::vector<Client> untraced = MakeClients(config.seed, 0);
    std::vector<Client> traced = MakeClients(config.seed, 1);
    SpanStore spans;
    RegistryWindow registry;
    double untraced_wall = 0.0;
    double traced_wall = 0.0;
    const double slice = config.seconds / (2 * kTraceRounds);
    for (int round = 0; round < kTraceRounds; ++round) {
      const double warmup_s = round == 0 ? kWarmupSeconds : 0.0;
      untraced_wall +=
          Window(*server, *requests, untraced, warmup_s, slice, nullptr).wall_s;
      registry.Begin({server->MetricsSnapshot()});
      traced_wall +=
          Window(*server, *requests, traced, 0.0, slice, &spans).wall_s;
      registry.End({server->MetricsSnapshot()});
    }
    double untraced_ok = 0.0;
    double traced_ok = 0.0;
    ResponseTotals responses;
    for (const Client& client : untraced) {
      untraced_ok += static_cast<double>(client.latency.ms.size());
    }
    for (const Client& client : traced) {
      traced_ok += static_cast<double>(client.latency.ms.size());
      responses.Merge(client.responses);
    }
    AddRequestLayers(report, responses, spans.Totals("query"), registry);
    AddShardLayers(report, nullptr);
    AddIngestLayers(report, nullptr, RegistryWindow{});
    AddObsLayers(report, spans, untraced_ok / untraced_wall,
                 traced_ok / traced_wall);
    spans.Dump(config.work_dir + "/spans-annotate-" +
               std::to_string(config.seed) + ".jsonl");
    for (Client& client : untraced) all_clients.push_back(std::move(client));
    for (Client& client : traced) all_clients.push_back(std::move(client));
  }
  server.reset();
  CheckAgainstReference(*requests, all_clients, report);
  return report;
}

}  // namespace perfbench
