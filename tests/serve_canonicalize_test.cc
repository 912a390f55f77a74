// The serving fan-out's canonicalization (RankingService::
// CanonicalizeTargets) against the single-target wrapper: at 1 and 4
// threads, back to back on one service (so per-thread scratch is reused
// across requests of different sizes), and from several client threads at
// once (so scratch is checked out concurrently), every candidate must be
// byte-identical. Also pins the biorank_serve_canonicalize_seconds
// histogram: all three callers (RankTopK, PrepareAnytime, the ingest
// applier) report into it, and recording it changes no output.

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/server.h"
#include "core/canonical.h"
#include "core/csr_snapshot.h"
#include "ingest/update_applier.h"
#include "integrate/exploratory_query.h"
#include "obs/metrics.h"
#include "serve/ranking_service.h"
#include "serve/refinement.h"
#include "testing/random_graphs.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace biorank {
namespace {

/// Request graphs of mixed sizes: protein graphs of the default universe,
/// noisy corpus graphs (self-loops, parallel edges, tombstones) and
/// Wheatstone probes past the labeling budget.
const std::vector<QueryGraph>& Graphs() {
  static const std::vector<QueryGraph>* graphs = [] {
    auto* out = new std::vector<QueryGraph>();
    api::Server server;
    const std::vector<Protein>& proteins = server.universe().proteins();
    for (size_t i = 0; i < proteins.size(); i += 8) {
      Result<ExploratoryQueryResult> result = server.mediator().Run(
          MakeProteinFunctionQuery(proteins[i].gene_symbol));
      if (result.ok()) out->push_back(std::move(result.value().query_graph));
    }
    Rng rng(4711);
    for (int round = 0; round < 24; ++round) {
      QueryGraph graph = testing::MakeCorpusGraph(rng, round);
      testing::AddStructuralNoise(rng, graph);
      out->push_back(std::move(graph));
    }
    out->push_back(testing::MakeParallelBridges(5, 0.5));
    return out;
  }();
  return *graphs;
}

std::string Bytes(const CanonicalCandidate& c) {
  std::string out = c.key.repr + "|" + std::to_string(c.key.hash) + "|" +
                    std::to_string(c.target) + "|" +
                    std::to_string(c.canonical.source) + "|";
  auto put = [&out](const void* data, size_t size) {
    out.append(static_cast<const char*>(data), size);
  };
  for (NodeId t : c.canonical.answers) put(&t, sizeof(t));
  const ProbabilisticEntityGraph& g = c.canonical.graph;
  for (NodeId i = 0; i < g.node_capacity(); ++i) put(&g.node(i).p, 8);
  for (EdgeId e = 0; e < g.edge_capacity(); ++e) {
    put(&g.edge(e).from, 4);
    put(&g.edge(e).to, 4);
    put(&g.edge(e).q, 8);
  }
  for (NodeId n : c.provenance.nodes) put(&n, sizeof(n));
  out += "|";
  for (EdgeId e : c.provenance.edges) put(&e, sizeof(e));
  return out;
}

/// The single-target wrapper's bytes for every answer of every graph.
const std::vector<std::vector<std::string>>& Expected() {
  static const auto* expected = [] {
    auto* out = new std::vector<std::vector<std::string>>();
    CanonicalizeOptions options;
    options.collect_provenance = true;
    for (const QueryGraph& graph : Graphs()) {
      out->emplace_back();
      for (NodeId answer : graph.answers) {
        out->back().push_back(
            Bytes(CanonicalizeCandidate(graph, answer, options).value()));
      }
    }
    return out;
  }();
  return *expected;
}

/// Runs every graph through `service`'s fan-out and compares.
void ExpectAllMatch(serve::RankingService& service, const std::string& where) {
  CanonicalizeOptions options;
  options.collect_provenance = true;
  for (size_t g = 0; g < Graphs().size(); ++g) {
    const QueryGraph& graph = Graphs()[g];
    const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
    std::vector<CanonicalCandidate> out;
    Status status =
        service.CanonicalizeTargets(graph, graph.answers, options, out, csr);
    ASSERT_TRUE(status.ok()) << where << ": " << status;
    ASSERT_EQ(out.size(), graph.answers.size());
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(Bytes(out[i]), Expected()[g][i])
          << where << ", graph " << g << ", answer " << graph.answers[i];
    }
  }
}

TEST(ServeCanonicalizeTest, FanOutMatchesWrapperAtOneAndFourThreads) {
  ThreadPool pool(3);
  for (int threads : {1, 4}) {
    serve::RankingServiceOptions options;
    options.pool = &pool;
    options.num_threads = threads;
    serve::RankingService service(options);
    // Twice over on one service: the second sweep reuses scratch sized by
    // the whole first sweep.
    for (int sweep = 0; sweep < 2; ++sweep) {
      ExpectAllMatch(service, std::to_string(threads) + " threads, sweep " +
                                  std::to_string(sweep));
    }
  }
}

TEST(ServeCanonicalizeTest, ConcurrentCallersShareOneService) {
  ThreadPool pool(3);
  for (int threads : {1, 4}) {
    serve::RankingServiceOptions options;
    options.pool = &pool;
    options.num_threads = threads;
    serve::RankingService service(options);
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&service, threads, c] {
        ExpectAllMatch(service, std::to_string(threads) + " threads, client " +
                                    std::to_string(c));
      });
    }
    for (std::thread& client : clients) client.join();
  }
}

TEST(ServeCanonicalizeTest, RejectsForeignTargetsAndMismatchedSnapshots) {
  serve::RankingService service;
  const QueryGraph& graph = Graphs().front();
  const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
  std::vector<CanonicalCandidate> out;
  EXPECT_EQ(service.CanonicalizeTargets(graph, {graph.source}, {}, out, csr)
                .code(),
            StatusCode::kInvalidArgument);
  const CsrSnapshot other = BuildCsrSnapshot(Graphs().back().graph);
  EXPECT_EQ(service.CanonicalizeTargets(graph, graph.answers, {}, out, other)
                .code(),
            StatusCode::kInvalidArgument);
}

uint64_t CanonicalizeCount(obs::Registry& registry) {
  return registry
      .GetHistogram("biorank_serve_canonicalize_seconds", "unused")
      ->Count();
}

TEST(ServeCanonicalizeTest, HistogramCountsEveryCallerAndChangesNothing) {
  obs::Registry registry;
  serve::RankingServiceOptions with;
  with.num_threads = 1;
  with.registry = &registry;
  serve::RankingServiceOptions without;
  without.num_threads = 1;
  serve::RankingService metered(with);
  serve::RankingService plain(without);
  const QueryGraph& graph = Graphs().front();

  Result<serve::TopKResult> a = metered.RankTopK(graph, 5);
  Result<serve::TopKResult> b = plain.RankTopK(graph, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().top.size(), b.value().top.size());
  for (size_t i = 0; i < a.value().top.size(); ++i) {
    EXPECT_EQ(a.value().top[i].node, b.value().top[i].node);
    EXPECT_EQ(std::memcmp(&a.value().top[i].reliability,
                          &b.value().top[i].reliability, sizeof(double)),
              0);
  }
  EXPECT_EQ(CanonicalizeCount(registry), 1u);

  ASSERT_TRUE(serve::PrepareAnytime(metered, graph, graph.answers, 5).ok());
  EXPECT_EQ(CanonicalizeCount(registry), 2u);

  ingest::UpdateApplier applier(graph, &metered);
  ASSERT_TRUE(applier.RankTopK(5).ok());
  EXPECT_EQ(CanonicalizeCount(registry), 3u);
}

}  // namespace
}  // namespace biorank
