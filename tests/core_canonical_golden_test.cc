// Golden digests of the canonical forms: for every answer of every graph
// in a fixed corpus, the canonical key (repr and hash), the canonical
// graph's exact bits, the canonical target and the provenance footprint
// are folded into one digest per graph and compared with the values in
// tests/data/canonical_golden.txt. Cached entries, WAL snapshots and
// Monte Carlo streams are all keyed by these bytes, so any drift — a
// different node order, one ulp in a merged probability — fails here
// before it can reach a ranking fingerprint.
//
// Regenerate the file (only for a deliberate format change) by running
// this test with BIORANK_GOLDEN_OUT=tests/data/canonical_golden.txt set.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/server.h"
#include "core/canonical.h"
#include "core/query_graph.h"
#include "datagen/protein_universe.h"
#include "datagen/scenario.h"
#include "integrate/exploratory_query.h"
#include "integrate/scenario_harness.h"
#include "testing/random_graphs.h"
#include "util/rng.h"

namespace biorank {
namespace {

/// Appends fixed-width little-endian bytes of `value`.
template <typename T>
void Put(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// Every byte of one answer's canonicalization that a cache entry, a
/// snapshot or an MC stream depends on.
void AppendCandidate(std::string& out, NodeId answer,
                     const Result<CanonicalCandidate>& result) {
  Put(out, answer);
  Put(out, static_cast<int32_t>(result.status().code()));
  if (!result.ok()) return;
  const CanonicalCandidate& c = result.value();
  Put(out, static_cast<uint64_t>(c.key.repr.size()));
  out += c.key.repr;
  Put(out, c.key.hash);
  const ProbabilisticEntityGraph& g = c.canonical.graph;
  Put(out, c.canonical.source);
  Put(out, static_cast<uint64_t>(c.canonical.answers.size()));
  for (NodeId t : c.canonical.answers) Put(out, t);
  Put(out, g.node_capacity());
  for (NodeId i = 0; i < g.node_capacity(); ++i) {
    Put(out, g.node(i).p);
    Put(out, static_cast<uint8_t>(g.node(i).alive));
  }
  Put(out, g.edge_capacity());
  for (EdgeId e = 0; e < g.edge_capacity(); ++e) {
    Put(out, g.edge(e).from);
    Put(out, g.edge(e).to);
    Put(out, g.edge(e).q);
    Put(out, static_cast<uint8_t>(g.edge(e).alive));
  }
  Put(out, c.target);
  Put(out, static_cast<uint64_t>(c.provenance.nodes.size()));
  for (NodeId n : c.provenance.nodes) Put(out, n);
  Put(out, static_cast<uint64_t>(c.provenance.edges.size()));
  for (EdgeId e : c.provenance.edges) Put(out, e);
}

std::string Hex(uint64_t value) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << value;
  return os.str();
}

/// "corpus index" -> "answers digest".
using Digests = std::map<std::string, std::string>;

void AddGraph(Digests& digests, const std::string& corpus, int index,
              const QueryGraph& graph) {
  CanonicalizeOptions options;
  options.collect_provenance = true;
  std::string bytes;
  for (NodeId answer : graph.answers) {
    AppendCandidate(bytes, answer,
                    CanonicalizeCandidate(graph, answer, options));
  }
  digests[corpus + " " + std::to_string(index)] =
      std::to_string(graph.answers.size()) + " " + Hex(Fnv1a64(bytes));
}

Digests ComputeDigests() {
  Digests digests;
  {
    // The differential suites' corpus, as generated there.
    Rng rng(5150);
    for (int round = 0; round < 206; ++round) {
      AddGraph(digests, "differential", round,
               testing::MakeCorpusGraph(rng, round));
    }
  }
  {
    // Parallel edges, self-loops and tombstones on the same shapes.
    Rng rng(9091);
    for (int round = 0; round < 60; ++round) {
      QueryGraph graph = testing::MakeCorpusGraph(rng, round);
      testing::AddStructuralNoise(rng, graph);
      AddGraph(digests, "noisy", round, graph);
    }
  }
  {
    // Wider layered DAGs: residues that stay irreducible, and certain
    // nodes whose serial collapses chain into long products.
    Rng rng(777);
    for (int round = 0; round < 30; ++round) {
      testing::RandomDagOptions options;
      options.layers = 3 + round % 3;
      options.nodes_per_layer = 4 + round % 4;
      options.answers = 3 + round % 3;
      options.edge_density = 0.25 + 0.02 * (round % 10);
      options.skip_density = 0.15;
      options.certain_nodes = (round % 3) == 0;
      AddGraph(digests, "layered", round,
               testing::MakeRandomLayeredDag(rng, options));
    }
  }
  {
    // Wheatstone probes: the two Figure 4 graphs, then identical bridges
    // side by side, past the labeling search's leaf budget.
    AddGraph(digests, "wheatstone", 0, MakeFig4aSerialParallel());
    AddGraph(digests, "wheatstone", 1, MakeFig4bWheatstoneBridge());
    for (int copies = 1; copies <= 6; ++copies) {
      AddGraph(digests, "wheatstone", 1 + copies,
               testing::MakeParallelBridges(copies, 0.5));
    }
  }
  {
    // The served workloads: every protein of the default universe asked
    // the paper's question, and the three evaluation scenarios.
    api::Server server;
    int index = 0;
    for (const Protein& protein : server.universe().proteins()) {
      Result<ExploratoryQueryResult> result = server.mediator().Run(
          MakeProteinFunctionQuery(protein.gene_symbol));
      if (result.ok()) {
        AddGraph(digests, "protein", index, result.value().query_graph);
      } else {
        digests["protein " + std::to_string(index)] = "error";
      }
      ++index;
    }
    int scenario_index = 0;
    for (ScenarioId scenario :
         {ScenarioId::kScenario1WellKnown, ScenarioId::kScenario2LessKnown,
          ScenarioId::kScenario3Hypothetical}) {
      Result<std::vector<ScenarioQuery>> queries =
          server.harness().BuildQueries(scenario);
      if (!queries.ok()) {
        digests["scenario " + std::to_string(scenario_index++)] = "error";
        continue;
      }
      for (const ScenarioQuery& query : queries.value()) {
        AddGraph(digests, "scenario", scenario_index++, query.graph);
      }
    }
  }
  return digests;
}

TEST(CanonicalGoldenTest, DigestsMatchCheckedInValues) {
  const Digests actual = ComputeDigests();
  if (const char* out_path = std::getenv("BIORANK_GOLDEN_OUT")) {
    std::ofstream out(out_path);
    out << "# corpus index answers digest — see "
           "tests/core_canonical_golden_test.cc\n";
    for (const auto& [name, digest] : actual) {
      out << name << " " << digest << "\n";
    }
    ASSERT_TRUE(out.good()) << "cannot write " << out_path;
    GTEST_SKIP() << "wrote " << actual.size() << " digests to " << out_path;
  }

  std::ifstream in(BIORANK_TEST_DATA_DIR "/canonical_golden.txt");
  ASSERT_TRUE(in.good()) << "missing " BIORANK_TEST_DATA_DIR
                            "/canonical_golden.txt";
  Digests expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string corpus, index, answers, digest;
    fields >> corpus >> index >> answers >> digest;
    expected[corpus + " " + index] =
        digest.empty() ? answers : answers + " " + digest;
  }
  ASSERT_EQ(expected.size(), actual.size());
  int mismatches = 0;
  for (const auto& [name, digest] : expected) {
    auto it = actual.find(name);
    ASSERT_NE(it, actual.end()) << "no digest computed for " << name;
    if (it->second != digest && ++mismatches <= 10) {
      ADD_FAILURE() << name << ": expected " << digest << ", got "
                    << it->second;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace biorank
