#include "testing/differential.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "core/canonical.h"
#include "core/graph_algo.h"
#include "core/reduction.h"

namespace biorank::testing {

namespace {

DiffResult Fail(const std::string& message) { return {false, message}; }

/// Index and bit patterns of the first bitwise difference, for messages.
std::string DescribeFirstDivergence(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  std::ostringstream os;
  if (a.size() != b.size()) {
    os << "size " << a.size() << " vs " << b.size();
    return os.str();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b[i], sizeof(bits_b));
    if (bits_a != bits_b) {
      os << "index " << i << ": " << a[i] << " vs " << b[i] << " (bits 0x"
         << std::hex << bits_a << " vs 0x" << bits_b << ")";
      return os.str();
    }
  }
  return "no divergence";
}

}  // namespace

bool ScoresBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

DiffResult CompareMcBackends(const QueryGraph& query_graph, int64_t trials,
                             uint64_t seed, int num_threads,
                             McOptions::Mode mode) {
  McOptions mc;
  mc.trials = trials;
  mc.seed = seed;
  mc.num_threads = num_threads;
  mc.mode = mode;

  mc.backend = McOptions::Backend::kCsrSnapshot;
  Result<McEstimate> csr = EstimateReliabilityMc(query_graph, mc);
  mc.backend = McOptions::Backend::kPointerView;
  Result<McEstimate> ptr = EstimateReliabilityMc(query_graph, mc);

  if (csr.ok() != ptr.ok()) {
    return Fail("MC backends disagree on status: csr=" +
                (csr.ok() ? std::string("OK") : csr.status().message()) +
                " pointer=" +
                (ptr.ok() ? std::string("OK") : ptr.status().message()));
  }
  if (!csr.ok()) return {};  // Both failed identically: agreement.
  if (!ScoresBitIdentical(csr.value().scores, ptr.value().scores)) {
    return Fail("MC scores diverge at " +
                DescribeFirstDivergence(csr.value().scores,
                                        ptr.value().scores));
  }
  return {};
}

DiffResult CompareTopKBackends(const QueryGraph& query_graph,
                               const TopKOptions& base) {
  TopKOptions options = base;
  options.backend = McOptions::Backend::kCsrSnapshot;
  Result<TopKResult> csr = RankTopKAdaptive(query_graph, options);
  options.backend = McOptions::Backend::kPointerView;
  Result<TopKResult> ptr = RankTopKAdaptive(query_graph, options);

  if (csr.ok() != ptr.ok()) {
    return Fail("top-k backends disagree on status");
  }
  if (!csr.ok()) return {};
  const TopKResult& a = csr.value();
  const TopKResult& b = ptr.value();
  if (a.trials_used != b.trials_used) {
    return Fail("top-k trials_used diverge: " + std::to_string(a.trials_used) +
                " vs " + std::to_string(b.trials_used));
  }
  if (a.separated != b.separated) {
    return Fail("top-k separated flags diverge");
  }
  if (a.ranking.size() != b.ranking.size()) {
    return Fail("top-k ranking sizes diverge");
  }
  for (size_t i = 0; i < a.ranking.size(); ++i) {
    if (a.ranking[i].node != b.ranking[i].node ||
        a.ranking[i].rank_lo != b.ranking[i].rank_lo ||
        a.ranking[i].rank_hi != b.ranking[i].rank_hi) {
      return Fail("top-k ranking order diverges at position " +
                  std::to_string(i));
    }
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a.ranking[i].score, sizeof(bits_a));
    std::memcpy(&bits_b, &b.ranking[i].score, sizeof(bits_b));
    if (bits_a != bits_b) {
      return Fail("top-k score bits diverge at position " +
                  std::to_string(i));
    }
  }
  return {};
}

DiffResult CompareDiffusionBackends(const QueryGraph& query_graph,
                                    const DiffusionOptions& base) {
  DiffusionOptions options = base;
  options.backend = DiffusionOptions::Backend::kCsrSnapshot;
  Result<IterativeScores> csr = Diffuse(query_graph, options);
  options.backend = DiffusionOptions::Backend::kPointerView;
  Result<IterativeScores> ptr = Diffuse(query_graph, options);

  if (csr.ok() != ptr.ok()) {
    return Fail("diffusion backends disagree on status");
  }
  if (!csr.ok()) return {};
  if (csr.value().iterations != ptr.value().iterations) {
    return Fail("diffusion iteration counts diverge: " +
                std::to_string(csr.value().iterations) + " vs " +
                std::to_string(ptr.value().iterations));
  }
  if (csr.value().converged != ptr.value().converged) {
    return Fail("diffusion convergence flags diverge");
  }
  if (!ScoresBitIdentical(csr.value().scores, ptr.value().scores)) {
    return Fail("diffusion scores diverge at " +
                DescribeFirstDivergence(csr.value().scores,
                                        ptr.value().scores));
  }
  return {};
}

DiffResult CompareRestrictionBackends(const QueryGraph& query_graph) {
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  for (NodeId target : query_graph.answers) {
    // Reference: the pointer-graph functions, one step at a time.
    std::vector<bool> kept;
    QueryGraph reduced =
        RestrictToQueryRelevantSubgraph(query_graph, {target}, &kept);
    CandidateProvenance footprint;
    for (NodeId id = 0; id < graph.node_capacity(); ++id) {
      if (!kept[static_cast<size_t>(id)]) continue;
      footprint.nodes.push_back(id);
      graph.ForEachOutEdge(id, [&](EdgeId e) {
        if (kept[static_cast<size_t>(graph.edge(e).to)]) {
          footprint.edges.push_back(e);
        }
      });
    }
    std::sort(footprint.edges.begin(), footprint.edges.end());
    ReduceQueryGraph(reduced);
    Result<CanonicalKey> reference = CanonicalQueryGraphKey(reduced);

    CanonicalizeOptions options;
    options.collect_provenance = true;
    Result<CanonicalCandidate> flat =
        CanonicalizeCandidate(query_graph, target, options);
    const std::string where = " for target " + std::to_string(target);
    if (reference.ok() != flat.ok()) {
      return Fail("canonicalization status diverges" + where);
    }
    if (!flat.ok()) continue;
    const CanonicalCandidate& c = flat.value();
    if (c.key.repr != reference.value().repr ||
        c.key.hash != reference.value().hash) {
      return Fail("canonical keys diverge" + where + ":\n" + c.key.repr +
                  "vs reference\n" + reference.value().repr);
    }
    if (c.provenance.nodes != footprint.nodes ||
        c.provenance.edges != footprint.edges) {
      return Fail("provenance footprints diverge" + where);
    }
    // The canonical graph is the key's own graph: re-keying it as-is
    // (its answers are exactly {target}) reproduces the repr.
    Result<CanonicalKey> rekeyed = CanonicalQueryGraphKey(c.canonical);
    if (!rekeyed.ok() || rekeyed.value().repr != c.key.repr ||
        c.canonical.answers != std::vector<NodeId>{c.target}) {
      return Fail("canonical graph does not re-key to its key" + where);
    }
  }
  return {};
}

}  // namespace biorank::testing
