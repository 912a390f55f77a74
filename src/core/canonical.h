// Canonicalization of reduced per-answer query graphs: the key that
// lets the serving layer share one reliability computation across every
// tuple (and every successive exploratory query) whose reduced evidence
// subgraph is isomorphic — the reuse opportunity motivating the
// serve/reliability_cache memo.

#ifndef BIORANK_CORE_CANONICAL_H_
#define BIORANK_CORE_CANONICAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "util/status.h"

namespace biorank {

/// Identity of a reduced query graph up to node relabeling.
///
/// `repr` is a full canonical serialization (topology + exact probability
/// bit patterns + source/target roles), so equal reprs imply genuinely
/// identical probabilistic graphs — a cache keyed on `repr` can never
/// return the reliability of a *different* graph. Isomorphic graphs map
/// to the same repr whenever the canonical labeling search converges
/// (always, within the search's leaf budget of 64 candidate labelings;
/// past it only the first branch per ambiguous class is kept, which stays
/// deterministic and collision-free). A missed identification only costs
/// a cache miss, never a wrong value. Reduced evidence graphs are tiny,
/// so the budget is effectively never reached on real workloads.
struct CanonicalKey {
  std::string repr;  ///< Canonical serialization; equality = same graph.
  uint64_t hash = 0; ///< FNV-1a of repr: shard selector and MC stream id.
};

/// Options for canonicalization. The reduction rules (all of Section
/// 3.1) and the labeling search's leaf budget are fixed: the canonical
/// bytes are a cache, snapshot and MC-stream key, so they may not vary
/// per caller.
struct CanonicalizeOptions {
  /// Record which original-graph nodes and edges the candidate's
  /// *pre-reduction* restricted subgraph contains (the ingest layer's
  /// dependency index consumes this). Off by default: provenance does not
  /// affect the key, and pure serving callers should not pay for it.
  bool collect_provenance = false;
};

/// The original-graph footprint of one candidate: every node and alive
/// edge of the restricted (pre-reduction) evidence subgraph, by the ids
/// of the *request's* graph. An evidence update can change the
/// candidate's canonical key only if it touches this set (or adds an
/// edge from which the target becomes newly reachable — the one growth
/// case, handled by ingest/dependency_index's AddEdge rule).
struct CandidateProvenance {
  std::vector<NodeId> nodes;  ///< Ascending original node ids.
  std::vector<EdgeId> edges;  ///< Ascending original edge ids.
};

/// One answer node's cacheable resolution unit: the canonical form of its
/// reduced evidence subgraph.
struct CanonicalCandidate {
  CanonicalKey key;
  /// The reduced subgraph rebuilt in canonical node order with
  /// `answers = {target}`. Every isomorphic input yields this exact
  /// graph (bit-identical probabilities, same node numbering), so any
  /// computation run on it — bounds, factoring, seeded Monte Carlo — is
  /// a pure function of `key`. Labels and entity sets are dropped; they
  /// do not affect reliability.
  QueryGraph canonical;
  /// The canonical id of the answer node (== canonical.answers[0]).
  NodeId target = kInvalidNode;
  /// Original-graph footprint; populated only when
  /// CanonicalizeOptions::collect_provenance is set.
  CandidateProvenance provenance;
};

/// Reusable working memory of one canonicalizing thread. Every array in
/// it is sized by the largest request graph or answer footprint seen so
/// far and is never cleared per answer (membership marks are
/// epoch-stamped), so canonicalizing an answer allocates only its result.
/// Not thread-safe: one scratch per concurrently running thread.
class CanonicalScratch {
 public:
  CanonicalScratch();
  ~CanonicalScratch();
  CanonicalScratch(const CanonicalScratch&) = delete;
  CanonicalScratch& operator=(const CanonicalScratch&) = delete;

 private:
  friend class CanonicalRequest;
  struct Arrays;
  std::unique_ptr<Arrays> arrays_;
};

/// One request's canonicalization context: the query graph validated
/// once, and forward reach from its source computed once over the
/// request's flat snapshot. Canonicalize() is then the per-answer half,
/// sized by that answer's footprint rather than by the graph, and may run
/// concurrently from many threads (each with its own scratch).
///
/// Per answer t it
///   1. restricts to the evidence subgraph Reach(source) ∩ CoReach(t)
///      (plus the source and t): a backward BFS from t pruned to
///      reach-marked nodes, which visits exactly that set;
///   2. applies the Section 3.1 reductions with only the source and t
///      protected (other answers are ordinary interior nodes, which is
///      what lets distinct tuples share a canonical form);
///   3. computes the canonical labeling and rebuilds the reduced graph in
///      canonical order.
///
/// The output is byte-identical to RestrictToQueryRelevantSubgraph ->
/// ReduceQueryGraph -> CanonicalQueryGraphKey on the pointer graph (the
/// differential suite's reference). The bytes that contract rests on:
/// nodes are numbered by ascending original id; each node's out-edges
/// enumerate in ascending original EdgeId with serial-collapse bypass
/// edges appended in creation order; a parallel merge multiplies
/// 1 - Π(1 - q) in that out-list order into the first edge; a serial
/// collapse of x computes q(y,x) * p(x) * q(x,z); collapses run in
/// ascending node order within each pass; and probabilities are clamped
/// to [0,1] exactly where ProbabilisticEntityGraph clamps them.
class CanonicalRequest {
 public:
  /// Validates `query_graph` and computes forward reach from its source.
  /// `graph_csr` must be an unmasked snapshot of `query_graph.graph`
  /// (core/csr_snapshot.h). Both are borrowed and must outlive the
  /// request.
  static Result<CanonicalRequest> Prepare(const QueryGraph& query_graph,
                                          const CsrSnapshot& graph_csr);

  /// Canonicalizes answer `target`. Fails if `target` is not one of the
  /// query graph's answers.
  Result<CanonicalCandidate> Canonicalize(NodeId target,
                                          const CanonicalizeOptions& options,
                                          CanonicalScratch& scratch) const;

 private:
  CanonicalRequest(const QueryGraph& query_graph, const CsrSnapshot& csr)
      : query_graph_(&query_graph), csr_(&csr) {}

  const QueryGraph* query_graph_;
  const CsrSnapshot* csr_;
  uint32_t source_ = kCsrInvalid;  ///< Dense id of the source.
  /// Per dense node: bit 0 = reachable from the source, bit 1 = answer.
  std::vector<uint8_t> flags_;
};

/// Canonicalizes one answer of `query_graph`: a CanonicalRequest over a
/// fresh snapshot, with a fresh scratch. Callers canonicalizing many
/// answers of one graph go through CanonicalRequest (or the serving
/// fan-out, RankingService::CanonicalizeTargets) instead.
Result<CanonicalCandidate> CanonicalizeCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options = {});

/// Canonical key of a query graph as-is (no restriction, no reduction).
/// The graph must validate; all answers are marked with the target role.
Result<CanonicalKey> CanonicalQueryGraphKey(const QueryGraph& query_graph);

/// FNV-1a 64-bit hash, exposed for tests and the cache's shard selector.
uint64_t Fnv1a64(const std::string& text);

}  // namespace biorank

#endif  // BIORANK_CORE_CANONICAL_H_
