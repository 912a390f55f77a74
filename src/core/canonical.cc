#include "core/canonical.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <vector>

#include "util/rng.h"

namespace biorank {

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 14695981039346656037ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// The clamp ProbabilisticEntityGraph applies in AddEdge/SetEdgeProb.
double ClampProb(double p) { return std::min(1.0, std::max(0.0, p)); }

/// Order-sensitive 64-bit combine built on SplitMix64. Colors are only an
/// ordering device — the canonical repr is a full serialization — so a
/// hash collision can cost a cache miss but never a wrong key.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  return SplitMix64Next(state);
}

constexpr uint8_t kRoleSource = 1;
constexpr uint8_t kRoleTarget = 2;

/// CanonicalRequest::flags_ bits.
constexpr uint8_t kReach = 1;
constexpr uint8_t kAnswer = 2;

/// Candidate labelings the individualization search explores before it
/// keeps only the first branch per ambiguous class.
constexpr int kMaxLabelLeaves = 64;

/// One answer's restricted evidence subgraph, mutated in place by the
/// Section 3.1 reductions. Nodes are numbered by ascending original id.
/// Adjacency lists are intrusive singly linked lists in insertion order,
/// and removal tombstones, as in ProbabilisticEntityGraph: parallel edges
/// of one pair enumerate in ascending original EdgeId with bypass edges
/// appended, which is all the reductions' arithmetic can observe.
struct WorkGraph {
  struct Node {
    double p = 1.0;
    int32_t out_head = -1, out_tail = -1, in_head = -1, in_tail = -1;
    int32_t out_degree = 0, in_degree = 0;  ///< Alive edges only.
    bool alive = true;
    bool is_protected = false;
    // Parallel-merge grouping, valid while group_epoch matches.
    uint32_t group_epoch = 0;
    int32_t group_first = -1;
    int32_t group_size = 0;
    double group_fail = 1.0;
  };
  struct Edge {
    int32_t from = 0, to = 0;
    int32_t next_out = -1, next_in = -1;
    double q = 0.0;
    bool alive = true;
  };

  std::vector<Node> nodes;
  std::vector<Edge> edges;
  uint32_t group_epoch = 0;  ///< Bumped per parallel-merge source node.

  void Clear() {
    nodes.clear();
    edges.clear();
    group_epoch = 0;
  }

  void AddNode(double p, bool is_protected) {
    Node node;
    node.p = p;
    node.is_protected = is_protected;
    nodes.push_back(node);
  }

  void AddEdge(int32_t from, int32_t to, double q) {
    const int32_t id = static_cast<int32_t>(edges.size());
    Edge edge;
    edge.from = from;
    edge.to = to;
    edge.q = q;
    edges.push_back(edge);
    Node& f = nodes[static_cast<size_t>(from)];
    if (f.out_tail < 0) {
      f.out_head = id;
    } else {
      edges[static_cast<size_t>(f.out_tail)].next_out = id;
    }
    f.out_tail = id;
    ++f.out_degree;
    Node& t = nodes[static_cast<size_t>(to)];
    if (t.in_tail < 0) {
      t.in_head = id;
    } else {
      edges[static_cast<size_t>(t.in_tail)].next_in = id;
    }
    t.in_tail = id;
    ++t.in_degree;
  }

  void RemoveEdge(int32_t e) {
    Edge& edge = edges[static_cast<size_t>(e)];
    if (!edge.alive) return;
    edge.alive = false;
    --nodes[static_cast<size_t>(edge.from)].out_degree;
    --nodes[static_cast<size_t>(edge.to)].in_degree;
  }

  void RemoveNode(int32_t x) {
    Node& node = nodes[static_cast<size_t>(x)];
    for (int32_t e = node.out_head; e >= 0;
         e = edges[static_cast<size_t>(e)].next_out) {
      RemoveEdge(e);
    }
    for (int32_t e = node.in_head; e >= 0;
         e = edges[static_cast<size_t>(e)].next_in) {
      RemoveEdge(e);
    }
    node.alive = false;
  }

  int32_t FirstAliveOut(int32_t x) const {
    int32_t e = nodes[static_cast<size_t>(x)].out_head;
    while (!edges[static_cast<size_t>(e)].alive) {
      e = edges[static_cast<size_t>(e)].next_out;
    }
    return e;
  }

  int32_t FirstAliveIn(int32_t x) const {
    int32_t e = nodes[static_cast<size_t>(x)].in_head;
    while (!edges[static_cast<size_t>(e)].alive) {
      e = edges[static_cast<size_t>(e)].next_in;
    }
    return e;
  }
};

/// One pass of every Section 3.1 rule, in ReduceQueryGraph's order and
/// with its arithmetic (core/reduction.cc is the reference). Returns true
/// if anything changed.
bool ReductionPass(WorkGraph& g) {
  bool changed = false;
  const int32_t n = static_cast<int32_t>(g.nodes.size());

  // Self-loops never affect reachability.
  for (size_t e = 0; e < g.edges.size(); ++e) {
    if (g.edges[e].alive && g.edges[e].from == g.edges[e].to) {
      g.RemoveEdge(static_cast<int32_t>(e));
      changed = true;
    }
  }

  // Parallel merge: fold each group into its first edge, multiplying
  // 1 - q in out-list order.
  for (int32_t x = 0; x < n; ++x) {
    if (!g.nodes[static_cast<size_t>(x)].alive) continue;
    const uint32_t group_epoch = ++g.group_epoch;
    bool merged = false;
    for (int32_t e = g.nodes[static_cast<size_t>(x)].out_head; e >= 0;
         e = g.edges[static_cast<size_t>(e)].next_out) {
      const WorkGraph::Edge& edge = g.edges[static_cast<size_t>(e)];
      if (!edge.alive) continue;
      WorkGraph::Node& to = g.nodes[static_cast<size_t>(edge.to)];
      if (to.group_epoch != group_epoch) {
        to.group_epoch = group_epoch;
        to.group_first = e;
        to.group_size = 1;
        to.group_fail = 1.0;
        to.group_fail *= 1.0 - edge.q;
      } else {
        to.group_fail *= 1.0 - edge.q;
        ++to.group_size;
        g.RemoveEdge(e);
        merged = true;
      }
    }
    if (!merged) continue;
    changed = true;
    for (int32_t e = g.nodes[static_cast<size_t>(x)].out_head; e >= 0;
         e = g.edges[static_cast<size_t>(e)].next_out) {
      WorkGraph::Edge& edge = g.edges[static_cast<size_t>(e)];
      const WorkGraph::Node& to = g.nodes[static_cast<size_t>(edge.to)];
      if (edge.alive && to.group_first == e && to.group_size >= 2) {
        edge.q = ClampProb(1.0 - to.group_fail);
      }
    }
  }

  // Serial collapse of 1-in/1-out interior nodes, in ascending order.
  for (int32_t x = 0; x < n; ++x) {
    const WorkGraph::Node& node = g.nodes[static_cast<size_t>(x)];
    if (!node.alive || node.is_protected || node.in_degree != 1 ||
        node.out_degree != 1) {
      continue;
    }
    const WorkGraph::Edge& in = g.edges[static_cast<size_t>(g.FirstAliveIn(x))];
    const WorkGraph::Edge& out =
        g.edges[static_cast<size_t>(g.FirstAliveOut(x))];
    const int32_t y = in.from;
    const int32_t z = out.to;
    if (y == x || z == x) continue;
    const double q = in.q * node.p * out.q;
    g.RemoveNode(x);
    if (y != z) g.AddEdge(y, z, ClampProb(q));
    changed = true;
  }

  // Unprotected sinks, then unprotected orphans, each to a fixpoint.
  for (bool sinks : {true, false}) {
    bool removed = true;
    while (removed) {
      removed = false;
      for (int32_t x = 0; x < n; ++x) {
        const WorkGraph::Node& node = g.nodes[static_cast<size_t>(x)];
        if (!node.alive || node.is_protected) continue;
        if ((sinks ? node.out_degree : node.in_degree) == 0) {
          g.RemoveNode(x);
          removed = true;
          changed = true;
        }
      }
    }
  }
  return changed;
}

/// Dense, label-free graph the canonical labeling runs on, with CSR
/// adjacency over edge indices.
struct LabelGraph {
  std::vector<uint64_t> p_bits;
  std::vector<uint8_t> role;
  struct Edge {
    int32_t from = 0;
    int32_t to = 0;
    uint64_t q_bits = 0;
    /// The serialization order of edges.
    bool operator<(const Edge& o) const {
      if (from != o.from) return from < o.from;
      if (to != o.to) return to < o.to;
      return q_bits < o.q_bits;
    }
  };
  std::vector<Edge> edges;
  std::vector<int32_t> out_offset, out_edge, in_offset, in_edge;

  int32_t n() const { return static_cast<int32_t>(p_bits.size()); }

  void Clear() {
    p_bits.clear();
    role.clear();
    edges.clear();
  }

  /// Packs the adjacency once every node and edge is in.
  void Finish() {
    Bucket(/*by_from=*/true, out_offset, out_edge);
    Bucket(/*by_from=*/false, in_offset, in_edge);
  }

  /// Counting sort of edge indices by one endpoint into CSR form.
  void Bucket(bool by_from, std::vector<int32_t>& offset,
              std::vector<int32_t>& slots) const {
    offset.assign(p_bits.size() + 2, 0);
    for (const Edge& e : edges) {
      ++offset[static_cast<size_t>(by_from ? e.from : e.to) + 2];
    }
    for (size_t i = 2; i < offset.size(); ++i) offset[i] += offset[i - 1];
    slots.resize(edges.size());
    for (size_t i = 0; i < edges.size(); ++i) {
      const int32_t v = by_from ? edges[i].from : edges[i].to;
      slots[static_cast<size_t>(offset[static_cast<size_t>(v) + 1]++)] =
          static_cast<int32_t>(i);
    }
    offset.pop_back();
  }
};

/// Working memory of the labeling search. Colors and ambiguous classes
/// are stacked by search depth, `n` entries per level.
struct Labeler {
  std::vector<uint64_t> colors;
  std::vector<int32_t> ambiguous;
  std::vector<uint64_t> next;
  std::vector<uint64_t> sorted;
  std::vector<uint64_t> signature;
  std::vector<int32_t> order;
  std::vector<int32_t> position;
  std::vector<int32_t> best_position;
  std::vector<LabelGraph::Edge> tuples;  ///< Edges renumbered by position.
  std::string repr;
  std::string best;
  int leaves_left = 0;
};

int CountClasses(const uint64_t* colors, int32_t n,
                 std::vector<uint64_t>& sorted) {
  sorted.assign(colors, colors + n);
  std::sort(sorted.begin(), sorted.end());
  return static_cast<int>(std::unique(sorted.begin(), sorted.end()) -
                          sorted.begin());
}

/// Folds the sorted (edge q, neighbor color) signatures of `node`'s out-
/// or in-edges into `h`.
uint64_t FoldNeighbors(const LabelGraph& g, const uint64_t* colors,
                       const std::vector<int32_t>& offset,
                       const std::vector<int32_t>& slots, size_t node,
                       bool out, uint64_t h, Labeler& l) {
  l.signature.clear();
  for (int32_t k = offset[node]; k < offset[node + 1]; ++k) {
    const LabelGraph::Edge& e =
        g.edges[static_cast<size_t>(slots[static_cast<size_t>(k)])];
    l.signature.push_back(Mix(e.q_bits, colors[out ? e.to : e.from]));
  }
  std::sort(l.signature.begin(), l.signature.end());
  for (uint64_t s : l.signature) h = Mix(h, s);
  return h;
}

/// Weisfeiler-Lehman color refinement of the colors at `depth`: each
/// round folds the sorted multisets of (edge q, neighbor color)
/// signatures — out- and in-edges separately — into every node's color,
/// until the partition stops splitting.
void Refine(const LabelGraph& g, Labeler& l, size_t depth) {
  const int32_t n = g.n();
  uint64_t* colors = l.colors.data() + depth * static_cast<size_t>(n);
  int classes = CountClasses(colors, n, l.sorted);
  l.next.resize(static_cast<size_t>(n));
  for (int32_t round = 0; round < n; ++round) {
    for (int32_t i = 0; i < n; ++i) {
      const size_t node = static_cast<size_t>(i);
      uint64_t h = Mix(colors[i], 0xA1);
      h = FoldNeighbors(g, colors, g.out_offset, g.out_edge, node, true, h, l);
      h = Mix(h, 0xB2);
      h = FoldNeighbors(g, colors, g.in_offset, g.in_edge, node, false, h, l);
      l.next[node] = h;
    }
    std::copy(l.next.begin(), l.next.end(), colors);
    const int next_classes = CountClasses(colors, n, l.sorted);
    if (next_classes == classes) break;  // Partition stable: fixpoint.
    classes = next_classes;
  }
}

/// Sorts node indices by color into `l.order`.
void OrderByColor(const uint64_t* colors, int32_t n, Labeler& l) {
  l.order.resize(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) l.order[static_cast<size_t>(i)] = i;
  std::sort(l.order.begin(), l.order.end(),
            [&](int32_t a, int32_t b) { return colors[a] < colors[b]; });
}

/// Edge tuples under `position`, sorted into the serialization order.
void SortedTuples(const LabelGraph& g, const std::vector<int32_t>& position,
                  Labeler& l) {
  l.tuples.clear();
  for (const LabelGraph::Edge& e : g.edges) {
    l.tuples.push_back({position[static_cast<size_t>(e.from)],
                        position[static_cast<size_t>(e.to)], e.q_bits});
  }
  std::sort(l.tuples.begin(), l.tuples.end());
}

void AppendInt(std::string& out, int64_t value) {
  char buffer[24];
  const std::to_chars_result r =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, r.ptr);
}

void AppendHex(std::string& out, uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buffer[16];
  for (int i = 15; i >= 0; --i) {
    buffer[i] = kDigits[value & 0xF];
    value >>= 4;
  }
  out.append(buffer, sizeof(buffer));
}

/// Serializes the graph under the total node order induced by discrete
/// colors into `l.repr`, with the node -> position map in `l.position`.
/// Equal strings imply identical labeled probabilistic graphs.
void SerializeOrdered(const LabelGraph& g, const uint64_t* colors,
                      Labeler& l) {
  const int32_t n = g.n();
  OrderByColor(colors, n, l);
  l.position.resize(static_cast<size_t>(n));
  for (int32_t pos = 0; pos < n; ++pos) {
    l.position[static_cast<size_t>(l.order[static_cast<size_t>(pos)])] = pos;
  }
  std::string& out = l.repr;
  out.clear();
  out += "g ";
  AppendInt(out, n);
  out += ' ';
  AppendInt(out, static_cast<int64_t>(g.edges.size()));
  out += '\n';
  for (int32_t pos = 0; pos < n; ++pos) {
    const size_t node = static_cast<size_t>(l.order[static_cast<size_t>(pos)]);
    out += "v ";
    AppendInt(out, pos);
    out += ' ';
    AppendHex(out, g.p_bits[node]);
    out += ' ';
    AppendInt(out, g.role[node]);
    out += '\n';
  }
  SortedTuples(g, l.position, l);
  for (const LabelGraph::Edge& t : l.tuples) {
    out += "e ";
    AppendInt(out, t.from);
    out += ' ';
    AppendInt(out, t.to);
    out += ' ';
    AppendHex(out, t.q_bits);
    out += '\n';
  }
}

/// Individualization-refinement search for the lexicographically smallest
/// serialization, from the colors at `depth`. Within the leaf budget
/// every member of the first ambiguous color class is tried, which makes
/// the result a true canonical form; past the budget only the first
/// branch is kept (still deterministic, possibly non-canonical — a
/// cache-hit-rate concern, not a correctness one).
void Search(const LabelGraph& g, Labeler& l, size_t depth) {
  const size_t n = static_cast<size_t>(g.n());
  Refine(g, l, depth);
  const uint64_t* colors = l.colors.data() + depth * n;
  // The ambiguous class with the smallest color value, by node index.
  OrderByColor(colors, g.n(), l);
  if (l.ambiguous.size() < (depth + 1) * n) l.ambiguous.resize((depth + 1) * n);
  int32_t* ambiguous = l.ambiguous.data() + depth * n;
  size_t ambiguous_size = 0;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && colors[l.order[j]] == colors[l.order[i]]) ++j;
    if (j - i > 1) {
      std::copy(l.order.begin() + static_cast<long>(i),
                l.order.begin() + static_cast<long>(j), ambiguous);
      ambiguous_size = j - i;
      break;
    }
    i = j;
  }
  if (ambiguous_size == 0) {
    SerializeOrdered(g, colors, l);
    --l.leaves_left;
    if (l.best.empty() || l.repr < l.best) {
      l.best.swap(l.repr);
      l.best_position.swap(l.position);
    }
    return;
  }
  std::sort(ambiguous, ambiguous + ambiguous_size);
  for (size_t k = 0; k < ambiguous_size; ++k) {
    if (k > 0 && l.leaves_left <= 0) break;
    // Re-derive pointers: the recursion may have grown the stacks.
    if (l.colors.size() < (depth + 2) * n) l.colors.resize((depth + 2) * n);
    uint64_t* level = l.colors.data() + depth * n;
    std::copy(level, level + n, level + n);
    const size_t node =
        static_cast<size_t>(l.ambiguous[depth * n + k]);
    level[n + node] = Mix(level[n + node], 0xC3);
    Search(g, l, depth + 1);
  }
}

/// Canonical labeling of `g`: the smallest serialization in `l.best` and
/// its node -> canonical-position map in `l.best_position`.
void Label(const LabelGraph& g, Labeler& l) {
  const size_t n = static_cast<size_t>(g.n());
  if (l.colors.size() < n) l.colors.resize(n);
  for (size_t i = 0; i < n; ++i) l.colors[i] = Mix(g.p_bits[i], g.role[i]);
  l.best.clear();
  l.leaves_left = kMaxLabelLeaves;
  Search(g, l, 0);
}

CanonicalKey KeyOf(const Labeler& l) {
  CanonicalKey key;
  key.repr = l.best;
  key.hash = Fnv1a64(key.repr);
  return key;
}

/// One induced edge of a footprint: in-CSR slot `index` of node `to`.
struct InSlot {
  uint32_t index;
  uint32_t to;
};

}  // namespace

struct CanonicalScratch::Arrays {
  /// Request-sized, never cleared: stamp[d] == epoch marks dense node d
  /// as part of the current answer's footprint, and local[d] is then its
  /// WorkGraph index.
  std::vector<uint32_t> stamp;
  std::vector<uint32_t> local;
  uint32_t epoch = 0;
  /// Footprint-sized.
  std::vector<uint32_t> footprint;
  std::vector<InSlot> in_slots;  ///< The footprint's induced edges.
  std::vector<uint32_t> stack;
  std::vector<int32_t> label_index;  ///< WorkGraph index -> LabelGraph index.
  WorkGraph work;
  LabelGraph label;
  Labeler labeler;

  /// Starts a new answer on a graph of `n` dense nodes.
  uint32_t NextEpoch(uint32_t n) {
    if (stamp.size() < n) {
      stamp.resize(n, 0);
      local.resize(n);
    }
    if (++epoch == 0) {  // Wrapped: old stamps could alias.
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    return epoch;
  }
};

CanonicalScratch::CanonicalScratch() : arrays_(std::make_unique<Arrays>()) {}
CanonicalScratch::~CanonicalScratch() = default;

Result<CanonicalRequest> CanonicalRequest::Prepare(
    const QueryGraph& query_graph, const CsrSnapshot& graph_csr) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  if (graph_csr.orig_capacity() != graph.node_capacity() ||
      graph_csr.num_nodes() != static_cast<uint32_t>(graph.num_nodes()) ||
      graph_csr.num_edges() != static_cast<uint32_t>(graph.num_edges())) {
    return Status::InvalidArgument(
        "canonical: snapshot is not an unmasked snapshot of the query graph");
  }
  CanonicalRequest request(query_graph, graph_csr);
  request.source_ =
      graph_csr.dense_id[static_cast<size_t>(query_graph.source)];
  request.flags_ = ReachableMask(graph_csr, request.source_);
  for (NodeId answer : query_graph.answers) {
    request.flags_[graph_csr.dense_id[static_cast<size_t>(answer)]] |=
        kAnswer;
  }
  return request;
}

Result<CanonicalCandidate> CanonicalRequest::Canonicalize(
    NodeId target, const CanonicalizeOptions& options,
    CanonicalScratch& scratch) const {
  const CsrSnapshot& csr = *csr_;
  const uint32_t t = target >= 0 && target < csr.orig_capacity()
                         ? csr.dense_id[static_cast<size_t>(target)]
                         : kCsrInvalid;
  if (t == kCsrInvalid || (flags_[t] & kAnswer) == 0) {
    return Status::InvalidArgument(
        "canonical: target is not an answer node of the query graph");
  }
  CanonicalScratch::Arrays& a = *scratch.arrays_;

  // Restrict: Reach(source) ∩ CoReach(t) is exactly what a backward BFS
  // from t visits when it only enters reach-marked nodes (every node on a
  // path from a reachable node is reachable). The in-edges it scans from
  // reach-marked nodes are then exactly the induced edges, so the work is
  // the footprint's in-degree, not the graph's size.
  const uint32_t epoch = a.NextEpoch(csr.num_nodes());
  a.footprint.clear();
  a.in_slots.clear();
  a.stack.clear();
  a.stamp[t] = epoch;
  a.footprint.push_back(t);
  a.stack.push_back(t);
  while (!a.stack.empty()) {
    const uint32_t x = a.stack.back();
    a.stack.pop_back();
    for (uint32_t i = csr.in_offset[x]; i < csr.in_offset[x + 1]; ++i) {
      const uint32_t y = csr.in_from[i];
      if ((flags_[y] & kReach) == 0) continue;
      a.in_slots.push_back({i, x});
      if (a.stamp[y] != epoch) {
        a.stamp[y] = epoch;
        a.footprint.push_back(y);
        a.stack.push_back(y);
      }
    }
  }
  if (a.stamp[source_] != epoch) {
    // t is unreachable (so no in-neighbor of it is): the footprint is
    // {source, t}, with whatever edges run between the two.
    a.stamp[source_] = epoch;
    a.footprint.push_back(source_);
    for (uint32_t x : {t, source_}) {
      for (uint32_t i = csr.in_offset[x]; i < csr.in_offset[x + 1]; ++i) {
        if (a.stamp[csr.in_from[i]] == epoch) a.in_slots.push_back({i, x});
      }
    }
  }
  // Dense ids ascend with original ids: this is the pointer path's
  // InducedSubgraph numbering.
  std::sort(a.footprint.begin(), a.footprint.end());

  // Each in-segment ascends by EdgeId, so parallel edges between one pair
  // enter the work graph in their pointer-graph out-list order; the order
  // across different pairs never reaches the output.
  WorkGraph& work = a.work;
  work.Clear();
  for (size_t i = 0; i < a.footprint.size(); ++i) {
    const uint32_t d = a.footprint[i];
    a.local[d] = static_cast<uint32_t>(i);
    work.AddNode(csr.node_p[d], d == source_ || d == t);
  }
  for (const InSlot& slot : a.in_slots) {
    work.AddEdge(static_cast<int32_t>(a.local[csr.in_from[slot.index]]),
                 static_cast<int32_t>(a.local[slot.to]), csr.in_q[slot.index]);
  }

  CanonicalCandidate out;
  if (options.collect_provenance) {
    const ProbabilisticEntityGraph& graph = query_graph_->graph;
    out.provenance.nodes.reserve(a.footprint.size());
    for (uint32_t d : a.footprint) {
      const NodeId id = csr.orig_id[d];
      out.provenance.nodes.push_back(id);
      graph.ForEachInEdge(id, [&](EdgeId e) {
        const uint32_t from =
            csr.dense_id[static_cast<size_t>(graph.edge(e).from)];
        if (a.stamp[from] == epoch) out.provenance.edges.push_back(e);
      });
    }
    std::sort(out.provenance.edges.begin(), out.provenance.edges.end());
  }

  while (ReductionPass(work)) {
  }

  // Label the reduced graph: surviving nodes in ascending order.
  LabelGraph& label = a.label;
  label.Clear();
  a.label_index.resize(work.nodes.size());
  for (size_t i = 0; i < work.nodes.size(); ++i) {
    const WorkGraph::Node& node = work.nodes[i];
    if (!node.alive) continue;
    a.label_index[i] = label.n();
    label.p_bits.push_back(DoubleBits(node.p));
    const uint32_t d = a.footprint[i];
    label.role.push_back(d == source_ ? kRoleSource
                                      : d == t ? kRoleTarget : uint8_t{0});
  }
  for (const WorkGraph::Edge& edge : work.edges) {
    if (!edge.alive) continue;
    label.edges.push_back({a.label_index[static_cast<size_t>(edge.from)],
                           a.label_index[static_cast<size_t>(edge.to)],
                           DoubleBits(edge.q)});
  }
  label.Finish();
  Labeler& l = a.labeler;
  Label(label, l);
  out.key = KeyOf(l);

  // Rebuild the reduced graph in canonical order so every isomorphic
  // input produces this exact graph (same numbering, same probability
  // bits) and downstream computations become pure functions of the key.
  const int32_t n = label.n();
  l.order.resize(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    l.order[static_cast<size_t>(l.best_position[static_cast<size_t>(i)])] = i;
  }
  for (int32_t pos = 0; pos < n; ++pos) {
    const size_t node = static_cast<size_t>(l.order[static_cast<size_t>(pos)]);
    const NodeId id = out.canonical.graph.AddNode(BitsDouble(label.p_bits[node]));
    if (label.role[node] & kRoleSource) out.canonical.source = id;
    if (label.role[node] & kRoleTarget) out.canonical.answers.push_back(id);
  }
  SortedTuples(label, l.best_position, l);
  for (const LabelGraph::Edge& e : l.tuples) {
    out.canonical.graph.AddEdge(e.from, e.to, BitsDouble(e.q_bits)).value();
  }
  out.target = out.canonical.answers[0];
  return out;
}

Result<CanonicalCandidate> CanonicalizeCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options) {
  const CsrSnapshot csr = BuildCsrSnapshot(query_graph.graph);
  Result<CanonicalRequest> request = CanonicalRequest::Prepare(query_graph, csr);
  if (!request.ok()) return request.status();
  CanonicalScratch scratch;
  return request.value().Canonicalize(target, options, scratch);
}

Result<CanonicalKey> CanonicalQueryGraphKey(const QueryGraph& query_graph) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  LabelGraph label;
  std::vector<int32_t> dense(static_cast<size_t>(graph.node_capacity()), -1);
  for (NodeId id : graph.AliveNodes()) {
    dense[static_cast<size_t>(id)] = label.n();
    label.p_bits.push_back(DoubleBits(graph.node(id).p));
    label.role.push_back(0);
  }
  label.role[static_cast<size_t>(dense[static_cast<size_t>(
      query_graph.source)])] |= kRoleSource;
  for (NodeId t : query_graph.answers) {
    label.role[static_cast<size_t>(dense[static_cast<size_t>(t)])] |=
        kRoleTarget;
  }
  for (EdgeId e : graph.AliveEdges()) {
    const GraphEdge& edge = graph.edge(e);
    label.edges.push_back({dense[static_cast<size_t>(edge.from)],
                           dense[static_cast<size_t>(edge.to)],
                           DoubleBits(edge.q)});
  }
  label.Finish();
  Labeler l;
  Label(label, l);
  return KeyOf(l);
}

}  // namespace biorank
