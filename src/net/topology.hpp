// The TSSDN under construction: Gt (a subgraph of Gc) plus the ASIL
// allocation of its switches. Link ASIL is derived as the minimum ASIL of
// the two adjacent nodes (end stations count as ASIL-D), the invariant that
// lets the failure analyzer check switch failures only (Section V).
//
// Construction is monotone, mirroring the paper's action design: switches
// are added (at ASIL-A) or upgraded, paths/links are added; nothing is ever
// removed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/paths.hpp"
#include "net/failure.hpp"
#include "net/problem.hpp"
#include "util/checkpoint.hpp"

namespace nptsn {

// 128-bit order-independent fingerprint of a link set (plus the edge count
// as a structural cross-check). Each edge contributes two independently
// mixed 64-bit values combined by wrapping addition, so the fingerprint is
// a commutative sum: it can be maintained incrementally as links are added
// and a residual graph's fingerprint is the full graph's minus the removed
// edges' contributions. The verification engine uses it as cache identity
// for NBF verdicts on a safety-verification path — 64 bits of structured
// FNV-1a were judged too collision-prone for that (see REVIEW history);
// 2x splitmix64 plus the edge count is.
struct GraphFp {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t edges = 0;

  void add(const GraphFp& o) {
    a += o.a;
    b += o.b;
    edges += o.edges;
  }
  void subtract(const GraphFp& o) {
    a -= o.a;
    b -= o.b;
    edges -= o.edges;
  }
  friend auto operator<=>(const GraphFp&, const GraphFp&) = default;
};

// Fingerprint of a graph's current edge set, computed from scratch. The
// incremental bookkeeping in Topology must agree with this at all times
// (property-tested in tests/net/topology_test.cpp).
GraphFp graph_fp_of(const Graph& g);

// A Topology keeps a pointer to its PlanningProblem, not a copy: the problem
// must outlive the topology and every copy of it (PlanningResult::best
// included). Using one after its problem is destroyed reads freed memory.
class Topology {
 public:
  // Starts as the empty TSSDN: all end stations, no switches, no links.
  explicit Topology(const PlanningProblem& problem);

  const PlanningProblem& problem() const { return *problem_; }

  // --- switches -----------------------------------------------------------
  bool has_switch(NodeId v) const;
  Asil switch_asil(NodeId v) const;  // requires has_switch(v)
  // Adds a new optional switch at ASIL-A; requires !has_switch(v).
  void add_switch(NodeId v);
  // One-level upgrade; requires has_switch(v) and level < D.
  void upgrade_switch(NodeId v);
  std::vector<NodeId> selected_switches() const;

  // --- links / paths ------------------------------------------------------
  // Adds a Gc link; both endpoints must be present (switch endpoints must
  // have been added). Idempotent. Enforces the degree constraints.
  void add_link(NodeId u, NodeId v);
  bool has_link(NodeId u, NodeId v) const;
  // Adds every link along the path (endpoints are end stations or present
  // switches). The combined result must respect the degree constraints.
  void add_path(const Path& path);

  // Degree a node would have if the path were added; used to pre-check the
  // constraints without mutating (SOAG mask computation, Alg. 1 line 9).
  bool path_respects_degrees(const Path& path) const;

  // --- derived properties ---------------------------------------------------
  int degree(NodeId v) const;
  // ASIL of a node: switch allocation, or D for end stations.
  Asil node_asil(NodeId v) const;
  // ASIL of an existing link: min of the endpoint levels.
  Asil link_asil(NodeId u, NodeId v) const;

  // Eq. 1 network cost under the problem's component library.
  double cost() const;

  // Current Gt over the full node id space (absent switches are isolated).
  const Graph& graph() const { return gt_; }

  // Order-independent fingerprint of Gt's link set. The recovery NBF is a
  // pure function of the residual graph — it never reads the ASIL
  // allocation — so two topologies with equal fingerprints produce
  // identical NBF results for every failure scenario. ASIL-upgrade actions
  // leave it unchanged. Maintained eagerly by add_link (no lazy mutable
  // cache: concurrent reads of a shared const Topology are safe).
  GraphFp graph_fingerprint() const { return fp_; }

  // Fingerprint of residual(scenario)'s edge set: graph_fingerprint() minus
  // the contributions of every link incident to a failed node (and of the
  // explicitly failed links). O(sum of failed-node degrees). Together with
  // the failed-node set this is exact cache identity for the NBF's input —
  // the verification engine keys its cross-step verdict memo on the pair.
  GraphFp residual_fingerprint(const FailureScenario& scenario) const;

  // Gt minus the failed components — the graph the recovery NBF routes on.
  Graph residual(const FailureScenario& scenario) const;

 private:
  const PlanningProblem* problem_;
  Graph gt_;
  std::vector<std::optional<Asil>> switch_level_;  // indexed by node id
  GraphFp fp_;
  int max_degree_of(NodeId v) const;
};

// Checkpoint serialization. A topology is stored as its switch allocation
// plus its link set — everything else is derived from the problem, which is
// not persisted: load_topology rebuilds against the caller-supplied problem
// and throws (via the Topology invariants / CheckpointError) when the
// serialized ids do not fit it.
void save_topology(const Topology& topology, ByteWriter& out);
Topology load_topology(const PlanningProblem& problem, ByteReader& in);

}  // namespace nptsn
