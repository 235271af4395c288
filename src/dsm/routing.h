// Indoor shortest-path routing over the DSM's door/partition topology.
// Used by the Cleaning layer's location interpolation ("deriving the possible
// locations ... based on the indoor geometrical and topological information
// captured by the DSM", §3) and by the mobility generator substrate.
//
// Queries decompose into point-dependent and graph-only parts: the shortest
// from->to distance is min over (a, b) of |from-a| + D(a, b) + |b-to|, where a
// ranges over the graph nodes of from's partition, b over to's partition, and
// D is the node-to-node shortest-path distance in the static graph. D depends
// only on the source node, so the planner memoizes one Dijkstra tree per
// source node in a bounded LRU shared by FindRoute / IndoorDistance /
// Reachable / IndoorDistances — repeat queries between the same partitions
// (the common case: cleaning gaps of a fleet moving between the same shops)
// skip Dijkstra entirely. Results are identical cached or uncached.
//
// Contraction (CH-lite). The flat graph carries one clique per partition, so
// a hub partition (a corridor lined with shops) contributes O(doors²) edges
// and every Dijkstra pays for them. At Build() the planner additionally
// contracts the graph: nodes that only ever start or end a journey — a
// dead-end shop's door, an overlap portal into a node-less partition — are
// collapsed away, and the surviving *portal* nodes (nodes joining two
// multi-node partitions, or carrying a vertical edge) keep precomputed
// portal-to-portal shortcut edges (the flat clique/vertical edges restricted
// to portals). Queries seed the portal graph from the endpoint partitions'
// local nodes, run Dijkstra over the ~10x smaller shortcut graph, and unpack
// exactly: distances, and the full node path, are identical to the flat
// reference (the per-path floating-point sums associate in the same order,
// and query-time tie-breaking replays the flat Dijkstra's first-writer pop
// order). The flat algorithms stay available as the *Flat methods and
// through RoutePlannerOptions::use_contraction /
// set_contraction_enabled(false) — the same parity idiom as
// spatial_index.h — and tests/routing_contraction_test.cc
// enforces contracted == flat on randomized venues down to byte-identical
// Service output.
//
// Exactness caveat: when a shortest path runs along a wall of exactly
// collinear nodes, the flat Dijkstra may thread an interior (contracted)
// node; the detour's leg sums are exact ties, but they associate the running
// prefix differently, so the folded double can land one ulp away. Measured
// over 43k adversarial wall-hugging queries this affects ~1 in 10^4 of them
// (equal-cost waypoint differences, rarely a 1-ulp distance); every
// committed parity suite is bitwise-exact.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "dsm/dsm.h"
#include "util/result.h"

namespace trips::dsm {

/// Options controlling the route planner.
struct RoutePlannerOptions {
  /// Cost in metres charged for moving one floor via a staircase/elevator.
  double vertical_cost_per_floor = 15.0;
  /// Maximum number of per-source-node shortest-path trees kept per LRU
  /// shard (each tree costs ~12 bytes per graph node; the contracted and
  /// flat query paths memoize into separate shards, so a workload mixing
  /// both — parity suites, benchmarks — holds up to twice this many trees).
  /// 0 disables memoization entirely (every query re-runs Dijkstra) —
  /// parity testing only.
  size_t route_cache_capacity = 1024;
  /// Queries whose source partition carries more graph nodes than this skip
  /// the per-node trees and run one multi-seed Dijkstra instead (a hub
  /// partition like a long corridor would otherwise cost one Dijkstra per
  /// door). The chosen mode depends only on the query and the graph — never
  /// on cache state — so results stay deterministic.
  size_t max_memoized_sources = 8;
  /// Answers queries over the contracted portal graph instead of the flat
  /// clique graph. Results are identical (the parity suite enforces it);
  /// turning this off is for parity testing and before/after benchmarks
  /// only.
  bool use_contraction = true;
};

/// A computed indoor route: the waypoints (start, door midpoints, vertical
/// transitions, end) and the total indoor walking distance.
struct Route {
  std::vector<geo::IndoorPoint> waypoints;
  double distance = 0;
  /// Cost charged per floor crossed at each vertical transition, copied from
  /// the planner that produced the route so PointAtDistance walks the same
  /// metric FindRoute charged.
  double vertical_cost_per_floor = 15.0;

  bool Empty() const { return waypoints.empty(); }

  /// The point reached after walking `d` metres along the route (clamped to
  /// the endpoints). Vertical transitions consume their per-floor cost but
  /// keep the planar position of the connector.
  geo::IndoorPoint PointAtDistance(double d) const;
};

/// Plans shortest walkable paths between indoor points. Builds a static node
/// graph (doors + overlap portals + vertical connectors) from the DSM once,
/// contracts it to the portal-to-portal shortcut graph, then answers queries
/// from memoized per-source-node Dijkstra trees. All query methods are const
/// and thread-safe (the internal cache locks).
class RoutePlanner {
 public:
  /// Builds the routing graph. The DSM's topology must be computed first.
  static Result<RoutePlanner> Build(const Dsm* dsm, RoutePlannerOptions options = {});

  /// Computes the shortest route from `from` to `to`. Fails with NotFound
  /// when either endpoint lies outside every walkable partition or no
  /// connected path exists.
  Result<Route> FindRoute(const geo::IndoorPoint& from, const geo::IndoorPoint& to) const;

  /// Shortest indoor walking distance, or +inf if unreachable/outside.
  double IndoorDistance(const geo::IndoorPoint& from, const geo::IndoorPoint& to) const;

  /// Batch variant: distances from `from` to every point of `tos`, resolving
  /// the source partition and its shortest-path trees once instead of per
  /// target. Element i equals IndoorDistance(from, tos[i]) exactly.
  std::vector<double> IndoorDistances(const geo::IndoorPoint& from,
                                      std::span<const geo::IndoorPoint> tos) const;

  /// True iff a walkable path exists between the two points.
  bool Reachable(const geo::IndoorPoint& from, const geo::IndoorPoint& to) const;

  // ---- flat reference implementations ----
  //
  // The pre-contraction algorithms over the full clique graph. The parity
  // suite checks the contracted query path against these; production code
  // never needs them directly.

  Result<Route> FindRouteFlat(const geo::IndoorPoint& from,
                              const geo::IndoorPoint& to) const;
  double IndoorDistanceFlat(const geo::IndoorPoint& from,
                            const geo::IndoorPoint& to) const;
  std::vector<double> IndoorDistancesFlat(const geo::IndoorPoint& from,
                                          std::span<const geo::IndoorPoint> tos) const;
  bool ReachableFlat(const geo::IndoorPoint& from, const geo::IndoorPoint& to) const;

  /// Disables (or re-enables) the contracted query path at runtime, forcing
  /// queries onto the flat reference. Parity testing and benchmarking only.
  /// Also drops the memoized trees and resets the cache counters. Like any
  /// non-const method (and like Dsm::set_spatial_index_enabled), this
  /// requires external quiescence: don't toggle while other threads are
  /// inside the const query methods.
  void set_contraction_enabled(bool enabled);
  bool contraction_enabled() const { return use_contraction_; }

  /// Number of nodes in the static routing graph (doors + portals + vertical
  /// connector endpoints).
  size_t NodeCount() const { return nodes_.size(); }
  /// Number of portal nodes surviving contraction.
  size_t PortalCount() const { return portal_nodes_.size(); }
  /// Directed edge count of the flat clique graph.
  size_t FlatEdgeCount() const;
  /// Directed shortcut-edge count of the contracted portal graph.
  size_t ContractedEdgeCount() const { return portal_adjacency_.size(); }

  // Cache observability (tests / benches / obs callback gauges).
  size_t cache_hits() const;
  size_t cache_misses() const;
  /// Trees dropped by the LRU capacity bound since the last ClearCache.
  size_t cache_evictions() const;
  size_t cache_size() const;
  /// Drops every memoized tree and resets the hit/miss counters, so
  /// observability starts from a clean slate (benchmark phases, tests).
  void ClearCache() const;

 private:
  struct Node {
    geo::IndoorPoint point;
    // Partitions this node belongs to (a door node belongs to the partitions
    // it connects; a vertical node to its own partition).
    std::vector<EntityId> partitions;
  };
  struct Edge {
    int to;
    double weight;
  };
  // Shortest-path tree from one source node: distance and predecessor per
  // graph node. Immutable once computed; shared out of the cache by pointer.
  struct SourceTree {
    std::vector<double> dist;
    std::vector<int32_t> prev;
  };
  // Shortest-path tree over the contracted portal graph (indexed by portal
  // rank). `prev` is the predecessor portal, or -1 at a seeded root whose
  // entry node is then `seed_node`.
  struct PortalTree {
    std::vector<double> dist;
    std::vector<int32_t> prev;
    std::vector<int32_t> seed_node;
    // Settle sequence of each portal (INT32_MAX when unreached). Mirrors the
    // flat Dijkstra's pop order among portals — including the causal order of
    // zero-weight chains between coincident portals, which plain
    // (distance, id) ranks would mispredict — so exit-candidate tie-breaking
    // picks the same predecessor the flat tree records.
    std::vector<int32_t> settle;
  };
  // One seed of a portal Dijkstra: reach `portal` at cost `value` by stepping
  // from local node `via` (whose own offset from the query point is `rank_w`;
  // ties between seeds resolve by (value, rank_w, via) — the order the flat
  // Dijkstra's heap would pop the writers in).
  struct PortalSeed {
    int32_t portal;
    double value;
    double rank_w;
    int32_t via;
  };
  // A (portal, weight) hop between a graph node and the portal set.
  struct PortalLink {
    int32_t portal;
    double weight;
  };
  struct TreeCache;  // bounded LRUs over SourceTree/PortalTree, internally locked
  // Per-thread scratch arena for portal Dijkstras (the CleanerScratch idiom):
  // the seed list, the heap, the seed-rank tie-break columns, and — for hub
  // mode, whose trees are query-local rather than cached — the result tree
  // itself, all reused across queries so a steady-state hub query allocates
  // nothing. Defined in routing.cc.
  struct PortalScratch;

  // Resolution of one contracted exit at local node `b`: the bit-exact flat
  // tree distance (min over the direct single-edge crossings and the portal
  // exit hops) plus which candidate the flat Dijkstra's first-writer rule
  // records as b's predecessor. Shared by the single-query crossing search
  // and the batch distance path, so batch == single is structural.
  struct ExitResolution {
    double value = std::numeric_limits<double>::infinity();   // flat dist at b
    double rank_w = std::numeric_limits<double>::infinity();  // writer pop key
    int32_t rank_id = std::numeric_limits<int32_t>::max();    // writer node id
    int32_t settle = std::numeric_limits<int32_t>::max();     // portal settle seq
    bool direct = false;
    int direct_entry = -1;
    int exit_portal = -1;

    // First-writer-in-pop-order candidate selection (see routing.cc).
    void Offer(double value, double rank_w, int32_t rank_id, int32_t settle,
               bool direct, int direct_entry, int exit_portal);
  };
  // Local source nodes (node, offset) grouped by every partition they touch.
  using SourceByPartition = std::map<EntityId, std::vector<std::pair<int, double>>>;

  // How BestCrossing found the winning crossing, with deterministic
  // tie-breaking. `tree`/`portal_tree` is set for the mode that ran. For the
  // flat paths, `entry` is the tree root (memoized mode) or -1 (hub mode);
  // the exit's prev-chain ends at a -1 predecessor. For the contracted
  // paths, `entry`/`exit` are the local nodes and `direct` marks a
  // single-edge crossing (no portal involved); otherwise `exit_portal` roots
  // the unpack walk.
  struct BestPair {
    double total = 0;
    int entry = -1;
    int exit = -1;
    bool direct = false;
    int exit_portal = -1;
    std::shared_ptr<const SourceTree> tree;
    std::shared_ptr<const PortalTree> portal_tree;
  };

  RoutePlanner() = default;

  void AddEdge(int a, int b, double w);
  // Contracts the flat graph: classifies portal nodes and materializes the
  // portal adjacency + node->portal link CSRs. `has_vertical` flags nodes
  // carrying a vertical edge.
  void BuildPortalGraph(const std::vector<uint8_t>& has_vertical);
  // Finds graph nodes directly reachable from `p` (sharing its partition).
  std::vector<std::pair<int, double>> LocalNodes(const geo::IndoorPoint& p) const;
  // Dijkstra over the static graph from `source`.
  SourceTree ComputeTree(int source) const;
  // Cached tree lookup (computes + inserts on miss; bypasses the cache when
  // capacity is 0).
  std::shared_ptr<const SourceTree> TreeFrom(int source) const;

  // Multi-seed Dijkstra: distances/predecessors from a virtual source linked
  // to `seeds` (node, initial distance). Seeds carry prev -1.
  SourceTree ComputeMultiSeedTree(
      const std::vector<std::pair<int, double>>& seeds) const;

  // ---- contracted (portal graph) internals ----

  // The calling thread's scratch arena.
  static PortalScratch& LocalPortalScratch();
  // Dijkstra over the portal graph, written into `out` (capacity reused
  // across calls via the scratch's rank/heap buffers). Tie-breaking mirrors
  // the flat Dijkstra's first-writer-in-pop-order rule so unpacked paths
  // match it node for node.
  void ComputePortalTreeInto(PortalScratch* scratch, PortalTree* out) const;
  // Cached contracted tree rooted at local node `source` (seeds =
  // node_portal_links_ of the node, offsets relative to the node itself).
  std::shared_ptr<const PortalTree> PortalTreeFrom(int source) const;
  // node -> its portal links [link_offsets_[n], link_offsets_[n+1]).
  std::span<const PortalLink> LinksOf(int node) const;
  // True iff nodes `a` and `b` share a partition (a flat edge exists).
  bool NodesAdjacent(int a, int b) const;

  // Exit resolution for hub mode (multi-seed portal tree + grouped sources)
  // and memoized mode (per-source portal tree rooted at local node `a`).
  ExitResolution ResolveExitHub(int b, const PortalTree& tree,
                                const SourceByPartition& sources) const;
  ExitResolution ResolveExitMemoized(int a, int b, const PortalTree& tree) const;
  // Portal tree seeded from every local node of a hub source partition,
  // exactly as the flat multi-seed Dijkstra would first relax it. The tree
  // lives in the calling thread's scratch arena (hub trees are query-local,
  // never cached) and is returned non-owning: it stays valid until this
  // thread's next hub portal Dijkstra, which every caller finishes with the
  // tree before issuing.
  std::shared_ptr<const PortalTree> ComputeHubPortalTree(
      const std::vector<std::pair<int, double>>& from_nodes) const;
  SourceByPartition GroupSourcesByPartition(
      const std::vector<std::pair<int, double>>& from_nodes) const;

  bool BestCrossing(const std::vector<std::pair<int, double>>& from_nodes,
                    const std::vector<std::pair<int, double>>& to_nodes,
                    BestPair* out) const;
  bool BestCrossingContracted(const std::vector<std::pair<int, double>>& from_nodes,
                              const std::vector<std::pair<int, double>>& to_nodes,
                              BestPair* out) const;

  // Shared FindRoute/IndoorDistance bodies parameterized on the crossing
  // algorithm (contracted or flat reference).
  Result<Route> FindRouteImpl(const geo::IndoorPoint& from,
                              const geo::IndoorPoint& to, bool contracted) const;
  double IndoorDistanceImpl(const geo::IndoorPoint& from,
                            const geo::IndoorPoint& to, bool contracted) const;
  std::vector<double> IndoorDistancesImpl(const geo::IndoorPoint& from,
                                          std::span<const geo::IndoorPoint> tos,
                                          bool contracted) const;
  // Appends the full node chain of `best` (entry node through exit node) to
  // `chain`, unpacking the contracted crossing when `best.portal_tree` is set.
  void UnpackChain(const BestPair& best, std::vector<int>* chain) const;

  const Dsm* dsm_ = nullptr;
  RoutePlannerOptions options_;
  std::vector<Node> nodes_;
  std::vector<std::vector<Edge>> adjacency_;
  // partition id -> node indices inside it (ascending).
  std::map<EntityId, std::vector<int>> partition_nodes_;

  // Contracted portal graph. Portals in ascending node order, so portal rank
  // order == node id order and heap tie-breaks agree with the flat Dijkstra.
  std::vector<int32_t> portal_nodes_;  // portal rank -> node id
  std::vector<int32_t> node_portal_;   // node id -> portal rank, or -1
  // CSR shortcut adjacency over portal ranks (flat clique + vertical edges
  // restricted to portal endpoints; weights bit-identical to the flat graph).
  std::vector<uint32_t> portal_adj_offsets_;
  std::vector<Edge> portal_adjacency_;
  // CSR node -> portal hops: a portal node links to itself at weight 0, a
  // contracted node to every portal sharing one of its partitions.
  std::vector<uint32_t> link_offsets_;
  std::vector<PortalLink> node_portal_links_;

  bool use_contraction_ = true;
  // Shared (not unique) so RoutePlanner stays movable while the cache holds a
  // mutex; copies of a planner share one cache, which is sound because trees
  // depend only on the immutable graph.
  std::shared_ptr<TreeCache> cache_;
};

}  // namespace trips::dsm
