// The Digital Space Model (DSM): geometry + topology of an indoor space plus
// its semantic regions. Central data structure of TRIPS (§3): it "enables the
// spatial computations for cleaning the positioning records" and "helps the
// Annotator make annotations and the Complementor infer the missing mobility
// semantics".
#pragma once

#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "dsm/entity.h"
#include "dsm/spatial_index.h"
#include "util/result.h"

namespace trips::dsm {

/// Topology computed over a DSM: which doors connect which walkable
/// partitions, which partitions connect across floors, and which semantic
/// regions are directly reachable from which.
struct Topology {
  /// door entity id -> the (usually two) partitions it connects.
  std::map<EntityId, std::vector<EntityId>> door_partitions;
  /// partition entity id -> doors on its boundary.
  std::map<EntityId, std::vector<EntityId>> partition_doors;
  /// Vertical links: pairs of partition ids on different floors connected by
  /// a same-named staircase/elevator.
  std::vector<std::pair<EntityId, EntityId>> vertical_links;
  /// Same-floor walkable partitions whose shapes overlap (e.g. crossing
  /// corridors); movement flows freely between them through the stored
  /// portal point, no door needed.
  struct Overlap {
    EntityId a = kInvalidEntity;
    EntityId b = kInvalidEntity;
    geo::Point2 portal;
  };
  std::vector<Overlap> partition_overlaps;
  /// region id -> directly connected region ids (shared door / vertical link
  /// / shared partition).
  std::map<RegionId, std::set<RegionId>> region_adjacency;
  /// partition entity id -> semantic regions overlapping it.
  std::map<EntityId, std::vector<RegionId>> partition_regions;
};

/// The Digital Space Model. Build it with AddFloor/AddEntity/AddRegion (or
/// through config::SpaceModeler, or from JSON via dsm_json.h), then call
/// ComputeTopology() once before issuing spatial queries.
class Dsm {
 public:
  /// Human-readable model name (e.g. "hangzhou-mall").
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ---- construction ----

  /// Adds a floor; fails if a floor with the same id exists.
  Status AddFloor(Floor floor);

  /// Adds an entity, assigning and returning its id. The entity's shape must
  /// have at least 3 vertices.
  Result<EntityId> AddEntity(Entity entity);

  /// Adds a semantic region, assigning and returning its id.
  Result<RegionId> AddRegion(SemanticRegion region);

  /// Maps an entity into a region (DSM's entity↔region mapping).
  Status MapEntityToRegion(EntityId entity, RegionId region);

  /// Computes door/partition/region topology. Must be called after all
  /// entities and regions are added (re-callable after edits). Also auto-maps
  /// every walkable partition whose centroid lies in a region's shape into
  /// that region, complementing explicit MapEntityToRegion calls.
  Status ComputeTopology();

  // ---- access ----

  const std::vector<Floor>& floors() const { return floors_; }
  const std::vector<Entity>& entities() const { return entities_; }
  const std::vector<SemanticRegion>& regions() const { return regions_; }
  const Topology& topology() const { return topology_; }
  bool topology_computed() const { return topology_computed_; }

  /// Returns the floor record with the given id, or nullptr.
  const Floor* GetFloor(geo::FloorId id) const;
  /// Returns the entity with the given id, or nullptr.
  const Entity* GetEntity(EntityId id) const;
  /// Returns the region with the given id, or nullptr.
  const SemanticRegion* GetRegion(RegionId id) const;
  /// Returns the first region with the given name, or nullptr.
  const SemanticRegion* FindRegionByName(const std::string& name) const;

  // ---- spatial queries ----
  //
  // The point queries below run on the grid index built by ComputeTopology()
  // (near-O(1) per query); before topology is computed — or with the index
  // disabled — they fall back to the brute-force linear scans, which return
  // identical results.

  /// The walkable partition (room/hallway/staircase/elevator) containing `p`,
  /// or kInvalidEntity. Smallest-area match wins when partitions nest.
  EntityId PartitionAt(const geo::IndoorPoint& p) const;

  /// True iff `p` lies in some walkable partition.
  bool IsWalkable(const geo::IndoorPoint& p) const;

  /// The semantic region containing `p`, or kInvalidRegion. Smallest-area
  /// match wins when regions overlap.
  RegionId RegionAt(const geo::IndoorPoint& p) const;

  /// All doors on the boundary of partition `pid` (empty if unknown).
  std::vector<EntityId> DoorsOfPartition(EntityId pid) const;

  /// The partitions a door connects (empty if unknown).
  std::vector<EntityId> PartitionsOfDoor(EntityId door) const;

  /// Regions directly connected to `rid` in the region adjacency graph.
  std::vector<RegionId> AdjacentRegions(RegionId rid) const;

  /// Nearest walkable point to `p` on the same floor (snaps out-of-bounds
  /// cleaned locations back into the space). Returns `p` itself if walkable.
  geo::IndoorPoint SnapToWalkable(const geo::IndoorPoint& p) const;

  /// Combined IsWalkable + SnapToWalkable: sets `*snapped` to false and
  /// returns `p` when `p` is walkable, else sets it to true and returns the
  /// snapped point — one point-location query instead of the two the pair
  /// costs. Bit-identical to calling IsWalkable then SnapToWalkable.
  geo::IndoorPoint SnapIfOutside(const geo::IndoorPoint& p, bool* snapped) const;

  /// Batched SnapIfOutside: each (out[i], snapped[i], with snapped[i] in
  /// {0,1}) is exactly the per-point call's result for points[i]. With the
  /// index built this dispatches to SpatialIndex::SnapIfOutsideBatch, which
  /// sorts the outside points by (floor, grid cell) so the ring searches are
  /// cache-coherent; otherwise it loops the brute-force per-point query. All
  /// spans must have equal length; `out` may alias `points`.
  void SnapIfOutsideBatch(std::span<const geo::IndoorPoint> points,
                          std::span<geo::IndoorPoint> out,
                          std::span<uint8_t> snapped) const;

  /// Bounding box of everything on `floor`.
  geo::BoundingBox FloorBounds(geo::FloorId floor) const;

  /// Number of distinct floors that carry at least one entity.
  size_t FloorCount() const { return floors_.size(); }

  // ---- spatial acceleration index ----

  /// The grid index over partitions/regions/edges (built by ComputeTopology,
  /// invalidated by any mutation).
  const SpatialIndex& spatial_index() const { return spatial_index_; }

  /// Regions whose bounding box intersects walkable partition `pid` —
  /// precomputed candidate superset for resolving region membership of points
  /// inside the partition without a polygon pass over all regions.
  const std::vector<RegionId>& RegionCandidatesOfPartition(EntityId pid) const {
    return spatial_index_.RegionCandidatesOfPartition(pid);
  }

  /// Disables (or re-enables) the index at runtime, forcing the point queries
  /// onto the brute-force scans. Parity testing and benchmarking only — never
  /// needed in production.
  void set_spatial_index_enabled(bool enabled) { use_spatial_index_ = enabled; }
  bool spatial_index_enabled() const { return use_spatial_index_; }

  // Brute-force reference implementations of the point queries: linear scans
  // over all entities/regions with full point-in-polygon tests. Retained for
  // the parity suite and the before/after benchmarks; the hot path only
  // reaches them when the index is unbuilt or disabled.
  EntityId PartitionAtBruteForce(const geo::IndoorPoint& p) const;
  RegionId RegionAtBruteForce(const geo::IndoorPoint& p) const;
  geo::IndoorPoint SnapToWalkableBruteForce(const geo::IndoorPoint& p) const;
  geo::IndoorPoint SnapIfOutsideBruteForce(const geo::IndoorPoint& p,
                                           bool* snapped) const;

 private:
  std::string name_ = "dsm";
  std::vector<Floor> floors_;
  std::vector<Entity> entities_;
  std::vector<SemanticRegion> regions_;
  Topology topology_;
  SpatialIndex spatial_index_;
  bool topology_computed_ = false;
  bool use_spatial_index_ = true;
  EntityId next_entity_id_ = 0;
  RegionId next_region_id_ = 0;
};

}  // namespace trips::dsm
