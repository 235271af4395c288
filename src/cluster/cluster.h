// trips::cluster — one process serving a city. A Cluster hosts many
// independent venues (each its own immutable core::Engine: a mall, an office
// tower, a transit hub, a stadium...) behind a single ingest front door. Each
// venue is a shard with its own stream session and trip store; all shards
// share one worker pool, so a flush burst on one venue steals idle capacity
// from the others, and cross-venue queries fan out shard-parallel.
//
//     cluster::Cluster city({.worker_threads = 4});
//     city.AddVenue({.venue_id = "mall-east", .engine = mall_engine});
//     city.AddVenue({.venue_id = "hub-central", .engine = hub_engine,
//                    .store_directory = "stores/hub-central"});
//
//     city.Ingest("mall-east", device, record);       // routed to its shard
//     city.Poll(now);                                 // all venues, parallel
//     city.FlushAll();
//
//     auto history = city.DeviceHistoryAcrossVenues(device);
//     core::MobilityAnalytics a = city.BuildAnalytics();   // merged city-wide
//
// Determinism: every per-venue output (flush order, stored sequences,
// analytics) is byte-identical to running that venue as a standalone
// core::Service, regardless of the cluster's worker count or the sessions'
// buffer shard count; cross-venue results merge in venue-id order.
//
// Thread-safety: Ingest/IngestBatch/Poll/queries may run concurrently from
// any threads once the venue set is built. AddVenue is also safe concurrently
// with ingestion (shared-mutex guarded), though typical use registers venues
// up front.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/analytics.h"
#include "core/engine.h"
#include "core/service.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "store/trip_store.h"
#include "util/thread_pool.h"

namespace trips::cluster {

/// One venue's registration: the engine that translates it plus its stream
/// flush policy and persistence location.
struct VenueConfig {
  /// Cluster-unique venue key; routing and merge order both follow it.
  std::string venue_id;
  /// The venue's immutable translation model (dsm + planner + pipeline).
  std::shared_ptr<const core::Engine> engine;
  /// Flush policy of the venue's stream session.
  core::StreamOptions stream = {};
  /// Segment directory of the venue's trip store. Empty: memory-only (the
  /// venue still answers history/analytics queries, nothing hits disk). The
  /// store otherwise runs with store::StoreOptions defaults, on the cluster's
  /// shared pool and registry.
  std::string store_directory;
};

/// Cluster-level options.
struct ClusterOptions {
  /// Workers in the pool shared by every shard (flush translation fan-out and
  /// query fan-out). kAutoWorkerThreads sizes to the hardware; 0 runs
  /// everything on calling threads (deterministic serial mode).
  static constexpr size_t kAutoWorkerThreads = core::ServiceOptions::kAutoWorkerThreads;
  size_t worker_threads = kAutoWorkerThreads;
  /// Metrics registry the cluster, its pool, and every venue's session and
  /// store record into. Null (the default) makes the cluster create its own.
  /// Venue shards share the registry, so "stream."/"store."/"translate."
  /// metrics aggregate cluster-wide; per-venue counts are exported as
  /// "venue.<id>." callback gauges. Recording never alters output.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// One positioning record addressed to a venue — the cluster's wire unit.
struct ClusterRecord {
  std::string venue_id;
  std::string device_id;
  positioning::RawRecord record;
};

/// One venue's slice of a cross-venue device history.
struct VenueHistory {
  std::string venue_id;
  core::MobilitySemanticsSequence history;
};

/// Aggregate cluster counters.
///
/// Consistency contract: every field is read from lock-free per-shard atomics
/// maintained on the ingest/flush paths — Stats() never takes a venue store's
/// lock, so it cannot stall (or be stalled by) a concurrent flush. Each
/// counter is individually accurate, but the struct is NOT one atomic
/// cross-shard snapshot: a record being ingested while Stats() runs may be
/// counted in `ingested` and not yet in `stored_sequences` (never the
/// reverse for one record's lifecycle: stored_sequences only grows after the
/// store append succeeded). At quiescence — no in-flight Ingest/Poll/Flush —
/// every field is exact, and stored_sequences equals the sum of the venue
/// stores' Stats().sequences (including sequences reloaded from disk when a
/// venue store reopened an existing directory).
struct ClusterStats {
  size_t venues = 0;
  /// Records accepted across all venues.
  size_t ingested = 0;
  /// Records dropped because their venue id was unknown (batch/sink paths).
  size_t dropped_unknown_venue = 0;
  /// Sequences flushed and stored across all venues.
  size_t stored_sequences = 0;
  /// Per-venue ingested record counts, in venue-id order.
  std::vector<std::pair<std::string, size_t>> per_venue_ingested;
};

/// A multi-venue sharded ingest service: one engine+session+store shard per
/// venue, one shared worker pool, one front door.
class Cluster {
 public:
  /// Receives every flushed result cluster-wide, tagged with its venue.
  /// Invoked from whichever thread triggered the flush, results in device-id
  /// order within one venue flush.
  using Sink = std::function<void(const std::string& venue_id,
                                  core::TranslationResult result)>;

  explicit Cluster(ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // ---- topology -------------------------------------------------------------

  /// Registers a venue shard. Fails on an empty/duplicate venue id, a null
  /// engine, or a store directory that cannot be opened.
  Status AddVenue(VenueConfig config);

  /// Registered venue ids, sorted.
  std::vector<std::string> VenueIds() const;

  /// The venue's trip store (nullptr for an unknown venue id). Stays valid
  /// for the cluster's lifetime.
  const store::TripStore* venue_store(const std::string& venue_id) const;

  /// The venue's engine (nullptr for an unknown venue id).
  std::shared_ptr<const core::Engine> venue_engine(const std::string& venue_id) const;

  /// Workers in the shared pool (0 = serial).
  size_t worker_count() const { return pool_.worker_count(); }

  // ---- ingestion ------------------------------------------------------------

  /// Buffers one record into its venue's shard. NotFound on an unknown venue
  /// id; InvalidArgument on an empty device id (counted under
  /// stream.rejected_records). A record that fills the device's buffer
  /// triggers an inline flush (translated + stored + delivered to the sink).
  Status Ingest(const std::string& venue_id, const std::string& device,
                const positioning::RawRecord& record);

  /// Buffers a batch, routing each record to its venue. Unknown-venue records
  /// are skipped and counted (Stats().dropped_unknown_venue); returns the
  /// number accepted. Any other Ingest error stops the batch and is returned
  /// (records before it stay buffered).
  Result<size_t> IngestBatch(std::span<const ClusterRecord> records);

  /// A self-contained ingest callable for feed pumps — the cluster analogue
  /// of store::TripStore::MakeSink. Unknown-venue records are dropped and
  /// counted, as are records with an empty device id (under
  /// stream.rejected_records). The cluster must outlive the callable.
  std::function<void(const ClusterRecord&)> MakeSink();

  /// Installs (or, with nullptr, removes) the cluster-wide delivery callback.
  /// Flushed results are always appended to the venue's store regardless.
  void SetSink(Sink sink);

  /// Flushes idle devices of every venue (shard-parallel; venues complete
  /// independently, each venue's results in device-id order). A venue's
  /// released buffers are translated over the same pool, so threads that
  /// finish their venue help translate the others'.
  Status Poll(TimestampMs now);

  /// Flushes every buffered device of every venue (end of stream). Like
  /// StreamSession::FlushAll, remainders shorter than min_flush_records are
  /// translated too.
  Status FlushAll();

  /// Records currently buffered across every venue's stream session (the
  /// cluster-wide ingest queue depth; 0 after a FlushAll with no concurrent
  /// ingest).
  size_t PendingRecords() const;

  /// Seals, persists and checkpoints every venue store that has a directory
  /// (each store's manifest is rewritten, so this is the cluster's durable
  /// checkpoint), then lets the stores merge small segments on the shared
  /// pool in the background.
  Status PersistAll();

  // ---- cross-venue queries --------------------------------------------------

  /// The device's stored history in every venue it visited, gathered
  /// shard-parallel, returned in venue-id order (venues without any triplet
  /// for the device are omitted).
  std::vector<VenueHistory> DeviceHistoryAcrossVenues(const std::string& device) const;

  /// City-wide analytics: per-venue analytics (each over that venue's dsm)
  /// built shard-parallel, merged in venue-id order — deterministic for any
  /// worker count, identical to feeding every venue's store to one
  /// MobilityAnalytics in the same order.
  core::MobilityAnalytics BuildAnalytics() const;

  /// One venue's analytics over its own dsm (empty analytics for an unknown
  /// venue id).
  core::MobilityAnalytics VenueAnalytics(const std::string& venue_id) const;

  /// Aggregate counters. Lock-free snapshot; see the ClusterStats
  /// consistency contract.
  ClusterStats Stats() const;

  /// The registry the cluster and all its venue shards record into (never
  /// null). Exposes per-venue "venue.<id>." gauges, cluster-wide rollups
  /// ("cluster.*"), and routing/spatial cache gauges summed over every
  /// venue's engine.
  const std::shared_ptr<obs::MetricsRegistry>& stats_registry() const {
    return metrics_;
  }

  /// Writes the /statsz JSON snapshot of stats_registry() to `out`.
  void DumpStatsz(std::ostream& out) const;

 private:
  /// One venue: engine + stream session + store, all sharing the cluster
  /// pool. The session's sink appends into the store and forwards to the
  /// cluster sink.
  struct VenueShard {
    std::string venue_id;
    std::shared_ptr<const core::Engine> engine;
    std::unique_ptr<store::TripStore> store;     // always present (memory-only
                                                 // when no directory)
    std::unique_ptr<core::StreamSession> session;
    std::atomic<size_t> ingested{0};
    /// Sequences successfully appended to the store, seeded at AddVenue from
    /// the reopened store's contents — the lock-free source of
    /// ClusterStats::stored_sequences (satisfying the contract above).
    std::atomic<size_t> stored{0};
  };

  // The shard registered under `venue_id`, or nullptr. Requires venues_mu_
  // held (any mode).
  VenueShard* FindShardLocked(const std::string& venue_id) const;
  // Snapshot of the shard list in venue-id order, for lock-free fan-out
  // (shards are never removed, so the pointers stay valid).
  std::vector<VenueShard*> SnapshotShards() const;

  ClusterOptions options_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;  // never null
  mutable util::ThreadPool pool_;  // const queries fan out over it too

  mutable std::shared_mutex venues_mu_;  // guards the maps, not the shards
  std::map<std::string, std::unique_ptr<VenueShard>> venues_;  // venue-id order
  /// Callback-gauge names this cluster registered (removed in the destructor
  /// because the callbacks capture `this`; a caller-supplied registry may
  /// outlive the cluster). Mutated under venues_mu_ (unique).
  std::vector<std::string> callback_names_;

  mutable std::mutex sink_mu_;  // guards sink_ only
  Sink sink_;

  std::atomic<size_t> dropped_unknown_{0};
};

}  // namespace trips::cluster
