#include "cluster/cluster.h"

#include "obs/statsz.h"

namespace trips::cluster {

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      metrics_(options.metrics != nullptr
                   ? options.metrics
                   : std::make_shared<obs::MetricsRegistry>()),
      pool_(core::ResolveWorkerThreads(options.worker_threads)) {
  core::WirePoolMetrics(pool_, *metrics_);

  // Cluster-wide rollups plus routing/spatial cache gauges summed over every
  // venue engine. The callbacks capture `this`, so the destructor removes
  // them (a caller-supplied registry may outlive the cluster).
  auto add = [this](const std::string& name, std::function<int64_t()> fn) {
    metrics_->SetCallback(name, std::move(fn));
    callback_names_.push_back(name);
  };
  add("cluster.venues", [this] {
    std::shared_lock<std::shared_mutex> lock(venues_mu_);
    return static_cast<int64_t>(venues_.size());
  });
  add("cluster.ingested", [this] {
    int64_t total = 0;
    for (VenueShard* shard : SnapshotShards()) {
      total += static_cast<int64_t>(
          shard->ingested.load(std::memory_order_relaxed));
    }
    return total;
  });
  add("cluster.stored_sequences", [this] {
    int64_t total = 0;
    for (VenueShard* shard : SnapshotShards()) {
      total +=
          static_cast<int64_t>(shard->stored.load(std::memory_order_relaxed));
    }
    return total;
  });
  add("cluster.dropped_unknown_venue", [this] {
    return static_cast<int64_t>(
        dropped_unknown_.load(std::memory_order_relaxed));
  });
  for (const core::EngineGauge& gauge : core::kEngineGauges) {
    add(gauge.name, [this, read = gauge.read] {
      int64_t total = 0;
      for (VenueShard* shard : SnapshotShards()) total += read(*shard->engine);
      return total;
    });
  }
}

Cluster::~Cluster() {
  for (const std::string& name : callback_names_) {
    metrics_->RemoveCallback(name);
  }
}

// ---- topology ---------------------------------------------------------------

Status Cluster::AddVenue(VenueConfig config) {
  if (config.venue_id.empty()) {
    return Status::InvalidArgument("venue id must not be empty");
  }
  if (config.engine == nullptr) {
    return Status::InvalidArgument("venue engine must not be null: " +
                                   config.venue_id);
  }
  // Build the shard outside the lock (store Open may touch disk).
  auto shard = std::make_unique<VenueShard>();
  shard->venue_id = config.venue_id;
  shard->engine = config.engine;
  // Shards lean on the cluster's shared pool for scans and background
  // compaction instead of spawning per-venue workers (venues_ is destroyed
  // before pool_, so the pool outlives every store).
  auto store = store::TripStore::Open({.directory = config.store_directory,
                                       .shared_pool = &pool_,
                                       .metrics = metrics_});
  TRIPS_RETURN_NOT_OK(store.status());
  shard->store = std::move(store).ValueOrDie();
  // Seed the lock-free stored counter with what the reopened store already
  // holds, so ClusterStats::stored_sequences keeps matching the store at
  // quiescence after a restart.
  shard->stored.store(shard->store->Stats().sequences,
                      std::memory_order_relaxed);
  shard->session = std::make_unique<core::StreamSession>(
      config.engine, config.stream, &pool_, metrics_);
  // Every flushed result lands in the venue's store; a cluster sink (looked
  // up at delivery time, so installation order doesn't matter) additionally
  // receives it tagged with the venue. The append is issued directly (not via
  // TripStore::MakeSink) so the shard's stored counter can track success.
  VenueShard* shard_ptr = shard.get();
  shard->session->SetSink([this, shard_ptr](core::TranslationResult result) {
    Sink cluster_sink;
    {
      std::lock_guard<std::mutex> lock(sink_mu_);
      cluster_sink = sink_;
    }
    bool appended;
    if (cluster_sink) {
      appended = shard_ptr->store->Append(result.semantics).ok();  // keep a copy
    } else {
      appended = shard_ptr->store->Append(std::move(result.semantics)).ok();
    }
    if (appended) {
      shard_ptr->stored.fetch_add(1, std::memory_order_relaxed);
    }
    if (cluster_sink) {
      cluster_sink(shard_ptr->venue_id, std::move(result));
    }
  });

  {
    std::unique_lock<std::shared_mutex> lock(venues_mu_);
    auto [it, inserted] = venues_.emplace(config.venue_id, std::move(shard));
    if (!inserted) {
      return Status::AlreadyExists("venue already registered: " +
                                   config.venue_id);
    }
    callback_names_.push_back("venue." + shard_ptr->venue_id + ".ingested");
    callback_names_.push_back("venue." + shard_ptr->venue_id +
                              ".stored_sequences");
  }
  // Per-venue pull gauges, registered outside venues_mu_ (the registry has
  // its own lock). shard_ptr stays valid: shards are never removed.
  metrics_->SetCallback("venue." + shard_ptr->venue_id + ".ingested",
                        [shard_ptr] {
                          return static_cast<int64_t>(shard_ptr->ingested.load(
                              std::memory_order_relaxed));
                        });
  metrics_->SetCallback("venue." + shard_ptr->venue_id + ".stored_sequences",
                        [shard_ptr] {
                          return static_cast<int64_t>(shard_ptr->stored.load(
                              std::memory_order_relaxed));
                        });
  return Status::OK();
}

Cluster::VenueShard* Cluster::FindShardLocked(const std::string& venue_id) const {
  auto it = venues_.find(venue_id);
  return it == venues_.end() ? nullptr : it->second.get();
}

std::vector<Cluster::VenueShard*> Cluster::SnapshotShards() const {
  std::shared_lock<std::shared_mutex> lock(venues_mu_);
  std::vector<VenueShard*> shards;
  shards.reserve(venues_.size());
  for (const auto& [id, shard] : venues_) shards.push_back(shard.get());
  return shards;  // venue-id order (map iteration)
}

std::vector<std::string> Cluster::VenueIds() const {
  std::shared_lock<std::shared_mutex> lock(venues_mu_);
  std::vector<std::string> ids;
  ids.reserve(venues_.size());
  for (const auto& [id, shard] : venues_) ids.push_back(id);
  return ids;
}

const store::TripStore* Cluster::venue_store(const std::string& venue_id) const {
  std::shared_lock<std::shared_mutex> lock(venues_mu_);
  VenueShard* shard = FindShardLocked(venue_id);
  return shard == nullptr ? nullptr : shard->store.get();
}

std::shared_ptr<const core::Engine> Cluster::venue_engine(
    const std::string& venue_id) const {
  std::shared_lock<std::shared_mutex> lock(venues_mu_);
  VenueShard* shard = FindShardLocked(venue_id);
  return shard == nullptr ? nullptr : shard->engine;
}

// ---- ingestion --------------------------------------------------------------

Status Cluster::Ingest(const std::string& venue_id, const std::string& device,
                       const positioning::RawRecord& record) {
  VenueShard* shard;
  {
    std::shared_lock<std::shared_mutex> lock(venues_mu_);
    shard = FindShardLocked(venue_id);
  }
  if (shard == nullptr) {
    return Status::NotFound("unknown venue: " + venue_id);
  }
  // Counted before the session call, so a cap-triggered flush never shows a
  // stored sequence ahead of its records (see ClusterStats); a record the
  // session rejects is taken back out.
  shard->ingested.fetch_add(1, std::memory_order_relaxed);
  // The session sink is always installed, so a cap-triggered inline flush is
  // delivered (store + cluster sink) and the returned vector is empty.
  Status status = shard->session->Ingest(device, record).status();
  if (!status.ok()) shard->ingested.fetch_sub(1, std::memory_order_relaxed);
  return status;
}

Result<size_t> Cluster::IngestBatch(std::span<const ClusterRecord> records) {
  size_t accepted = 0;
  for (const ClusterRecord& r : records) {
    Status s = Ingest(r.venue_id, r.device_id, r.record);
    if (s.code() == StatusCode::kNotFound) {
      dropped_unknown_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    TRIPS_RETURN_NOT_OK(s);
    ++accepted;
  }
  return accepted;
}

std::function<void(const ClusterRecord&)> Cluster::MakeSink() {
  return [this](const ClusterRecord& r) {
    Status s = Ingest(r.venue_id, r.device_id, r.record);
    if (s.code() == StatusCode::kNotFound) {
      dropped_unknown_.fetch_add(1, std::memory_order_relaxed);
    }
  };
}

void Cluster::SetSink(Sink sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  sink_ = std::move(sink);
}

Status Cluster::Poll(TimestampMs now) {
  std::vector<VenueShard*> shards = SnapshotShards();
  std::vector<Status> statuses(shards.size());
  pool_.ParallelFor(shards.size(), [&](size_t i) {
    statuses[i] = shards[i]->session->Poll(now).status();
  });
  for (Status& s : statuses) TRIPS_RETURN_NOT_OK(s);
  return Status::OK();
}

Status Cluster::FlushAll() {
  std::vector<VenueShard*> shards = SnapshotShards();
  std::vector<Status> statuses(shards.size());
  pool_.ParallelFor(shards.size(), [&](size_t i) {
    statuses[i] = shards[i]->session->FlushAll().status();
  });
  for (Status& s : statuses) TRIPS_RETURN_NOT_OK(s);
  return Status::OK();
}

size_t Cluster::PendingRecords() const {
  size_t total = 0;
  for (VenueShard* shard : SnapshotShards()) {
    total += shard->session->PendingRecords();
  }
  return total;
}

Status Cluster::PersistAll() {
  std::vector<VenueShard*> shards = SnapshotShards();
  std::vector<Status> statuses(shards.size());
  pool_.ParallelFor(shards.size(), [&](size_t i) {
    statuses[i] = shards[i]->store->Flush();
  });
  for (Status& s : statuses) TRIPS_RETURN_NOT_OK(s);
  return Status::OK();
}

// ---- cross-venue queries ----------------------------------------------------

std::vector<VenueHistory> Cluster::DeviceHistoryAcrossVenues(
    const std::string& device) const {
  std::vector<VenueShard*> shards = SnapshotShards();
  std::vector<core::MobilitySemanticsSequence> histories(shards.size());
  pool_.ParallelFor(shards.size(), [&](size_t i) {
    histories[i] = shards[i]->store->DeviceHistory(device);
  });
  // Gathered shard-parallel, assembled in venue-id order (the shard snapshot
  // order), so the result is independent of completion order.
  std::vector<VenueHistory> out;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (histories[i].Empty()) continue;
    out.push_back({shards[i]->venue_id, std::move(histories[i])});
  }
  return out;
}

core::MobilityAnalytics Cluster::BuildAnalytics() const {
  std::vector<VenueShard*> shards = SnapshotShards();
  std::vector<core::MobilityAnalytics> partials(shards.size());
  pool_.ParallelFor(shards.size(), [&](size_t i) {
    partials[i] = shards[i]->store->BuildAnalytics(&shards[i]->engine->dsm());
  });
  // Merge in venue-id order: deterministic for any worker count, identical to
  // sequentially folding every venue's store into one analytics instance.
  core::MobilityAnalytics merged;
  for (const core::MobilityAnalytics& partial : partials) merged.Merge(partial);
  return merged;
}

core::MobilityAnalytics Cluster::VenueAnalytics(const std::string& venue_id) const {
  std::shared_lock<std::shared_mutex> lock(venues_mu_);
  VenueShard* shard = FindShardLocked(venue_id);
  if (shard == nullptr) return core::MobilityAnalytics();
  return shard->store->BuildAnalytics(&shard->engine->dsm());
}

// ---- stats ------------------------------------------------------------------

ClusterStats Cluster::Stats() const {
  std::vector<VenueShard*> shards = SnapshotShards();
  ClusterStats stats;
  stats.venues = shards.size();
  stats.dropped_unknown_venue = dropped_unknown_.load(std::memory_order_relaxed);
  for (VenueShard* shard : shards) {
    size_t n = shard->ingested.load(std::memory_order_relaxed);
    stats.ingested += n;
    // Lock-free: the shard's stored counter, not the store's locked Stats()
    // (see the ClusterStats consistency contract in cluster.h).
    stats.stored_sequences += shard->stored.load(std::memory_order_relaxed);
    stats.per_venue_ingested.emplace_back(shard->venue_id, n);
  }
  return stats;
}

void Cluster::DumpStatsz(std::ostream& out) const {
  obs::DumpStatsz(*metrics_, out);
}

}  // namespace trips::cluster
