// Seeded inputs of the workloads. Everything here runs before any clock
// starts: venues and their DSMs, the Event Editor training corpora, every
// session's noisy records plus its ground truth, the replay schedule and the
// reads that follow it.
// The program under test only ever receives the generated records.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/event_editor.h"
#include "core/semantics.h"
#include "core/session.h"
#include "dsm/dsm.h"
#include "json/json.h"
#include "positioning/record.h"
#include "util/result.h"

namespace perfbench {

using trips::DurationMs;
using trips::TimestampMs;

/// One venue: its space model, the labelled segments its engine is trained
/// on, and the flush policy of its stream session.
struct VenueInput {
  std::string id;
  std::shared_ptr<const trips::dsm::Dsm> dsm;
  std::vector<trips::config::LabeledSegment> training;
  trips::core::StreamOptions stream;
};

/// One device session: what the positioning system reports (`raw`, in ingest
/// order) and what really happened (`truth` samples and `semantics`).
struct Session {
  uint32_t venue = 0;  ///< index into WorkloadInput::venues
  std::string device;
  std::vector<trips::positioning::RawRecord> raw;
  std::vector<trips::positioning::RawRecord> truth;
  trips::core::MobilitySemanticsSequence semantics;
};

/// One step of a stream replay: record `index` of session `session` at
/// simulated time `t`, or a Poll(t) when session == kPollEvent.
inline constexpr uint32_t kPollEvent = UINT32_MAX;
struct Event {
  TimestampMs t = 0;
  uint32_t session = 0;
  uint32_t index = 0;
};

/// One read after the replay: the analyst mix, or a stream workload's
/// device-history reads.
enum class QueryKind {
  kDeviceHistory,
  kRegionVisitors,
  kSequencesInRange,
  kFlowBetween,
  kBuildAnalytics,
};
const char* QueryName(QueryKind kind);

struct Query {
  QueryKind kind = QueryKind::kDeviceHistory;
  uint32_t session = 0;  ///< kDeviceHistory: whose history
  trips::dsm::RegionId from = trips::dsm::kInvalidRegion;  ///< region / flow source
  trips::dsm::RegionId to = trips::dsm::kInvalidRegion;    ///< flow destination
  TimestampMs t0 = 0;  ///< window queries: [t0, t1]
  TimestampMs t1 = 0;
};

/// The public front door a workload drives.
enum class Target {
  kCluster,  ///< cluster::Cluster with file-backed venue stores
  kBatch,    ///< core::Service + BatchSession, then the analyst mix
};

/// Everything one workload replays, generated from its seed.
struct WorkloadInput {
  std::string name;
  Target target = Target::kCluster;
  std::vector<VenueInput> venues;
  std::vector<Session> sessions;
  size_t total_records = 0;

  // ---- stream workloads ----
  std::vector<Event> schedule;
  /// Leading events replayed before the timed window opens (the ramp-up
  /// until device buffers reach their steady occupancy).
  size_t warmup_events = 0;

  // ---- batch workload ----
  /// Session indexes submitted together, one chunk per hour of history.
  std::vector<std::vector<uint32_t>> chunks;

  /// The timed reads, in a seeded order: the analyst mix (batch), or one
  /// device-history read per device (stream).
  std::vector<Query> queries;

  /// Workload parameters echoed into the run metadata.
  trips::json::Object params;
};

/// The workload names, in the order the benchmark documents them.
std::vector<std::string> WorkloadNames();

/// Generates the named workload from `seed`. Deterministic: the same seed
/// gives byte-identical inputs.
trips::Result<WorkloadInput> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench
