// The traced mode's layer pass and per-record ledger.
//
// Translation inside a flush cannot be wrapped from outside the library, so
// the layer pass re-runs it single-threaded over the same buffers the replay
// delivered (cut at the same cap boundaries), calling each layer's public
// entry point in turn with layers built from the engine's own options,
// classifier and knowledge. Its output must equal the delivered semantics
// byte for byte, which proves it timed the same work.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/semantics.h"
#include "inputs.h"
#include "trace.h"

namespace perfbench {

/// Which public call released a delivered result.
enum CallKind : uint8_t { kCallIngest = 0, kCallPoll, kCallDrain, kCallSubmit, kCallKinds };

/// One result as the Cluster's sink (or a batch response) delivered it.
struct Delivery {
  uint32_t session = 0;
  uint32_t records = 0;  ///< raw records of the translated buffer
  uint8_t call = kCallIngest;
  bool in_window = false;
  uint32_t call_span = 0;  ///< traced reps: span of the releasing call
  uint64_t sink_ns = 0;    ///< traced reps: time inside the sink
  double lag_ms = 0;
  trips::core::MobilitySemanticsSequence semantics;
};

/// Span names shared by the runner and the ledger.
namespace spans {
inline constexpr const char* kReplay = "replay";
inline constexpr const char* kBackfill = "backfill";
inline constexpr const char* kSink = "sink";
inline constexpr const char* kClusterIngest = "Cluster::Ingest";
inline constexpr const char* kClusterPoll = "Cluster::Poll";
inline constexpr const char* kClusterFlushAll = "Cluster::FlushAll";
inline constexpr const char* kClusterPersistAll = "Cluster::PersistAll";
inline constexpr const char* kStoreAppendResponse = "TripStore::AppendResponse";
inline constexpr const char* kStoreFlush = "TripStore::Flush";
inline constexpr const char* kStoreOpen = "TripStore::Open";
inline constexpr const char* kSubmit = "BatchSession::Submit";
}  // namespace spans

/// Per-row costs in nanoseconds, summed over buffers.
struct RowCosts {
  double sort = 0, scan = 0, interpolate = 0, smooth = 0, snap = 0, split = 0,
         annotate = 0, complement = 0, knowledge = 0, materialize = 0, append = 0;
  double Translation() const {
    return sort + scan + interpolate + smooth + snap + split + annotate + complement +
           knowledge + materialize;
  }
  void Add(const RowCosts& o);
};

struct LayerPassResult {
  std::array<RowCosts, kCallKinds> by_call{};  ///< costs of buffers each call kind released
  RowCosts total;
  double clean_ns = 0;  ///< CleanBlock wall, all passes
  uint64_t records = 0;
  uint64_t sequences = 0;
  uint64_t snippets = 0;
  uint64_t snapped = 0;
  uint64_t interpolated = 0;
  uint64_t gaps_found = 0;
  uint64_t gaps_filled = 0;
  double wall_ns = 0;  ///< the whole single-threaded pass
  // Fig. 3 layer qualities against ground truth.
  double rmse_m = 0;
  double floor_error_rate = 0;
  double annotation_event_match = 0;
  double gap_region_match = 0;
  uint64_t gap_samples = 0;
  // Byte-for-byte comparison with the delivered semantics.
  uint64_t compared = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> messages;
};

/// Runs the layer pass. `engines` is per venue; `deliveries` in delivery
/// order. For the batch workload the per-chunk knowledge is rebuilt the way
/// BatchSession::Submit learns it.
LayerPassResult RunLayerPass(const WorkloadInput& input,
                             const std::vector<const trips::core::Engine*>& engines,
                             const std::vector<Delivery>& deliveries);

/// One ledger row: nanoseconds of replay wall per record.
struct LedgerRow {
  std::string name;
  double ns = 0;  ///< total over the replay
};

struct LedgerInput {
  double wall_ns = 0;  ///< replay wall the rows must add up to
  const std::vector<Span>* spans = nullptr;
  const std::vector<Delivery>* deliveries = nullptr;
  const LayerPassResult* pass = nullptr;
  /// Pool queue wait observed during each call (span id -> ns).
  const std::unordered_map<uint32_t, double>* pool_wait = nullptr;
};

/// The per-record ledger. Release calls (cap-flushing ingests, polls and
/// drains, submits) are split into the layer pass's per-row costs of the
/// buffers they released, scaled by the share of the call's wall those costs
/// fill when the work ran in parallel, plus the call's remaining self time.
/// The last row, `unattributed`, is the replay wall minus every other row.
std::vector<LedgerRow> BuildLedger(const LedgerInput& in);

}  // namespace perfbench
