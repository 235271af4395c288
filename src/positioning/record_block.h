// Columnar (struct-of-arrays) record storage — the layout the translation
// hot path runs on. A RecordBlock holds one device's records as contiguous
// per-attribute columns (timestamps, planar x/y, floors) plus a validity
// bitmap, so the cleaning/annotation passes stream exactly the columns they
// touch instead of striding over AoS RawRecord structs, and a block's buffers
// are reusable across sequences (reserve once, Clear + refill).
//
// Conversions to/from positioning::PositioningSequence are exact (the columns
// store the same doubles/int64s the AoS records hold): callers holding AoS
// records (training segments, the cleaner's Clean shim) convert once with
// AssignFrom/FromSequence and run the block code, and the split, features,
// spatial matching and annotation passes exist in this layout only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/point.h"
#include "positioning/record.h"
#include "util/time_util.h"

namespace trips::positioning {

/// One device's positioning records in columnar form. All columns have equal
/// length; `validity` packs one bit per record (1 = valid) in 64-bit words.
/// The helpers keep the columns and the bitmap consistent; code that writes
/// the columns directly (the cleaning passes) must keep the lengths aligned.
struct RecordBlock {
  std::string device_id;
  std::vector<TimestampMs> timestamps;
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<geo::FloorId> floors;
  /// Validity bitmap, ceil(Size()/64) words; bit i of word i/64 = record i.
  std::vector<uint64_t> validity;

  size_t Size() const { return timestamps.size(); }
  bool Empty() const { return timestamps.empty(); }

  /// Drops all records (capacity retained — the reuse path).
  void Clear();

  /// Reserves capacity in every column.
  void Reserve(size_t n);

  /// Appends one record, marked valid.
  void Append(double x, double y, geo::FloorId floor, TimestampMs t);
  void Append(const RawRecord& record) {
    Append(record.location.xy.x, record.location.xy.y, record.location.floor,
           record.timestamp);
  }

  // ---- per-record access ----

  geo::IndoorPoint Location(size_t i) const { return {xs[i], ys[i], floors[i]}; }
  geo::Point2 XY(size_t i) const { return {xs[i], ys[i]}; }
  void SetLocation(size_t i, const geo::IndoorPoint& p) {
    xs[i] = p.xy.x;
    ys[i] = p.xy.y;
    floors[i] = p.floor;
  }
  RawRecord Record(size_t i) const { return {Location(i), timestamps[i]}; }

  /// Gathers records [begin, end) out of the columns into a contiguous
  /// IndoorPoint staging array (out[k] = Location(begin + k), so `out` must
  /// hold end - begin points) — the column->batch transposition the cleaner's
  /// batched snap query feeds from.
  void GatherLocations(size_t begin, size_t end, geo::IndoorPoint* out) const {
    for (size_t i = begin; i < end; ++i) {
      out[i - begin] = {xs[i], ys[i], floors[i]};
    }
  }

  // ---- validity bitmap ----

  bool IsValid(size_t i) const {
    return (validity[i >> 6] >> (i & 63)) & uint64_t{1};
  }
  void SetValid(size_t i, bool valid) {
    uint64_t mask = uint64_t{1} << (i & 63);
    if (valid) {
      validity[i >> 6] |= mask;
    } else {
      validity[i >> 6] &= ~mask;
    }
  }
  /// Marks every record valid (the state conversions/Append produce).
  void MarkAllValid();
  /// Number of records currently marked invalid.
  size_t InvalidCount() const;

  // ---- whole-block operations ----

  /// Time span covered ([0,0] when empty); assumes time-sorted columns.
  TimeRange Span() const {
    if (Empty()) return {};
    return {timestamps.front(), timestamps.back()};
  }

  /// Stable sort of all columns by timestamp — the same permutation
  /// PositioningSequence::SortByTime applies to AoS records.
  void SortByTime();

  // ---- conversions ----

  /// Refills this block from a sequence, reusing the column buffers.
  void AssignFrom(const PositioningSequence& seq);

  /// Materializes the block into `out`, reusing its record buffer.
  void MaterializeTo(PositioningSequence* out) const;

  /// Convenience: a freshly allocated AoS copy.
  PositioningSequence ToSequence() const;

  /// Convenience: a freshly allocated block copy of `seq`.
  static RecordBlock FromSequence(const PositioningSequence& seq);
};

}  // namespace trips::positioning
