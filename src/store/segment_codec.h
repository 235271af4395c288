// Binary segment codec for the TripStore.
//
// A segment ("TSG2") encodes a batch of mobility semantics sequences into one
// self-contained blob laid out for memory-mapped, lazy reads. Device ids,
// event names and region names are interned into a per-segment string table;
// timestamps are delta-encoded (begin as a zigzag delta from the previous
// triplet's end, end as a plain duration), so the dominant cost per triplet
// is a handful of small varints instead of two 8-byte timestamps and three
// strings. The encoding is deterministic (first-appearance interning order),
// so decode(encode(x)) == x structurally and encode(decode(b)) == b
// byte-for-byte on codec-produced blobs.
//
//   [magic "TSG2"][version=2]
//   [string table]            varint count, then (varint len, bytes)*
//   [body]                    per-sequence blocks; inside each block the
//                             triplet fields are columnar (all event ids,
//                             then all regions, names, begin deltas,
//                             durations), each column a varint run
//   [sequence offset table]   fixed-width u32 per sequence: block offset
//                             relative to body start (random access /
//                             parallel decode without scanning)
//   [index block]             everything TripStore::Open needs to rebuild
//                             its indexes WITHOUT touching the body: per-
//                             sequence device id + triplet count + span,
//                             region postings with time fences, flow deltas
//   [footer]                  fixed-size trailer: section offsets, counts,
//                             segment time fence, body checksum, base-ordinal
//                             hint, trailing magic "F2ST"
//
// A cold open therefore reads only the footer and index block (the tail
// pages of the mapping); triplet columns are paged in on the first query
// that actually materializes the segment, and the checksum over everything
// before the footer is verified then. Blobs of the retired v1 format
// ("TSG1", written before the footer existed) are rejected like any other
// foreign bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/semantics.h"
#include "dsm/entity.h"
#include "util/result.h"

namespace trips::store {

/// Leading bytes of every encoded segment.
inline constexpr char kSegmentMagicV2[4] = {'T', 'S', 'G', '2'};
/// Trailing bytes of every encoded segment (footer integrity mark).
inline constexpr char kSegmentFooterMagic[4] = {'F', '2', 'S', 'T'};

/// Encodes `sequences` into one (mmap-readable) segment blob.
/// `base_ordinal` is the store-global append ordinal of sequences.front() at
/// write time — a recovery hint that lets a manifest-less directory scan
/// restore append order even after compaction renumbered the files.
std::string EncodeSegmentV2(
    const std::vector<core::MobilitySemanticsSequence>& sequences,
    uint64_t base_ordinal);

/// Decodes a segment blob in full. Fails with ParseError on a foreign magic,
/// an unknown version, a checksum mismatch, or a truncated/corrupt body.
Result<std::vector<core::MobilitySemanticsSequence>> DecodeSegment(
    std::string_view bytes);

/// The parsed footer + index block of a segment — everything the store
/// needs to index the segment without decoding the body columns.
struct SegmentFooter {
  /// One region's postings contribution: sequence ordinal (within the
  /// segment) plus the union time fence of its visits to the region.
  struct RegionEntry {
    dsm::RegionId region = dsm::kInvalidRegion;
    uint32_t sequence = 0;  ///< ordinal within the segment
    TimeRange fence;
  };
  /// One flow-matrix contribution of the segment.
  struct FlowEntry {
    dsm::RegionId from = dsm::kInvalidRegion;
    dsm::RegionId to = dsm::kInvalidRegion;
    uint64_t count = 0;
  };

  uint64_t sequence_count = 0;
  uint64_t triplet_count = 0;
  uint64_t base_ordinal = 0;  ///< store-global ordinal of the first sequence
  TimeRange span;             ///< union span of every triplet
  bool has_span = false;
  uint64_t checksum = 0;      ///< FNV-1a over everything before the footer

  std::vector<std::string> devices;       ///< per-sequence device id
  std::vector<uint32_t> seq_triplets;     ///< per-sequence triplet count
  /// Region postings ascending by (region, sequence ordinal) — the same
  /// per-region enumeration order TripStore's ingest-time indexing produces.
  std::vector<RegionEntry> postings;
  /// Flow deltas ascending by (from, to).
  std::vector<FlowEntry> flow;
};

/// Parses the footer + index block of a blob without touching the body
/// columns (reads only the mapping's tail pages). Fails with ParseError on a
/// foreign magic, a truncated footer, or a corrupt index block.
Result<SegmentFooter> ReadSegmentFooter(std::string_view bytes);

/// FNV-1a 64 over `bytes` — the integrity checksum stored in segment footers
/// and the store manifest.
uint64_t SegmentChecksum(std::string_view bytes);

}  // namespace trips::store
