#include "store/segment_codec.h"

#include <algorithm>
#include <cstring>
#include <map>

namespace trips::store {

namespace {

// Fixed trailer of a v2 blob: nine u64 section/count fields, a flag byte
// (padded to 4), the prefix checksum and the trailing magic.
constexpr size_t kFooterSize = 9 * 8 + 4 + 8 + sizeof(kSegmentFooterMagic);
constexpr size_t kHeaderSize = sizeof(kSegmentMagicV2) + 1;  // magic + version

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutFixed32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void PutFixed64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint32_t GetFixed32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  return v;
}

uint64_t GetFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  return v;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Bounds-checked sequential reader over the blob.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= bytes_.size()) return false;
      uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return (*out = v, true);
    }
    return false;  // varint longer than 64 bits
  }

  bool ReadString(std::string* out) {
    uint64_t len = 0;
    if (!ReadVarint(&len)) return false;
    if (len > bytes_.size() - pos_) return false;
    out->assign(bytes_.data() + pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return true;
  }

  bool Exhausted() const { return pos_ == bytes_.size(); }

  size_t Remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

// First-appearance string interner.
class StringTable {
 public:
  uint64_t Intern(const std::string& s) {
    auto [it, inserted] = ids_.try_emplace(s, strings_.size());
    if (inserted) strings_.push_back(s);
    return it->second;
  }
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::map<std::string, uint64_t> ids_;
  std::vector<std::string> strings_;
};

Result<std::vector<std::string>> DecodeStringTable(Reader* reader) {
  // Every decoded entry consumes at least one byte, so a count exceeding the
  // remaining bytes is corrupt — reject it before reserve() can blow up on an
  // absurd value.
  uint64_t table_size = 0;
  if (!reader->ReadVarint(&table_size) || table_size > reader->Remaining()) {
    return Status::ParseError("truncated segment string table");
  }
  std::vector<std::string> table;
  table.reserve(static_cast<size_t>(table_size));
  for (uint64_t i = 0; i < table_size; ++i) {
    std::string s;
    if (!reader->ReadString(&s)) {
      return Status::ParseError("truncated segment string table");
    }
    table.push_back(std::move(s));
  }
  return table;
}

// Decodes one triplet from its five column values. Append only stores Valid()
// (begin <= end) ranges, so a negative duration — or a delta/duration that
// overflows int64 — can only come from corruption; reject it rather than
// indexing a range the store's own ingest path would have refused.
bool BuildTriplet(const std::vector<std::string>& table, uint64_t event,
                  uint64_t region, uint64_t name, uint64_t delta,
                  uint64_t duration, TimestampMs* prev_end,
                  core::MobilitySemantic* out) {
  if ((event >> 1) >= table.size() || name >= table.size()) return false;
  out->inferred = (event & 1) != 0;
  out->event = table[event >> 1];
  out->region = static_cast<dsm::RegionId>(UnZigZag(region));
  out->region_name = table[name];
  int64_t duration_ms = UnZigZag(duration);
  if (duration_ms < 0 ||
      __builtin_add_overflow(*prev_end, UnZigZag(delta), &out->range.begin) ||
      __builtin_add_overflow(out->range.begin, duration_ms, &out->range.end)) {
    return false;
  }
  *prev_end = out->range.end;
  return true;
}

// The fixed v2 footer fields, as laid out on disk.
struct RawFooter {
  uint64_t string_table_off = 0;
  uint64_t body_off = 0;
  uint64_t seq_offsets_off = 0;
  uint64_t index_off = 0;
  uint64_t sequence_count = 0;
  uint64_t triplet_count = 0;
  uint64_t base_ordinal = 0;
  int64_t span_begin = 0;
  int64_t span_end = 0;
  bool has_span = false;
  uint64_t checksum = 0;
};

Result<RawFooter> ParseRawFooter(std::string_view bytes) {
  if (bytes.size() < kHeaderSize + kFooterSize ||
      std::memcmp(bytes.data(), kSegmentMagicV2, sizeof(kSegmentMagicV2)) != 0) {
    return Status::ParseError("not a v2 TripStore segment (bad magic)");
  }
  if (bytes[sizeof(kSegmentMagicV2)] != 2) {
    return Status::ParseError("unsupported v2 segment version");
  }
  const char* footer = bytes.data() + bytes.size() - kFooterSize;
  if (std::memcmp(bytes.data() + bytes.size() - sizeof(kSegmentFooterMagic),
                  kSegmentFooterMagic, sizeof(kSegmentFooterMagic)) != 0) {
    return Status::ParseError("truncated v2 segment (bad footer magic)");
  }
  RawFooter f;
  f.string_table_off = GetFixed64(footer);
  f.body_off = GetFixed64(footer + 8);
  f.seq_offsets_off = GetFixed64(footer + 16);
  f.index_off = GetFixed64(footer + 24);
  f.sequence_count = GetFixed64(footer + 32);
  f.triplet_count = GetFixed64(footer + 40);
  f.base_ordinal = GetFixed64(footer + 48);
  f.span_begin = static_cast<int64_t>(GetFixed64(footer + 56));
  f.span_end = static_cast<int64_t>(GetFixed64(footer + 64));
  f.has_span = footer[72] != 0;
  f.checksum = GetFixed64(footer + 76);
  size_t footer_off = bytes.size() - kFooterSize;
  if (f.string_table_off != kHeaderSize || f.body_off < f.string_table_off ||
      f.seq_offsets_off < f.body_off || f.index_off < f.seq_offsets_off ||
      f.index_off > footer_off ||
      f.seq_offsets_off + f.sequence_count * 4 != f.index_off) {
    return Status::ParseError("corrupt v2 segment section offsets");
  }
  return f;
}

}  // namespace

uint64_t SegmentChecksum(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (unsigned char c : std::string_view(bytes)) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a 64 prime
  }
  return h;
}

std::string EncodeSegmentV2(
    const std::vector<core::MobilitySemanticsSequence>& sequences,
    uint64_t base_ordinal) {
  StringTable table;
  std::string body;
  std::vector<uint32_t> seq_offsets;
  seq_offsets.reserve(sequences.size());

  // Index-block accumulators, gathered during the body pass.
  TimeRange span{0, 0};
  bool has_span = false;
  uint64_t triplet_count = 0;
  std::map<dsm::RegionId, std::vector<SegmentFooter::RegionEntry>> postings;
  std::map<std::pair<dsm::RegionId, dsm::RegionId>, uint64_t> flow;

  for (size_t i = 0; i < sequences.size(); ++i) {
    const core::MobilitySemanticsSequence& seq = sequences[i];
    seq_offsets.push_back(static_cast<uint32_t>(body.size()));
    PutVarint(&body, table.Intern(seq.device_id));
    PutVarint(&body, seq.semantics.size());
    // Columnar triplet layout: one varint run per field over the whole
    // sequence, so each column compresses and scans as a unit.
    TimestampMs prev_end = 0;
    for (const core::MobilitySemantic& s : seq.semantics) {
      PutVarint(&body, (table.Intern(s.event) << 1) | (s.inferred ? 1 : 0));
    }
    for (const core::MobilitySemantic& s : seq.semantics) {
      PutVarint(&body, ZigZag(s.region));
    }
    for (const core::MobilitySemantic& s : seq.semantics) {
      PutVarint(&body, table.Intern(s.region_name));
    }
    for (const core::MobilitySemantic& s : seq.semantics) {
      PutVarint(&body, ZigZag(s.range.begin - prev_end));
      prev_end = s.range.end;
    }
    for (const core::MobilitySemantic& s : seq.semantics) {
      PutVarint(&body, ZigZag(s.range.Duration()));
    }

    // Index contributions: the exact data TripStore::IndexSequenceLocked
    // derives at ingest, so an index rebuilt from the footer is identical to
    // one rebuilt from the decoded sequences.
    std::map<dsm::RegionId, TimeRange> fences;
    dsm::RegionId prev = dsm::kInvalidRegion;
    for (const core::MobilitySemantic& s : seq.semantics) {
      ++triplet_count;
      if (!has_span) {
        span = s.range;
        has_span = true;
      } else {
        span.begin = std::min(span.begin, s.range.begin);
        span.end = std::max(span.end, s.range.end);
      }
      if (s.region == dsm::kInvalidRegion) continue;
      auto [it, inserted] = fences.try_emplace(s.region, s.range);
      if (!inserted) {
        it->second.begin = std::min(it->second.begin, s.range.begin);
        it->second.end = std::max(it->second.end, s.range.end);
      }
      if (prev != dsm::kInvalidRegion && prev != s.region) {
        ++flow[{prev, s.region}];
      }
      prev = s.region;
    }
    for (const auto& [region, fence] : fences) {
      postings[region].push_back({region, static_cast<uint32_t>(i), fence});
    }
  }

  std::string out(kSegmentMagicV2, sizeof(kSegmentMagicV2));
  out.push_back(2);  // version
  uint64_t string_table_off = out.size();
  PutVarint(&out, table.strings().size());
  for (const std::string& s : table.strings()) {
    PutVarint(&out, s.size());
    out += s;
  }
  uint64_t body_off = out.size();
  out += body;
  uint64_t seq_offsets_off = out.size();
  for (uint32_t off : seq_offsets) PutFixed32(&out, off);
  uint64_t index_off = out.size();

  // Index block: per-sequence meta, region postings, flow deltas.
  for (const core::MobilitySemanticsSequence& seq : sequences) {
    PutVarint(&out, table.Intern(seq.device_id));  // already interned
    PutVarint(&out, seq.semantics.size());
  }
  PutVarint(&out, postings.size());
  for (const auto& [region, entries] : postings) {
    PutVarint(&out, ZigZag(region));
    PutVarint(&out, entries.size());
    for (const SegmentFooter::RegionEntry& e : entries) {
      PutVarint(&out, e.sequence);
      PutVarint(&out, ZigZag(e.fence.begin));
      PutVarint(&out, ZigZag(e.fence.Duration()));
    }
  }
  PutVarint(&out, flow.size());
  for (const auto& [pair, count] : flow) {
    PutVarint(&out, ZigZag(pair.first));
    PutVarint(&out, ZigZag(pair.second));
    PutVarint(&out, count);
  }

  uint64_t checksum = SegmentChecksum(out);  // everything before the footer
  PutFixed64(&out, string_table_off);
  PutFixed64(&out, body_off);
  PutFixed64(&out, seq_offsets_off);
  PutFixed64(&out, index_off);
  PutFixed64(&out, sequences.size());
  PutFixed64(&out, triplet_count);
  PutFixed64(&out, base_ordinal);
  PutFixed64(&out, static_cast<uint64_t>(span.begin));
  PutFixed64(&out, static_cast<uint64_t>(span.end));
  out.push_back(has_span ? 1 : 0);
  out.append(3, '\0');  // padding
  PutFixed64(&out, checksum);
  out.append(kSegmentFooterMagic, sizeof(kSegmentFooterMagic));
  return out;
}

Result<SegmentFooter> ReadSegmentFooter(std::string_view bytes) {
  TRIPS_ASSIGN_OR_RETURN(RawFooter raw, ParseRawFooter(bytes));
  SegmentFooter footer;
  footer.sequence_count = raw.sequence_count;
  footer.triplet_count = raw.triplet_count;
  footer.base_ordinal = raw.base_ordinal;
  footer.span = {raw.span_begin, raw.span_end};
  footer.has_span = raw.has_span;
  footer.checksum = raw.checksum;

  // The per-sequence device ids live in the string table; the index block
  // references them by id. Both sections are tail-adjacent enough that an
  // open touches only a handful of pages even on large segments.
  Reader table_reader(
      bytes.substr(raw.string_table_off, raw.body_off - raw.string_table_off));
  TRIPS_ASSIGN_OR_RETURN(std::vector<std::string> table,
                         DecodeStringTable(&table_reader));

  Reader reader(bytes.substr(raw.index_off,
                             bytes.size() - kFooterSize - raw.index_off));
  footer.devices.reserve(static_cast<size_t>(raw.sequence_count));
  footer.seq_triplets.reserve(static_cast<size_t>(raw.sequence_count));
  for (uint64_t i = 0; i < raw.sequence_count; ++i) {
    uint64_t device = 0, triplets = 0;
    if (!reader.ReadVarint(&device) || device >= table.size() ||
        !reader.ReadVarint(&triplets)) {
      return Status::ParseError("corrupt v2 segment index (sequence meta)");
    }
    footer.devices.push_back(table[device]);
    footer.seq_triplets.push_back(static_cast<uint32_t>(triplets));
  }
  uint64_t region_count = 0;
  if (!reader.ReadVarint(&region_count) || region_count > reader.Remaining()) {
    return Status::ParseError("corrupt v2 segment index (regions)");
  }
  for (uint64_t r = 0; r < region_count; ++r) {
    uint64_t region = 0, count = 0;
    if (!reader.ReadVarint(&region) || !reader.ReadVarint(&count) ||
        count > reader.Remaining()) {
      return Status::ParseError("corrupt v2 segment index (postings)");
    }
    for (uint64_t p = 0; p < count; ++p) {
      uint64_t seq = 0, begin = 0, duration = 0;
      if (!reader.ReadVarint(&seq) || seq >= raw.sequence_count ||
          !reader.ReadVarint(&begin) || !reader.ReadVarint(&duration)) {
        return Status::ParseError("corrupt v2 segment index (postings)");
      }
      SegmentFooter::RegionEntry entry;
      entry.region = static_cast<dsm::RegionId>(UnZigZag(region));
      entry.sequence = static_cast<uint32_t>(seq);
      entry.fence.begin = UnZigZag(begin);
      entry.fence.end = entry.fence.begin + UnZigZag(duration);
      footer.postings.push_back(entry);
    }
  }
  uint64_t flow_count = 0;
  if (!reader.ReadVarint(&flow_count) || flow_count > reader.Remaining()) {
    return Status::ParseError("corrupt v2 segment index (flow)");
  }
  for (uint64_t i = 0; i < flow_count; ++i) {
    uint64_t from = 0, to = 0, count = 0;
    if (!reader.ReadVarint(&from) || !reader.ReadVarint(&to) ||
        !reader.ReadVarint(&count)) {
      return Status::ParseError("corrupt v2 segment index (flow)");
    }
    footer.flow.push_back({static_cast<dsm::RegionId>(UnZigZag(from)),
                           static_cast<dsm::RegionId>(UnZigZag(to)), count});
  }
  if (!reader.Exhausted()) {
    return Status::ParseError("trailing bytes after v2 segment index");
  }
  return footer;
}

Result<std::vector<core::MobilitySemanticsSequence>> DecodeSegment(
    std::string_view bytes) {
  TRIPS_ASSIGN_OR_RETURN(RawFooter raw, ParseRawFooter(bytes));
  if (SegmentChecksum(bytes.substr(0, bytes.size() - kFooterSize)) !=
      raw.checksum) {
    return Status::ParseError("v2 segment checksum mismatch");
  }
  Reader table_reader(
      bytes.substr(raw.string_table_off, raw.body_off - raw.string_table_off));
  TRIPS_ASSIGN_OR_RETURN(std::vector<std::string> table,
                         DecodeStringTable(&table_reader));
  std::string_view body =
      bytes.substr(raw.body_off, raw.seq_offsets_off - raw.body_off);
  std::string_view offsets =
      bytes.substr(raw.seq_offsets_off, raw.index_off - raw.seq_offsets_off);

  std::vector<core::MobilitySemanticsSequence> sequences;
  sequences.reserve(static_cast<size_t>(raw.sequence_count));
  for (uint64_t i = 0; i < raw.sequence_count; ++i) {
    uint32_t off = GetFixed32(offsets.data() + i * 4);
    if (off > body.size()) {
      return Status::ParseError("corrupt v2 segment sequence offset");
    }
    Reader reader(body.substr(off));
    core::MobilitySemanticsSequence seq;
    uint64_t device = 0, triplet_count = 0;
    // A triplet costs at least 5 bytes across its five columns.
    if (!reader.ReadVarint(&device) || device >= table.size() ||
        !reader.ReadVarint(&triplet_count) ||
        triplet_count > reader.Remaining() / 5) {
      return Status::ParseError("truncated v2 segment sequence header");
    }
    size_t n = static_cast<size_t>(triplet_count);
    seq.device_id = table[device];
    // Columns in layout order; events/regions/names/deltas/durations.
    std::vector<uint64_t> events(n), regions(n), names(n), deltas(n),
        durations(n);
    for (auto* column : {&events, &regions, &names, &deltas, &durations}) {
      for (size_t j = 0; j < n; ++j) {
        if (!reader.ReadVarint(&(*column)[j])) {
          return Status::ParseError("truncated v2 segment column");
        }
      }
    }
    seq.semantics.resize(n);
    TimestampMs prev_end = 0;
    for (size_t j = 0; j < n; ++j) {
      if (!BuildTriplet(table, events[j], regions[j], names[j], deltas[j],
                        durations[j], &prev_end, &seq.semantics[j])) {
        return Status::ParseError("invalid triplet in v2 segment");
      }
    }
    sequences.push_back(std::move(seq));
  }
  return sequences;
}

}  // namespace trips::store
