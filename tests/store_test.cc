#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/result_io.h"
#include "core/service.h"
#include "dsm/sample_spaces.h"
#include "json/json.h"
#include "mobility/generator.h"
#include "positioning/error_model.h"
#include "store/compaction.h"
#include "store/manifest.h"
#include "store/segment_codec.h"
#include "store/trip_store.h"
#include "testing/reference_store.h"
#include "viewer/store_view.h"

namespace trips::store {
namespace {

core::MobilitySemantic Triplet(const std::string& event, dsm::RegionId region,
                               const std::string& name, TimestampMs begin,
                               TimestampMs end, bool inferred = false) {
  return {event, region, name, {begin, end}, inferred};
}

// The shared round-trip corpus: inferred flags, unnamed regions, unmatched
// regions, zero-duration ranges, repeated strings, an empty sequence, and a
// non-ASCII device id — the cases both codecs must carry losslessly.
std::vector<core::MobilitySemanticsSequence> TrickyCorpus() {
  std::vector<core::MobilitySemanticsSequence> corpus;

  core::MobilitySemanticsSequence full;
  full.device_id = "3a.6f.14";
  full.semantics.push_back(Triplet(core::kEventStay, 1, "Adidas",
                                   1'483'264'800'000, 1'483'265'700'000));
  full.semantics.push_back(Triplet(core::kEventPassBy, 0, "",  // unnamed region
                                   1'483'265'700'000, 1'483'265'760'000));
  full.semantics.push_back(Triplet(core::kEventWander, 2, "Hall-7",
                                   1'483'265'760'000, 1'483'266'000'000,
                                   /*inferred=*/true));
  full.semantics.push_back(Triplet(core::kEventUnknown, dsm::kInvalidRegion, "",
                                   1'483'266'000'000, 1'483'266'000'000));
  corpus.push_back(full);

  core::MobilitySemanticsSequence empty;
  empty.device_id = "device-with-no-triplets";
  corpus.push_back(empty);

  core::MobilitySemanticsSequence unicode;
  unicode.device_id = "设备-β";
  unicode.semantics.push_back(
      Triplet(core::kEventStay, 1, "Adidas", 0, 60'000, /*inferred=*/true));
  corpus.push_back(unicode);

  return corpus;
}

// Brute-force reference for RegionVisitors: scan every stored sequence.
std::vector<RegionVisit> BruteForceVisitors(const TripStore& stored,
                                            dsm::RegionId region, TimestampMs t0,
                                            TimestampMs t1) {
  std::vector<RegionVisit> visits;
  stored.ForEachSequence([&](TripStore::SequenceId,
                             const core::MobilitySemanticsSequence& seq) {
    for (const core::MobilitySemantic& s : seq.semantics) {
      if (s.region == region && s.range.Overlaps({t0, t1})) {
        visits.push_back({seq.device_id, s});
      }
    }
  });
  std::sort(visits.begin(), visits.end(),
            [](const RegionVisit& a, const RegionVisit& b) {
              if (a.visit.range.begin != b.visit.range.begin) {
                return a.visit.range.begin < b.visit.range.begin;
              }
              if (a.device_id != b.device_id) return a.device_id < b.device_id;
              return a.visit.range.end < b.visit.range.end;
            });
  return visits;
}

// Live segment files in a store directory, recursing into part-*/ partition
// subdirectories.
size_t CountSegmentFiles(const std::string& directory) {
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(directory)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tseg") {
      ++files;
    }
  }
  return files;
}

// A well-formed segment of the retired v1 format ("TSG1", no footer): one
// sequence of device "legacy-dev" with one stay in region 1 ("R1") over
// [0, 60] ms. The v1 layout is magic, version 1, the string table, the
// sequence count, then per sequence the device id, the triplet count and each
// triplet's event<<1|inferred, zigzag region, name, zigzag begin delta and
// zigzag duration as varints.
std::string LegacyV1Segment() {
  std::string blob("TSG1\x01", 5);
  blob += "\x03\x0alegacy-dev\x04stay\x02R1";  // 3 strings
  blob += std::string("\x01\x00\x01", 3);  // 1 sequence: device 0, 1 triplet
  blob += std::string("\x02\x02\x02\x00\x78", 5);  // stay, 1, "R1", +0, 60 ms
  return blob;
}

// The fixed footer that ends every segment blob: nine u64 fields (section
// offsets, counts, base ordinal, span), a padded flag word, the checksum of
// everything before the footer, and the trailing magic.
constexpr size_t kFooterChecksumAt = 9 * 8 + 4;
constexpr size_t kFooterBytes = kFooterChecksumAt + 8 + 4;
constexpr size_t kFooterBodyOffset = 1;        // u64 field: body start
constexpr size_t kFooterSeqOffsetsOffset = 2;  // u64 field: offset table start

uint64_t FooterField(const std::string& blob, size_t field) {
  const char* p = blob.data() + blob.size() - kFooterBytes + 8 * field;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

// Recomputes the footer checksum after an edit of the bytes before the
// footer, so the edited blob passes the checksum and reaches the body parser.
void Reseal(std::string* blob) {
  const size_t footer = blob->size() - kFooterBytes;
  uint64_t checksum = SegmentChecksum(std::string_view(*blob).substr(0, footer));
  for (int i = 0; i < 8; ++i) {
    (*blob)[footer + kFooterChecksumAt + i] =
        static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
}

// Every query surface of a store folded into one comparable string: stats,
// per-device histories, the flow matrix, and region/range scans over several
// windows. Two stores of the same corpus must produce the same signature no
// matter how the corpus is segmented, partitioned, mapped, or compacted.
std::string AnswerSignature(const TripStore& stored) {
  std::ostringstream out;
  StoreStats stats = stored.Stats();
  out << stats.sequences << '|' << stats.triplets << '|' << stats.devices
      << '|' << stats.span.begin << ',' << stats.span.end << '\n';
  for (const std::string& device : stored.Devices()) {
    out << device << '='
        << core::SemanticsToJson(stored.DeviceHistory(device)).Dump() << '\n';
  }
  for (const auto& [from, row] : stored.FlowMatrix()) {
    for (const auto& [to, count] : row) {
      out << from << "->" << to << ':' << count << ' ';
    }
  }
  out << '\n';
  const TimeRange span = stats.span;
  const TimeRange windows[] = {
      span,
      {span.begin, span.begin + kMillisPerMinute},
      {span.begin + (span.end - span.begin) / 3,
       span.begin + (span.end - span.begin) / 2},
      {span.end + kMillisPerMinute, span.end + 2 * kMillisPerMinute},
  };
  for (const TimeRange& w : windows) {
    for (dsm::RegionId region = -1; region < 6; ++region) {
      for (const RegionVisit& v : stored.RegionVisitors(region, w.begin, w.end)) {
        out << v.device_id << '@' << v.visit.range.begin << '-'
            << v.visit.range.end << ';';
      }
      out << '|';
    }
    for (const core::MobilitySemanticsSequence& seq :
         stored.SequencesInRange(w.begin, w.end)) {
      out << seq.device_id << '#' << seq.semantics.size() << ';';
    }
    out << '\n';
  }
  return out.str();
}

TEST(SegmentCodecV2Test, RoundTripIsLosslessAndByteStable) {
  std::vector<core::MobilitySemanticsSequence> corpus = TrickyCorpus();
  std::string blob = EncodeSegmentV2(corpus, /*base_ordinal=*/17);
  ASSERT_GT(blob.size(), 8u);
  EXPECT_EQ(blob.substr(0, 4), std::string(kSegmentMagicV2, 4));
  EXPECT_EQ(blob.substr(blob.size() - 4), std::string(kSegmentFooterMagic, 4));

  auto decoded = DecodeSegment(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ((*decoded)[i].device_id, corpus[i].device_id) << i;
    EXPECT_EQ((*decoded)[i].semantics, corpus[i].semantics) << i;
  }
  EXPECT_EQ(EncodeSegmentV2(*decoded, 17), blob);
}

TEST(SegmentCodecV2Test, FooterIndexesWithoutTouchingTheBody) {
  std::vector<core::MobilitySemanticsSequence> corpus = TrickyCorpus();
  std::string blob = EncodeSegmentV2(corpus, /*base_ordinal=*/17);
  auto footer = ReadSegmentFooter(blob);
  ASSERT_TRUE(footer.ok()) << footer.status().ToString();
  EXPECT_EQ(footer->sequence_count, 3u);
  EXPECT_EQ(footer->triplet_count, 5u);
  EXPECT_EQ(footer->base_ordinal, 17u);
  ASSERT_TRUE(footer->has_span);
  EXPECT_EQ(footer->span.begin, 0);  // the unicode sequence starts at t=0
  EXPECT_EQ(footer->span.end, 1'483'266'000'000);
  EXPECT_NE(footer->checksum, 0u);
  ASSERT_EQ(footer->devices.size(), 3u);
  EXPECT_EQ(footer->devices[0], "3a.6f.14");
  EXPECT_EQ(footer->devices[1], "device-with-no-triplets");
  EXPECT_EQ(footer->devices[2], "设备-β");
  EXPECT_EQ(footer->seq_triplets, (std::vector<uint32_t>{4, 0, 1}));
  // Postings ascend by (region, sequence); kInvalidRegion is never indexed.
  ASSERT_EQ(footer->postings.size(), 4u);
  EXPECT_EQ(footer->postings[0].region, 0);
  EXPECT_EQ(footer->postings[0].sequence, 0u);
  EXPECT_EQ(footer->postings[1].region, 1);
  EXPECT_EQ(footer->postings[1].sequence, 0u);
  EXPECT_EQ(footer->postings[2].region, 1);
  EXPECT_EQ(footer->postings[2].sequence, 2u);
  EXPECT_EQ(footer->postings[3].region, 2);
  EXPECT_EQ(footer->postings[3].sequence, 0u);
  // Sequence 0 moves 1 -> 0 -> 2 (the invalid-region triplet breaks no edge).
  ASSERT_EQ(footer->flow.size(), 2u);
  EXPECT_EQ(footer->flow[0].from, 0);
  EXPECT_EQ(footer->flow[0].to, 2);
  EXPECT_EQ(footer->flow[0].count, 1u);
  EXPECT_EQ(footer->flow[1].from, 1);
  EXPECT_EQ(footer->flow[1].to, 0);
  EXPECT_EQ(footer->flow[1].count, 1u);
}

TEST(SegmentCodecV2Test, RejectsCorruptBlobs) {
  EXPECT_FALSE(DecodeSegment("").ok());
  EXPECT_FALSE(DecodeSegment("JSON{}").ok());
  std::string blob = EncodeSegmentV2(TrickyCorpus(), 0);
  // Truncation kills both the full decode and the footer parse.
  std::string_view half = std::string_view(blob).substr(0, blob.size() / 2);
  EXPECT_FALSE(DecodeSegment(half).ok());
  EXPECT_FALSE(ReadSegmentFooter(half).ok());
  // A bit flip in the body trips the checksum on decode.
  std::string flipped = blob;
  flipped[blob.size() / 2] ^= 0x40;
  EXPECT_FALSE(DecodeSegment(flipped).ok());
  // A damaged trailing magic invalidates the footer.
  std::string bad_tail = blob;
  bad_tail[blob.size() - 1] ^= 0x01;
  EXPECT_FALSE(ReadSegmentFooter(bad_tail).ok());
  EXPECT_FALSE(DecodeSegment(bad_tail).ok());
  // Blobs of the retired v1 format are foreign bytes to both parsers.
  EXPECT_FALSE(ReadSegmentFooter(LegacyV1Segment()).ok());
  EXPECT_FALSE(DecodeSegment(LegacyV1Segment()).ok());
  std::string v1_magic = blob;
  v1_magic[3] = '1';
  EXPECT_FALSE(ReadSegmentFooter(v1_magic).ok());
  EXPECT_FALSE(DecodeSegment(v1_magic).ok());
  EXPECT_FALSE(ReadSegmentFooter("").ok());
}

// Corrupt bodies whose checksum was recomputed to match: the footer parse and
// the checksum pass, so only the body parser's own guards stand between the
// bytes and the decoded sequences.
TEST(SegmentCodecV2Test, BodyGuardsRejectCorruptionUnderAValidChecksum) {
  core::MobilitySemanticsSequence seq;
  seq.device_id = "d";
  seq.semantics.push_back(Triplet(core::kEventStay, 1, "R", 100, 130));
  const std::string blob = EncodeSegmentV2({seq}, 0);
  const size_t body = static_cast<size_t>(FooterField(blob, kFooterBodyOffset));
  const size_t offsets =
      static_cast<size_t>(FooterField(blob, kFooterSeqOffsetsOffset));
  // The one sequence block: device id, triplet count, then the five columns,
  // the last of which is the duration zigzag(30) = 60.
  ASSERT_EQ(blob[body + 1], 1);
  ASSERT_EQ(blob[offsets - 1], 60);
  std::string resealed = blob;
  Reseal(&resealed);
  ASSERT_EQ(resealed, blob);
  ASSERT_TRUE(DecodeSegment(resealed).ok());

  auto rejects = [](std::string edited, const std::string& guard) {
    Reseal(&edited);
    ASSERT_TRUE(ReadSegmentFooter(edited).ok()) << guard;
    Status status = DecodeSegment(edited).status();
    EXPECT_EQ(status.code(), StatusCode::kParseError) << guard;
    EXPECT_NE(status.message().find(guard), std::string::npos)
        << status.ToString();
  };
  // A triplet count larger than the bytes left could ever hold.
  std::string huge_count = blob;
  huge_count[body + 1] = 0x7f;
  rejects(huge_count, "sequence header");
  // A negative duration, zigzag(-1) = 1: Append never stores end < begin.
  std::string negative = blob;
  negative[offsets - 1] = 0x01;
  rejects(negative, "invalid triplet");
  // A sequence offset one past the end of the body.
  std::string past_end = blob;
  past_end[offsets] = static_cast<char>(offsets - body + 1);
  rejects(past_end, "sequence offset");
}

TEST(CompactionPlanTest, MergesOldestAdjacentRun) {
  std::vector<CompactionCandidate> candidates = {
      {0, 4, 0, true}, {1, 2, 0, true}, {2, 2, 0, true}, {3, 3, 0, false}};
  CompactionPlan plan = PlanCompaction(candidates, /*max_sequences=*/4,
                                       /*min_run=*/2);
  EXPECT_EQ(plan.begin, 1u);  // the full head segment is left alone
  EXPECT_EQ(plan.end, 3u);
}

TEST(CompactionPlanTest, EmptyWhenNothingCanMerge) {
  EXPECT_TRUE(PlanCompaction({}, 8, 2).empty());
  std::vector<CompactionCandidate> full = {{0, 4, 0, true}, {1, 4, 0, true}};
  EXPECT_TRUE(PlanCompaction(full, 4, 2).empty());
  std::vector<CompactionCandidate> unsealed = {{0, 1, 0, false},
                                               {1, 1, 0, false}};
  EXPECT_TRUE(PlanCompaction(unsealed, 4, 2).empty());
  std::vector<CompactionCandidate> lone = {{0, 1, 0, true}};
  EXPECT_TRUE(PlanCompaction(lone, 4, 2).empty());
}

TEST(CompactionPlanTest, NeverMergesAcrossPartitions) {
  std::vector<CompactionCandidate> candidates = {{0, 1, 10, true},
                                                 {1, 1, 11, true}};
  EXPECT_TRUE(PlanCompaction(candidates, 4, 2).empty());
  candidates.push_back({2, 1, 11, true});
  CompactionPlan plan = PlanCompaction(candidates, 4, 2);
  EXPECT_EQ(plan.begin, 1u);
  EXPECT_EQ(plan.end, 3u);
}

TEST(CompactionPlanTest, CapacityBreakStillFindsLaterRun) {
  // The run headed at 0 ({9,1}) stops on capacity below min_run; the planner
  // must still find {1,4,4} starting inside the abandoned window.
  std::vector<CompactionCandidate> candidates = {
      {0, 9, 0, true}, {1, 1, 0, true}, {2, 4, 0, true}, {3, 4, 0, true}};
  CompactionPlan plan = PlanCompaction(candidates, /*max_sequences=*/10,
                                       /*min_run=*/3);
  EXPECT_EQ(plan.begin, 1u);
  EXPECT_EQ(plan.end, 4u);
}

TEST(CompactionPlanTest, RespectsMinRun) {
  std::vector<CompactionCandidate> candidates = {{0, 1, 0, true},
                                                 {1, 1, 0, true}};
  EXPECT_TRUE(PlanCompaction(candidates, 8, 3).empty());
  EXPECT_FALSE(PlanCompaction(candidates, 8, 2).empty());
}

TEST(ManifestTest, RoundTripsAndRejectsTornFiles) {
  std::string dir = ::testing::TempDir() + "/trips_manifest_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_FALSE(ReadManifest(dir).ok());  // NotFound on a fresh directory

  Manifest manifest;
  manifest.segments.push_back(
      {"part-0/segment-000000.tseg", 0, 3, 0, 0xdeadbeefdeadbeefull});
  manifest.segments.push_back({"segment-000001.tseg", 3, 1, -2, 1});
  ASSERT_TRUE(WriteManifest(dir, manifest).ok());
  auto back = ReadManifest(dir);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->segments.size(), 2u);
  EXPECT_EQ(back->segments[0].file, "part-0/segment-000000.tseg");
  EXPECT_EQ(back->segments[0].base_ordinal, 0u);
  EXPECT_EQ(back->segments[0].sequences, 3u);
  EXPECT_EQ(back->segments[0].partition, 0);
  // The full-width u64 checksum survives the hex-string JSON detour.
  EXPECT_EQ(back->segments[0].checksum, 0xdeadbeefdeadbeefull);
  EXPECT_EQ(back->segments[1].partition, -2);

  {
    std::ofstream torn(std::filesystem::path(dir) / kManifestFileName,
                       std::ofstream::trunc);
    torn << "{ \"format\": 1, \"segments\": [ { \"file\": ";  // mid-write crash
  }
  EXPECT_FALSE(ReadManifest(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(ResultIoTest, JsonRoundTripSharedWithBinaryCodec) {
  // The same corpus the binary codec round-trips must survive the JSON
  // result-file path, including inferred flags and unnamed regions.
  for (const core::MobilitySemanticsSequence& seq : TrickyCorpus()) {
    json::Value value = core::SemanticsToJson(seq);
    auto reparsed = json::Parse(value.Dump());
    ASSERT_TRUE(reparsed.ok()) << seq.device_id;
    auto back = core::SemanticsFromJson(*reparsed);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->device_id, seq.device_id);
    EXPECT_EQ(back->semantics, seq.semantics);
  }
}

TEST(TripStoreTest, AppendValidatesInput) {
  auto stored = TripStore::Open();
  ASSERT_TRUE(stored.ok());
  core::MobilitySemanticsSequence anonymous;
  EXPECT_FALSE((*stored)->Append(anonymous).ok());
  core::MobilitySemanticsSequence backwards;
  backwards.device_id = "d";
  backwards.semantics.push_back(Triplet(core::kEventStay, 1, "A", 10, 5));
  EXPECT_FALSE((*stored)->Append(backwards).ok());
  EXPECT_EQ((*stored)->Stats().sequences, 0u);
}

TEST(TripStoreTest, OpenRejectsZeroSegmentCapacity) {
  StoreOptions options;
  options.segment_max_sequences = 0;
  EXPECT_FALSE(TripStore::Open(options).ok());
}

class StoreQueryFixture : public ::testing::Test {
 protected:
  // A small synthetic corpus spread over several segments and devices.
  static std::vector<core::MobilitySemanticsSequence> Corpus() {
    std::vector<core::MobilitySemanticsSequence> corpus;
    for (int d = 0; d < 7; ++d) {
      core::MobilitySemanticsSequence seq;
      seq.device_id = "dev-" + std::to_string(d);
      TimestampMs t = d * 10 * kMillisPerMinute;
      for (int v = 0; v < 5; ++v) {
        dsm::RegionId region = (d + v) % 4;
        // Built via append: "R" + std::to_string(...) trips a GCC 12
        // -Wrestrict false positive (PR105651) in this inlining context.
        std::string region_name = "R";
        region_name += std::to_string(region);
        seq.semantics.push_back(Triplet(v % 2 == 0 ? core::kEventStay
                                                   : core::kEventPassBy,
                                        region, region_name, t,
                                        t + 4 * kMillisPerMinute, v % 3 == 2));
        t += 5 * kMillisPerMinute;
      }
      corpus.push_back(seq);
    }
    return corpus;
  }

  // Corpus() with device d's triplets shifted onto day d — one time partition
  // per device under the default day-wide partitioning.
  static std::vector<core::MobilitySemanticsSequence> MultiDayCorpus() {
    std::vector<core::MobilitySemanticsSequence> corpus = Corpus();
    for (size_t d = 0; d < corpus.size(); ++d) {
      for (core::MobilitySemantic& s : corpus[d].semantics) {
        s.range.begin += static_cast<TimestampMs>(d) * kMillisPerDay;
        s.range.end += static_cast<TimestampMs>(d) * kMillisPerDay;
      }
    }
    return corpus;
  }

  // Small segments (3 sequences each) so the corpus spans several of them.
  static std::unique_ptr<TripStore> MakeStore(std::string directory = "",
                                              size_t worker_threads = 0) {
    StoreOptions options;
    options.directory = std::move(directory);
    options.segment_max_sequences = 3;
    options.worker_threads = worker_threads;
    auto stored = TripStore::Open(options);
    EXPECT_TRUE(stored.ok());
    std::unique_ptr<TripStore> out = std::move(stored).ValueOrDie();
    for (const core::MobilitySemanticsSequence& seq : Corpus()) {
      EXPECT_TRUE(out->Append(seq).ok());
    }
    return out;
  }
};

TEST_F(StoreQueryFixture, StatsAndSegmentation) {
  std::unique_ptr<TripStore> stored = MakeStore();
  StoreStats stats = stored->Stats();
  EXPECT_EQ(stats.sequences, 7u);
  EXPECT_EQ(stats.triplets, 35u);
  EXPECT_EQ(stats.segments, 3u);  // capacity 3 -> 3+3+1
  EXPECT_EQ(stats.devices, 7u);
  EXPECT_EQ(stats.span.begin, 0);
  EXPECT_EQ(stats.span.end, 6 * 10 * kMillisPerMinute + 24 * kMillisPerMinute);
  EXPECT_EQ(stored->Devices().size(), 7u);
}

TEST_F(StoreQueryFixture, DeviceHistoryMatchesBruteForce) {
  std::unique_ptr<TripStore> stored = MakeStore();
  // Split ingestion: a second sequence for dev-3 with earlier triplets must
  // be merged into time order.
  core::MobilitySemanticsSequence earlier;
  earlier.device_id = "dev-3";
  earlier.semantics.push_back(
      Triplet(core::kEventStay, 9, "R9", -20 * kMillisPerMinute, -kMillisPerMinute));
  ASSERT_TRUE(stored->Append(earlier).ok());

  for (const std::string& device : stored->Devices()) {
    core::MobilitySemanticsSequence history = stored->DeviceHistory(device);
    EXPECT_EQ(history.device_id, device);
    // Brute force: gather and sort.
    std::vector<core::MobilitySemantic> expected;
    stored->ForEachSequence([&](TripStore::SequenceId,
                                const core::MobilitySemanticsSequence& seq) {
      if (seq.device_id != device) return;
      expected.insert(expected.end(), seq.semantics.begin(), seq.semantics.end());
    });
    std::stable_sort(expected.begin(), expected.end(),
                     [](const core::MobilitySemantic& a,
                        const core::MobilitySemantic& b) {
                       return a.range.begin < b.range.begin;
                     });
    EXPECT_EQ(history.semantics, expected) << device;
  }
  EXPECT_TRUE(stored->DeviceHistory("nobody").Empty());
}

TEST_F(StoreQueryFixture, RegionVisitorsMatchesBruteForce) {
  std::unique_ptr<TripStore> stored = MakeStore();
  TimeRange span = stored->Stats().span;
  const TimeRange windows[] = {
      span,
      {span.begin + 7 * kMillisPerMinute, span.begin + 23 * kMillisPerMinute},
      {span.end + kMillisPerMinute, span.end + 2 * kMillisPerMinute},  // empty
  };
  for (dsm::RegionId region = -1; region < 6; ++region) {
    for (const TimeRange& w : windows) {
      EXPECT_EQ(stored->RegionVisitors(region, w.begin, w.end),
                BruteForceVisitors(*stored, region, w.begin, w.end))
          << "region " << region;
    }
  }
}

// High-volume append pass: enough region postings to trigger several CSR
// tail compactions in the posting index, after which every region query and
// flow cell must still match the brute-force scan.
TEST_F(StoreQueryFixture, RegionIndexSurvivesCompactionPressure) {
  std::unique_ptr<TripStore> stored = MakeStore();
  for (int round = 0; round < 120; ++round) {
    core::MobilitySemanticsSequence seq;
    seq.device_id = "bulk-" + std::to_string(round);
    TimestampMs t = round * 3 * kMillisPerMinute;
    for (int v = 0; v < 6; ++v) {
      dsm::RegionId region = (round + v * v) % 9;
      // Built via append: same GCC 12 -Wrestrict false positive (PR105651)
      // workaround as Corpus().
      std::string region_name = "R";
      region_name += std::to_string(region);
      seq.semantics.push_back(Triplet(core::kEventStay, region, region_name, t,
                                      t + 2 * kMillisPerMinute, false));
      t += 3 * kMillisPerMinute;
    }
    ASSERT_TRUE(stored->Append(seq).ok());
  }
  TimeRange span = stored->Stats().span;
  for (dsm::RegionId region = 0; region < 9; ++region) {
    EXPECT_EQ(stored->RegionVisitors(region, span.begin, span.end),
              BruteForceVisitors(*stored, region, span.begin, span.end))
        << "region " << region;
    EXPECT_EQ(stored->RegionVisitors(region, span.begin + 40 * kMillisPerMinute,
                                     span.begin + 90 * kMillisPerMinute),
              BruteForceVisitors(*stored, region,
                                 span.begin + 40 * kMillisPerMinute,
                                 span.begin + 90 * kMillisPerMinute))
        << "region " << region;
  }
  core::MobilityAnalytics reference;
  stored->ForEachSequence([&](TripStore::SequenceId,
                              const core::MobilitySemanticsSequence& seq) {
    reference.AddSequence(seq);
  });
  EXPECT_EQ(stored->FlowMatrix(), reference.FlowMatrix());
}

// Out-of-band region ids (negative, or far past any real venue) must index
// and count like the old map-of-maps did — via the sparse overflow, never a
// giant dense-row allocation.
TEST_F(StoreQueryFixture, FlowHandlesOutOfBandRegionIds) {
  std::unique_ptr<TripStore> stored = MakeStore();
  core::MobilitySemanticsSequence odd;
  odd.device_id = "odd";
  odd.semantics.push_back(Triplet(core::kEventStay, -5, "neg", 0, kMillisPerMinute));
  odd.semantics.push_back(Triplet(core::kEventStay, 2'000'000'000, "huge",
                                  2 * kMillisPerMinute, 3 * kMillisPerMinute));
  odd.semantics.push_back(
      Triplet(core::kEventStay, 1, "R1", 4 * kMillisPerMinute, 5 * kMillisPerMinute));
  ASSERT_TRUE(stored->Append(odd).ok());
  EXPECT_EQ(stored->FlowBetween(-5, 2'000'000'000), 1u);
  EXPECT_EQ(stored->FlowBetween(2'000'000'000, 1), 1u);
  EXPECT_EQ(stored->FlowBetween(1, -5), 0u);
  auto matrix = stored->FlowMatrix();
  EXPECT_EQ(matrix[-5][2'000'000'000], 1u);
  EXPECT_EQ(stored->RegionVisitors(-5, 0, kMillisPerMinute).size(), 1u);
  EXPECT_EQ(stored->RegionVisitors(2'000'000'000, 0, 10 * kMillisPerMinute).size(),
            1u);
}

TEST_F(StoreQueryFixture, FlowMatchesAnalytics) {
  std::unique_ptr<TripStore> stored = MakeStore();
  core::MobilityAnalytics reference;
  stored->ForEachSequence([&](TripStore::SequenceId,
                              const core::MobilitySemanticsSequence& seq) {
    reference.AddSequence(seq);
  });
  EXPECT_EQ(stored->FlowMatrix(), reference.FlowMatrix());
  for (dsm::RegionId a = 0; a < 4; ++a) {
    for (dsm::RegionId b = 0; b < 4; ++b) {
      auto flow = reference.FlowMatrix();
      size_t expected = flow.count(a) ? (flow[a].count(b) ? flow[a][b] : 0) : 0;
      EXPECT_EQ(stored->FlowBetween(a, b), expected) << a << "->" << b;
    }
  }
}

TEST_F(StoreQueryFixture, SequencesInRangeMatchesBruteForce) {
  std::unique_ptr<TripStore> stored = MakeStore();
  TimeRange span = stored->Stats().span;
  const TimeRange windows[] = {
      span,
      {span.begin, span.begin + kMillisPerMinute},
      {span.begin + 35 * kMillisPerMinute, span.begin + 40 * kMillisPerMinute},
      {span.end + kMillisPerMinute, span.end + 2 * kMillisPerMinute},
  };
  for (const TimeRange& w : windows) {
    std::vector<core::MobilitySemanticsSequence> expected;
    stored->ForEachSequence([&](TripStore::SequenceId,
                                const core::MobilitySemanticsSequence& seq) {
      for (const core::MobilitySemantic& s : seq.semantics) {
        if (s.range.Overlaps(w)) {
          expected.push_back(seq);
          return;
        }
      }
    });
    std::vector<core::MobilitySemanticsSequence> got =
        stored->SequencesInRange(w.begin, w.end);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].device_id, expected[i].device_id);
      EXPECT_EQ(got[i].semantics, expected[i].semantics);
    }
  }
}

TEST_F(StoreQueryFixture, ParallelScansMatchSerial) {
  std::unique_ptr<TripStore> serial = MakeStore();
  std::unique_ptr<TripStore> parallel = MakeStore("", 4);
  TimeRange span = serial->Stats().span;
  EXPECT_EQ(parallel->RegionVisitors(2, span.begin, span.end),
            serial->RegionVisitors(2, span.begin, span.end));
  EXPECT_EQ(parallel->SequencesInRange(span.begin, span.end).size(),
            serial->SequencesInRange(span.begin, span.end).size());
  EXPECT_EQ(parallel->BuildAnalytics().FormatReport(10),
            serial->BuildAnalytics().FormatReport(10));
}

TEST_F(StoreQueryFixture, BuildAnalyticsEqualsDirectFeed) {
  std::unique_ptr<TripStore> stored = MakeStore();
  core::MobilityAnalytics direct;
  for (const core::MobilitySemanticsSequence& seq : Corpus()) {
    direct.AddSequence(seq);
  }
  core::MobilityAnalytics via_store = stored->BuildAnalytics();
  EXPECT_EQ(via_store.SequenceCount(), direct.SequenceCount());
  EXPECT_EQ(via_store.FormatReport(10), direct.FormatReport(10));
  EXPECT_EQ(via_store.FlowMatrix(), direct.FlowMatrix());
  for (dsm::RegionId r = 0; r < 4; ++r) {
    EXPECT_EQ(via_store.HourlyOccupancy(r), direct.HourlyOccupancy(r));
  }
}

TEST_F(StoreQueryFixture, TimelineTextRendersStoredHistory) {
  std::unique_ptr<TripStore> stored = MakeStore();
  std::string text = viewer::RenderDeviceTimelineText(*stored, "dev-0", 32);
  EXPECT_NE(text.find("dev-0"), std::string::npos);
  EXPECT_NE(text.find("(stay, R0,"), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find('~'), std::string::npos);  // inferred triplet bar
  EXPECT_EQ(viewer::RenderDeviceTimelineText(*stored, "nobody"),
            "(no stored semantics for nobody)\n");
}

class StorePersistenceFixture : public StoreQueryFixture {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs each test as its own process, possibly
    // in parallel, and a shared path makes sibling tests trample each other.
    dir_ = ::testing::TempDir() + "/trips_store_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StoreOptions DiskOptions() const {
    StoreOptions options;
    options.directory = dir_;
    options.segment_max_sequences = 3;
    return options;
  }

  std::string dir_;
};

TEST_F(StorePersistenceFixture, FlushReopenServesIdenticalQueries) {
  StoreStats before;
  {
    std::unique_ptr<TripStore> stored = MakeStore(dir_);
    ASSERT_TRUE(stored->Flush().ok());
    before = stored->Stats();
    EXPECT_EQ(before.persisted_segments, before.segments);
  }
  auto reopened = TripStore::Open(DiskOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const TripStore& stored = **reopened;
  StoreStats after = stored.Stats();
  EXPECT_EQ(after.sequences, before.sequences);
  EXPECT_EQ(after.triplets, before.triplets);
  EXPECT_EQ(after.devices, before.devices);
  EXPECT_EQ(after.span, before.span);
  EXPECT_EQ(after.persisted_segments, after.segments);

  // Queries answer identically to a fresh in-memory store of the corpus.
  std::unique_ptr<TripStore> memory = MakeStore();
  TimeRange span = memory->Stats().span;
  for (dsm::RegionId r = 0; r < 4; ++r) {
    EXPECT_EQ(stored.RegionVisitors(r, span.begin, span.end),
              memory->RegionVisitors(r, span.begin, span.end));
  }
  for (const std::string& device : memory->Devices()) {
    EXPECT_EQ(stored.DeviceHistory(device).semantics,
              memory->DeviceHistory(device).semantics);
  }
  EXPECT_EQ(stored.FlowMatrix(), memory->FlowMatrix());
}

TEST_F(StorePersistenceFixture, AppendAfterReopenContinuesSegmentFiles) {
  {
    std::unique_ptr<TripStore> stored = MakeStore(dir_);
    ASSERT_TRUE(stored->Flush().ok());
  }
  auto reopened = TripStore::Open(DiskOptions());
  ASSERT_TRUE(reopened.ok());
  core::MobilitySemanticsSequence extra;
  extra.device_id = "late-arrival";
  extra.semantics.push_back(Triplet(core::kEventStay, 11, "R11", 0, kMillisPerMinute));
  ASSERT_TRUE((*reopened)->Append(extra).ok());
  ASSERT_TRUE((*reopened)->Flush().ok());

  auto third = TripStore::Open(DiskOptions());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->Stats().sequences, 8u);
  EXPECT_EQ((*third)->DeviceHistory("late-arrival").Size(), 1u);
  // No segment file was overwritten and none leaked: live segment file count
  // (recursing into partition directories) matches the segment count, and
  // the manifest checkpoint exists.
  EXPECT_EQ(CountSegmentFiles(dir_), (*third)->Stats().segments);
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir_) / kManifestFileName));
}

// One thread appends and flushes with background compaction while another
// keeps opening the same directory. An opener must never see less than the
// last checkpoint (a merge deleting the inputs of the manifest it read), and
// its stray cleanup must never delete a segment file the owner is about to
// checkpoint (a Flush's new segment, a merge's output).
TEST_F(StorePersistenceFixture, ConcurrentReopenKeepsEveryCheckpoint) {
  constexpr int kSequences = 240;
  StoreOptions owner_options = DiskOptions();
  owner_options.worker_threads = 1;  // compaction runs in the background
  auto owner = TripStore::Open(owner_options);
  ASSERT_TRUE(owner.ok()) << owner.status().ToString();

  std::atomic<size_t> checkpointed{0};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (int i = 0; i < kSequences; ++i) {
      core::MobilitySemanticsSequence seq;
      seq.device_id = "dev-" + std::to_string(i);
      seq.semantics.push_back(Triplet(core::kEventStay, 1 + i % 5, "R",
                                      i * kMillisPerMinute,
                                      (i + 1) * kMillisPerMinute));
      EXPECT_TRUE((*owner)->Append(std::move(seq)).ok());
      if (i % 2 == 1) {
        EXPECT_TRUE((*owner)->Flush().ok());
        checkpointed.store(static_cast<size_t>(i + 1));
      }
    }
    writer_done.store(true);
  });

  auto metrics = std::make_shared<obs::MetricsRegistry>();
  StoreOptions reader_options = DiskOptions();
  reader_options.metrics = metrics;
  size_t reopens = 0;
  size_t short_reads = 0;
  while (!writer_done.load()) {
    const size_t floor = checkpointed.load();
    auto reader = TripStore::Open(reader_options);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    short_reads += (*reader)->Stats().sequences < floor;
    ++reopens;
  }
  writer.join();
  (*owner)->WaitForCompaction();
  EXPECT_GT(reopens, 0u);
  EXPECT_EQ(short_reads, 0u) << "of " << reopens << " reopens";
  EXPECT_EQ(metrics->counter("store.dropped_segments")->Value(), 0u);

  auto final_metrics = std::make_shared<obs::MetricsRegistry>();
  StoreOptions final_options = DiskOptions();
  final_options.metrics = final_metrics;
  auto final_open = TripStore::Open(final_options);
  ASSERT_TRUE(final_open.ok()) << final_open.status().ToString();
  EXPECT_EQ((*final_open)->Stats().sequences, static_cast<size_t>(kSequences));
  EXPECT_EQ((*final_open)->Devices().size(), static_cast<size_t>(kSequences));
  EXPECT_EQ(final_metrics->counter("store.dropped_segments")->Value(), 0u);
}

// The acceptance matrix: every query answer of a lazily opened store equals
// the eager reference (every listed file decoded up front into a memory-only
// store) across compaction on/off and 0/1/4 workers, including reopening
// after the directory has been rewritten by compaction.
TEST_F(StorePersistenceFixture, QueryParityAcrossMmapCompactionWorkers) {
  std::vector<core::MobilitySemanticsSequence> corpus = Corpus();
  StoreOptions seed = DiskOptions();
  seed.segment_max_sequences = 4;
  seed.compaction = false;  // leave undersized segments for later merges
  {
    auto stored = TripStore::Open(seed);
    ASSERT_TRUE(stored.ok());
    // Three flushes -> sealed segments of 2, 2 and 3 sequences; the first two
    // are a mergeable adjacent run under the capacity of 4.
    size_t i = 0;
    for (size_t flush_after : {2u, 4u, 7u}) {
      for (; i < flush_after; ++i) {
        ASSERT_TRUE((*stored)->Append(corpus[i]).ok());
      }
      ASSERT_TRUE((*stored)->Flush().ok());
    }
    EXPECT_EQ((*stored)->Stats().segments, 3u);
  }
  std::string reference;
  {
    auto stored = testing::OpenReferenceStore(dir_);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    reference = AnswerSignature(**stored);
  }
  ASSERT_FALSE(reference.empty());

  for (bool compaction : {false, true}) {
    for (size_t workers : {size_t{0}, size_t{1}, size_t{4}}) {
      StoreOptions options = seed;
      options.compaction = compaction;
      options.worker_threads = workers;
      auto stored = TripStore::Open(options);
      ASSERT_TRUE(stored.ok()) << stored.status().ToString();
      if (compaction) {
        ASSERT_TRUE((*stored)->Compact().ok());
        EXPECT_LE((*stored)->Stats().segments, 2u);
      }
      EXPECT_EQ(AnswerSignature(**stored), reference)
          << "compaction=" << compaction << " workers=" << workers;
    }
  }

  // The compacted directory reopens to the same answers, with one live file
  // per segment (stale pre-merge files were deleted), and so does the
  // reference built from the rewritten files.
  auto reopened = TripStore::Open(seed);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(AnswerSignature(**reopened), reference);
  EXPECT_EQ(CountSegmentFiles(dir_), (*reopened)->Stats().segments);
  auto compacted_reference = testing::OpenReferenceStore(dir_);
  ASSERT_TRUE(compacted_reference.ok());
  EXPECT_EQ(AnswerSignature(**compacted_reference), reference);
}

TEST_F(StorePersistenceFixture, MmapOpenMaterializesLazily) {
  {
    std::unique_ptr<TripStore> stored = MakeStore(dir_);
    ASSERT_TRUE(stored->Flush().ok());
  }
  auto lazy = TripStore::Open(DiskOptions());
  ASSERT_TRUE(lazy.ok());
  StoreStats cold = (*lazy)->Stats();
  EXPECT_EQ(cold.segments, 3u);
  EXPECT_EQ(cold.materialized_segments, 0u);
  // Index-backed answers (devices, flow) never touch the body columns.
  EXPECT_EQ((*lazy)->Devices().size(), 7u);
  EXPECT_FALSE((*lazy)->FlowMatrix().empty());
  EXPECT_EQ((*lazy)->Stats().materialized_segments, 0u);
  // dev-0 lives in the first segment only: its history decodes just that one.
  EXPECT_EQ((*lazy)->DeviceHistory("dev-0").Size(), 5u);
  EXPECT_EQ((*lazy)->Stats().materialized_segments, 1u);
  (*lazy)->ForEachSequence([](TripStore::SequenceId,
                              const core::MobilitySemanticsSequence&) {});
  EXPECT_EQ((*lazy)->Stats().materialized_segments, 3u);

  // The eager reference decodes everything up front and answers identically.
  auto eager = testing::OpenReferenceStore(dir_);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(AnswerSignature(**eager), AnswerSignature(**lazy));
}

TEST_F(StorePersistenceFixture, SealingCompactsPostingsTail) {
  std::unique_ptr<TripStore> stored = MakeStore(dir_);
  // 3+3 sealed, 1 active: the active segment's postings live in the tail.
  EXPECT_GT(stored->Stats().postings_tail_bytes, 0u);
  ASSERT_TRUE(stored->Flush().ok());
  // Flush seals the tail segment, and sealing merges the postings tail into
  // the CSR body — sealed data is served from the dense arrays only.
  EXPECT_EQ(stored->Stats().postings_tail_bytes, 0u);
}

TEST_F(StorePersistenceFixture, PartitionedLayoutPrunesWindowsAndMatchesFlat) {
  std::vector<core::MobilitySemanticsSequence> corpus = MultiDayCorpus();
  StoreOptions options = DiskOptions();
  options.segment_max_sequences = 1;  // one segment per sequence = per day
  {
    auto stored = TripStore::Open(options);
    ASSERT_TRUE(stored.ok());
    for (const core::MobilitySemanticsSequence& seq : corpus) {
      ASSERT_TRUE((*stored)->Append(seq).ok());
    }
    ASSERT_TRUE((*stored)->Flush().ok());
    StoreStats stats = (*stored)->Stats();
    EXPECT_EQ(stats.segments, 7u);
    EXPECT_EQ(stats.partitions, 7u);
    // Compaction never merges across partition (= day) boundaries.
    ASSERT_TRUE((*stored)->Compact().ok());
    EXPECT_EQ((*stored)->Stats().segments, 7u);
  }
  // One part-<bucket>/ directory per day on disk.
  size_t partition_dirs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.is_directory()) ++partition_dirs;
  }
  EXPECT_EQ(partition_dirs, 7u);

  auto reopened = TripStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto expected_in_range = [&corpus](TimeRange w) {
    size_t n = 0;
    for (const core::MobilitySemanticsSequence& seq : corpus) {
      for (const core::MobilitySemantic& s : seq.semantics) {
        if (s.range.Overlaps(w)) {
          ++n;
          break;
        }
      }
    }
    return n;
  };
  for (int day = 0; day < 7; ++day) {
    TimestampMs t0 = day * kMillisPerDay;
    const TimeRange windows[] = {
        {t0, t0 + kMillisPerDay - 1},  // the whole day: exactly one device
        {t0 + 5 * kMillisPerMinute, t0 + 30 * kMillisPerMinute},
    };
    for (const TimeRange& w : windows) {
      EXPECT_EQ((*reopened)->SequencesInRange(w.begin, w.end).size(),
                expected_in_range(w))
          << "day " << day;
      for (dsm::RegionId region = 0; region < 4; ++region) {
        EXPECT_EQ((*reopened)->RegionVisitors(region, w.begin, w.end),
                  BruteForceVisitors(**reopened, region, w.begin, w.end))
            << "day " << day << " region " << region;
      }
    }
    EXPECT_EQ(
        (*reopened)->SequencesInRange(t0, t0 + kMillisPerDay - 1).size(), 1u);
  }

  // A flat (unpartitioned) copy of the same corpus answers identically.
  std::string flat_dir = dir_ + "_flat";
  std::filesystem::remove_all(flat_dir);
  StoreOptions flat = options;
  flat.directory = flat_dir;
  flat.partition_ms = 0;
  auto flat_store = TripStore::Open(flat);
  ASSERT_TRUE(flat_store.ok());
  for (const core::MobilitySemanticsSequence& seq : corpus) {
    ASSERT_TRUE((*flat_store)->Append(seq).ok());
  }
  ASSERT_TRUE((*flat_store)->Flush().ok());
  EXPECT_EQ(AnswerSignature(**flat_store), AnswerSignature(**reopened));
  std::filesystem::remove_all(flat_dir);
}

TEST_F(StorePersistenceFixture, DropsTruncatedSegmentOnReopen) {
  {
    std::unique_ptr<TripStore> stored = MakeStore(dir_);
    ASSERT_TRUE(stored->Flush().ok());
  }
  // Tear the final segment file (the one holding dev-6) in half, as a crash
  // mid-write would.
  std::filesystem::path victim;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tseg" &&
        (victim.empty() || entry.path().filename() > victim.filename())) {
      victim = entry.path();
    }
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim, std::filesystem::file_size(victim) / 2);
  // A checkpointed file of the retired v1 format, listed with its true
  // checksum, is as unreadable as the torn one.
  const std::string legacy_name =
      victim.parent_path().filename().string() + "/segment-000009.tseg";
  const std::filesystem::path legacy = std::filesystem::path(dir_) / legacy_name;
  {
    std::ofstream out(legacy, std::ofstream::binary);
    out << LegacyV1Segment();
  }
  {
    auto read = ReadManifest(dir_);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    Manifest manifest = std::move(read).ValueOrDie();
    manifest.segments.push_back(
        {legacy_name, 7, 1, 0, SegmentChecksum(LegacyV1Segment())});
    ASSERT_TRUE(WriteManifest(dir_, manifest).ok());
  }

  {
    auto metrics = std::make_shared<obs::MetricsRegistry>();
    StoreOptions options = DiskOptions();
    options.metrics = metrics;
    auto reopened = TripStore::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    StoreStats stats = (*reopened)->Stats();
    EXPECT_EQ(stats.sequences, 6u);  // the torn segment's sequence is gone
    EXPECT_EQ(stats.segments, 2u);
    EXPECT_EQ(metrics->counter("store.dropped_segments")->Value(), 2u);
    EXPECT_TRUE((*reopened)->DeviceHistory("legacy-dev").Empty());
    EXPECT_TRUE((*reopened)->DeviceHistory("dev-6").Empty());
    EXPECT_EQ((*reopened)->DeviceHistory("dev-0").Size(), 5u);
    // The surviving index still agrees with a brute-force scan.
    TimeRange span = stats.span;
    for (dsm::RegionId region = 0; region < 4; ++region) {
      EXPECT_EQ((*reopened)->RegionVisitors(region, span.begin, span.end),
                BruteForceVisitors(**reopened, region, span.begin, span.end));
    }
    // The dropped files are spared on this open (they are still manifest-
    // referenced, and might hold forensic value) ...
    EXPECT_TRUE(std::filesystem::exists(victim));
    EXPECT_TRUE(std::filesystem::exists(legacy));
    ASSERT_TRUE((*reopened)->Flush().ok());  // checkpoint without them
  }
  // ... but once a checkpoint no longer references them, the next open
  // removes the strays and serves the same six sequences.
  auto third = TripStore::Open(DiskOptions());
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(std::filesystem::exists(victim));
  EXPECT_FALSE(std::filesystem::exists(legacy));
  EXPECT_EQ((*third)->Stats().sequences, 6u);
}

TEST_F(StorePersistenceFixture, ScanFallbackRecoversFromTornManifest) {
  std::string reference;
  {
    std::unique_ptr<TripStore> stored = MakeStore(dir_);
    ASSERT_TRUE(stored->Flush().ok());
    reference = AnswerSignature(*stored);
  }
  // A crash mid-checkpoint cannot tear MANIFEST.json (tmp + rename), but a
  // damaged disk can; the store must fall back to scanning the directory.
  {
    std::ofstream torn(std::filesystem::path(dir_) / kManifestFileName,
                       std::ofstream::trunc);
    torn << "{ \"format\": 1, \"segments\": [";
  }
  // The scan meets a file of the retired v1 format among the segments and
  // drops it like any torn file.
  {
    std::ofstream out(std::filesystem::path(dir_) / "part-0" / "segment-000009.tseg",
                      std::ofstream::binary);
    out << LegacyV1Segment();
  }
  {
    auto metrics = std::make_shared<obs::MetricsRegistry>();
    StoreOptions options = DiskOptions();
    options.metrics = metrics;
    auto reopened = TripStore::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(AnswerSignature(**reopened), reference);
    EXPECT_EQ(metrics->counter("store.dropped_segments")->Value(), 1u);
  }
  // The fallback rewrote a valid manifest checkpoint.
  auto manifest = ReadManifest(dir_);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->segments.size(), 3u);

  // A deleted manifest (pre-manifest layout) recovers the same way.
  std::filesystem::remove(std::filesystem::path(dir_) / kManifestFileName);
  auto rescanned = TripStore::Open(DiskOptions());
  ASSERT_TRUE(rescanned.ok());
  EXPECT_EQ(AnswerSignature(**rescanned), reference);
}

TEST_F(StorePersistenceFixture, CleansInterruptedCompactionLeftovers) {
  StoreOptions options = DiskOptions();
  options.compaction = false;
  std::string reference;
  {
    auto stored = TripStore::Open(options);
    ASSERT_TRUE(stored.ok());
    for (const core::MobilitySemanticsSequence& seq : Corpus()) {
      ASSERT_TRUE((*stored)->Append(seq).ok());
    }
    ASSERT_TRUE((*stored)->Flush().ok());
    reference = AnswerSignature(**stored);
  }
  // Simulate a compaction killed between writing its merged output and the
  // manifest swap: a fully valid but unreferenced segment file, plus a torn
  // temp file. The manifest still names only the three inputs.
  std::filesystem::path part_dir;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir_)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tseg") {
      part_dir = entry.path().parent_path();
      break;
    }
  }
  ASSERT_FALSE(part_dir.empty());
  std::filesystem::path orphan = part_dir / "segment-000007.tseg";
  std::filesystem::path temp = part_dir / "segment-000008.tseg.tmp";
  {
    std::ofstream out(orphan, std::ofstream::binary);
    out << EncodeSegmentV2(TrickyCorpus(), 0);
  }
  {
    std::ofstream out(temp, std::ofstream::binary);
    out << "half-written";
  }

  auto reopened = TripStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Recovery resumes from the checkpoint: the orphan's sequences never
  // surface, both leftovers are deleted, answers are unchanged.
  EXPECT_EQ(AnswerSignature(**reopened), reference);
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_FALSE(std::filesystem::exists(temp));
  EXPECT_EQ(CountSegmentFiles(dir_), 3u);
}

// A background merge that cannot write its output is counted when it fails
// and returned by the next Compact(), instead of being lost.
TEST_F(StorePersistenceFixture, ReportsFailedBackgroundMerge) {
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  StoreOptions options = DiskOptions();
  options.metrics = metrics;  // no workers: each Flush runs its merge inline
  auto stored = TripStore::Open(options);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  // The two flushes write segment files 0 and 1, so the merge of the two
  // reserves file 2; a non-empty directory under that name blocks the rename.
  std::filesystem::create_directories(std::filesystem::path(dir_) / "part-0" /
                                      "segment-000002.tseg" / "occupied");
  std::vector<core::MobilitySemanticsSequence> corpus = Corpus();
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE((*stored)->Append(corpus[i]).ok());
    ASSERT_TRUE((*stored)->Flush().ok());  // the merge's failure is not Flush's
  }
  EXPECT_EQ(metrics->counter("store.compactions")->Value(), 0u);
  EXPECT_EQ(metrics->counter("store.compaction_errors")->Value(), 1u);
  EXPECT_EQ((*stored)->Stats().segments, 2u);

  // The next Compact merges under a fresh name and reports the earlier
  // failure; once reported, it is not reported again.
  Status reported = (*stored)->Compact();
  EXPECT_EQ(reported.code(), StatusCode::kIOError) << reported.ToString();
  EXPECT_EQ(metrics->counter("store.compactions")->Value(), 1u);
  EXPECT_EQ((*stored)->Stats().segments, 1u);
  EXPECT_TRUE((*stored)->Compact().ok());
  EXPECT_EQ(metrics->counter("store.compaction_errors")->Value(), 1u);
}

// A segment whose body fails its checksum is served as placeholders; a merge
// must not write those placeholders into a fresh, valid file and delete the
// original. It writes nothing, keeps the file and its manifest entry, leaves
// the segment out of later plans, and reports the failure.
TEST_F(StorePersistenceFixture, CompactionKeepsSegmentThatFailsToDecode) {
  StoreOptions options = DiskOptions();
  options.compaction = false;
  {
    auto stored = TripStore::Open(options);
    ASSERT_TRUE(stored.ok());
    core::MobilitySemanticsSequence a;
    a.device_id = "dev-a";
    a.semantics.push_back(Triplet(core::kEventStay, 1, "Atrium", 0, kMillisPerMinute));
    core::MobilitySemanticsSequence b;
    b.device_id = "dev-b";
    b.semantics.push_back(Triplet(core::kEventStay, 2, "Bakery",
                                  2 * kMillisPerMinute, 3 * kMillisPerMinute));
    ASSERT_TRUE((*stored)->Append(a).ok());
    ASSERT_TRUE((*stored)->Flush().ok());
    ASSERT_TRUE((*stored)->Append(b).ok());
    ASSERT_TRUE((*stored)->Flush().ok());
  }
  // Flip one byte of a region name in dev-a's segment. The string table is
  // covered by the body checksum, which only a lazy decode verifies (device
  // names would also change the footer index, which is read unverified).
  std::filesystem::path corrupt;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir_)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".tseg") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t at = blob.find("Atrium");
    if (at == std::string::npos) continue;
    corrupt = entry.path();
    blob[at] ^= 0x20;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << blob;
  }
  ASSERT_FALSE(corrupt.empty());

  auto metrics = std::make_shared<obs::MetricsRegistry>();
  options.compaction = true;
  options.metrics = metrics;
  {
    auto stored = TripStore::Open(options);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    ASSERT_TRUE((*stored)->Flush().ok());  // plans the merge of both segments
    EXPECT_EQ(metrics->counter("store.decode_errors")->Value(), 1u);
    EXPECT_EQ(metrics->counter("store.compactions")->Value(), 0u);
    EXPECT_EQ(metrics->counter("store.compaction_errors")->Value(), 1u);
    Status reported = (*stored)->Compact();
    EXPECT_EQ(reported.code(), StatusCode::kParseError) << reported.ToString();
    // Later plans skip the segment, so nothing fails again.
    EXPECT_TRUE((*stored)->Compact().ok());
    EXPECT_EQ(metrics->counter("store.compaction_errors")->Value(), 1u);
    EXPECT_EQ((*stored)->Stats().segments, 2u);
  }
  EXPECT_TRUE(std::filesystem::exists(corrupt));
  EXPECT_EQ(CountSegmentFiles(dir_), 2u);
  auto manifest = ReadManifest(dir_);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->segments.size(), 2u);

  // A reopen still sees the corruption, and dev-b's segment is intact.
  auto reopen_metrics = std::make_shared<obs::MetricsRegistry>();
  options.metrics = reopen_metrics;
  auto reopened = TripStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Devices(), (std::vector<std::string>{"dev-a", "dev-b"}));
  core::MobilitySemanticsSequence history = (*reopened)->DeviceHistory("dev-b");
  ASSERT_EQ(history.Size(), 1u);
  EXPECT_EQ(history.semantics[0].region_name, "Bakery");
  (*reopened)->ForEachSequence(
      [](TripStore::SequenceId, const core::MobilitySemanticsSequence&) {});
  EXPECT_EQ(reopen_metrics->counter("store.decode_errors")->Value(), 1u);
}

TEST_F(StorePersistenceFixture, ImportsExportedResultFiles) {
  // Result files exported by the JSON path bulk-load into an equivalent store.
  std::vector<core::TranslationResult> results;
  for (const core::MobilitySemanticsSequence& seq : Corpus()) {
    core::TranslationResult r;
    r.semantics = seq;
    results.push_back(std::move(r));
  }
  std::filesystem::create_directories(dir_);
  auto written = core::ExportResultFiles(results, dir_);
  ASSERT_TRUE(written.ok());
  ASSERT_EQ(*written, Corpus().size());

  auto imported = TripStore::Open();
  ASSERT_TRUE(imported.ok());
  auto count = (*imported)->ImportResultDir(dir_);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, Corpus().size());

  std::unique_ptr<TripStore> direct = MakeStore();
  EXPECT_EQ((*imported)->Stats().triplets, direct->Stats().triplets);
  for (const std::string& device : direct->Devices()) {
    EXPECT_EQ((*imported)->DeviceHistory(device).semantics,
              direct->DeviceHistory(device).semantics);
  }
}

// The acceptance-criteria equivalence: a store fed live from a StreamSession
// sink answers the same queries as one bulk-loaded after batch translation.
TEST(StoreServiceTest, StreamSinkStoreMatchesBatchLoadedStore) {
  auto mall = dsm::BuildMallDsm({.floors = 2, .shops_per_arm = 2});
  ASSERT_TRUE(mall.ok());
  auto planner = dsm::RoutePlanner::Build(&mall.ValueOrDie());
  ASSERT_TRUE(planner.ok());
  mobility::MobilityGenerator generator(&mall.ValueOrDie(), &planner.ValueOrDie());
  Rng rng(20260731);
  std::vector<positioning::PositioningSequence> fleet;
  for (int d = 0; d < 5; ++d) {
    auto dev = generator.GenerateDevice("dev-" + std::to_string(d), 0, &rng);
    ASSERT_TRUE(dev.ok());
    positioning::ErrorModelOptions noise;
    noise.floor_count = 2;
    fleet.push_back(positioning::ApplyErrorModel(dev->truth, noise, &rng));
  }
  auto engine = core::Engine::Builder().BorrowDsm(&mall.ValueOrDie()).Build();
  ASSERT_TRUE(engine.ok());
  core::Service service(engine.ValueOrDie(), {.worker_threads = 2});

  // Bulk: batch translation with baseline knowledge, then AppendResponse.
  auto bulk = TripStore::Open();
  ASSERT_TRUE(bulk.ok());
  auto response = service.NewBatchSession()->Submit(
      {.sequences = fleet, .learn_knowledge = false});
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE((*bulk)->AppendResponse(*response).ok());

  // Live: the same records drip through a stream session into a store sink.
  auto live = TripStore::Open();
  ASSERT_TRUE(live.ok());
  auto stream = service.NewStreamSession();
  stream->SetSink((*live)->MakeSink());
  std::vector<std::pair<std::string, positioning::RawRecord>> feed;
  for (const auto& seq : fleet) {
    for (const auto& record : seq.records) feed.emplace_back(seq.device_id, record);
  }
  std::stable_sort(feed.begin(), feed.end(), [](const auto& a, const auto& b) {
    return a.second.timestamp < b.second.timestamp;
  });
  for (const auto& [device, record] : feed) {
    ASSERT_TRUE(stream->Ingest(device, record).ok());
    ASSERT_TRUE(stream->Poll(record.timestamp).ok());
  }
  ASSERT_TRUE(stream->FlushAll().ok());
  EXPECT_EQ((*live)->dropped_count(), 0u);

  // Same corpus, same answers.
  StoreStats bulk_stats = (*bulk)->Stats();
  StoreStats live_stats = (*live)->Stats();
  EXPECT_EQ(live_stats.sequences, bulk_stats.sequences);
  EXPECT_EQ(live_stats.triplets, bulk_stats.triplets);
  EXPECT_EQ(live_stats.devices, bulk_stats.devices);
  EXPECT_EQ((*live)->Devices(), (*bulk)->Devices());
  for (const std::string& device : (*bulk)->Devices()) {
    EXPECT_EQ(core::SemanticsToJson((*live)->DeviceHistory(device)).Dump(),
              core::SemanticsToJson((*bulk)->DeviceHistory(device)).Dump())
        << device;
  }
  EXPECT_EQ((*live)->FlowMatrix(), (*bulk)->FlowMatrix());
  TimeRange span = bulk_stats.span;
  for (const dsm::SemanticRegion& region : mall->regions()) {
    EXPECT_EQ((*live)->RegionVisitors(region.id, span.begin, span.end),
              (*bulk)->RegionVisitors(region.id, span.begin, span.end));
  }
  EXPECT_EQ((*live)->BuildAnalytics(&mall.ValueOrDie()).FormatReport(10),
            (*bulk)->BuildAnalytics(&mall.ValueOrDie()).FormatReport(10));

  // The store-backed heatmap renders from either corpus.
  std::string svg =
      viewer::RenderStoreHeatmapSvg(mall.ValueOrDie(), **live, 0);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
}

}  // namespace
}  // namespace trips::store
