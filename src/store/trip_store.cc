#include "store/trip_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "core/result_io.h"
#include "store/compaction.h"
#include "store/manifest.h"
#include "store/segment_codec.h"
#include "util/string_util.h"

namespace trips::store {

namespace {

constexpr const char* kSegmentPrefix = "segment-";
constexpr const char* kSegmentSuffix = ".tseg";
constexpr const char* kPartitionPrefix = "part-";

std::string SegmentFileName(size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06zu%s", kSegmentPrefix, index,
                kSegmentSuffix);
  return buf;
}

// Parses "segment-NNNNNN.tseg" -> NNNNNN; false for foreign files.
bool ParseSegmentFileName(const std::string& name, size_t* index) {
  size_t prefix = std::string_view(kSegmentPrefix).size();
  size_t suffix = std::string_view(kSegmentSuffix).size();
  if (name.size() <= prefix + suffix || !StartsWith(name, kSegmentPrefix) ||
      !EndsWith(name, kSegmentSuffix)) {
    return false;
  }
  size_t value = 0;
  for (size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<size_t>(name[i] - '0');
  }
  *index = value;
  return true;
}

// An exclusive flock(2) on <directory>/LOCK, released on destruction (a
// no-op for a memory-only store's empty directory). Every TripStore takes it
// before mu_ around the steps that read or rewrite the directory layout:
// Open's load and stray cleanup, Flush's persist-and-checkpoint, and a merge
// from writing its output until its inputs are deleted. An opener therefore
// never deletes a segment file whose checkpoint is still to come, and never
// reads a manifest whose files a merge is deleting. flock locks belong to an
// open file description, so two stores of one process serialize too. Scan
// recovery and stray cleanup ignore the LOCK file.
class DirectoryLock {
 public:
  static Result<DirectoryLock> Acquire(const std::string& directory) {
    if (directory.empty()) return DirectoryLock(-1);
    std::string path = (std::filesystem::path(directory) / "LOCK").string();
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::IOError("cannot open " + path + ": " + std::strerror(errno));
    }
    while (::flock(fd, LOCK_EX) != 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IOError("cannot lock " + path + ": " + std::strerror(err));
    }
    return DirectoryLock(fd);
  }

  DirectoryLock(DirectoryLock&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  DirectoryLock& operator=(DirectoryLock&&) = delete;
  ~DirectoryLock() {
    if (fd_ >= 0) ::close(fd_);  // closing the descriptor releases the lock
  }

 private:
  explicit DirectoryLock(int fd) : fd_(fd) {}
  int fd_;
};

void GrowSpan(TimeRange* span, bool* has_span, const TimeRange& range) {
  if (!*has_span) {
    *span = range;
    *has_span = true;
    return;
  }
  span->begin = std::min(span->begin, range.begin);
  span->end = std::max(span->end, range.end);
}

// Writes `blob` to `path` via a temp name + rename, creating the parent
// directory if needed. A crash mid-write leaves a stray ".tmp" (ignored on
// load, cleaned on the next manifest-backed open) instead of a truncated
// file under the real name.
Status WriteFileAtomic(const std::filesystem::path& path,
                       const std::string& blob) {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
    if (ec) {
      return Status::IOError("cannot create " + path.parent_path().string() +
                             ": " + ec.message());
    }
  }
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open " + tmp.string() + " for writing");
    }
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) {
      return Status::IOError("short write to " + tmp.string());
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::string message = ec.message();
    std::filesystem::remove(tmp, ec);
    return Status::IOError("cannot finalize " + path.string() + ": " + message);
  }
  return Status::OK();
}

}  // namespace

// ---- RegionPostingsIndex ----------------------------------------------------

void TripStore::RegionPostingsIndex::Add(dsm::RegionId region,
                                         const RegionPosting& posting) {
  tail.emplace_back(region, posting);
  // Compact once the tail outgrows a quarter of the CSR body (amortized O(1)
  // per append); the floor keeps tiny stores from compacting on every write.
  constexpr size_t kMinCompactTail = 64;
  if (tail.size() >= kMinCompactTail && tail.size() * 4 >= postings.size()) {
    Compact();
  }
}

void TripStore::RegionPostingsIndex::Compact() {
  if (tail.empty()) return;

  dsm::RegionId min_region = tail.front().first;
  dsm::RegionId max_region = tail.front().first;
  for (const auto& [r, posting] : tail) {
    min_region = std::min(min_region, r);
    max_region = std::max(max_region, r);
  }
  const size_t range =
      static_cast<size_t>(static_cast<int64_t>(max_region) - min_region) + 1;

  // Region ids are near-dense in practice (venues hand them out
  // sequentially), so a counting scatter — histogram, prefix offsets, one
  // stable pass placing each posting — builds the merged CSR in
  // O(n + range) without ever sorting the 40-byte tail entries. This is the
  // bulk-load path: a cold open of a large store appends every segment's
  // footer postings to the tail and compacts exactly once, and sorting that
  // tail used to dominate the open.
  if (range <= tail.size() * 4 + 1024) {
    std::vector<uint32_t> tail_count(range, 0);
    for (const auto& [r, posting] : tail) {
      ++tail_count[static_cast<size_t>(r - min_region)];
    }

    std::vector<dsm::RegionId> merged_regions;
    std::vector<uint32_t> merged_offsets;
    merged_regions.reserve(regions.size() + range);
    merged_offsets.reserve(regions.size() + range + 1);
    std::vector<RegionPosting> merged_postings(postings.size() + tail.size());
    // Per-region write cursor for the scatter pass; only slots with a
    // nonzero count are read.
    std::vector<uint32_t> tail_start(range, 0);

    size_t pos = 0;  // next free slot in merged_postings
    size_t ri = 0;   // cursor over the existing CSR regions
    merged_offsets.push_back(0);
    auto copy_csr_region = [&] {
      size_t count = offsets[ri + 1] - offsets[ri];
      std::copy(postings.begin() + offsets[ri],
                postings.begin() + offsets[ri + 1],
                merged_postings.begin() + pos);
      pos += count;
      ++ri;
    };
    for (size_t di = 0; di < range; ++di) {
      if (tail_count[di] == 0) continue;
      dsm::RegionId region = min_region + static_cast<dsm::RegionId>(di);
      while (ri < regions.size() && regions[ri] < region) {
        merged_regions.push_back(regions[ri]);
        copy_csr_region();
        merged_offsets.push_back(static_cast<uint32_t>(pos));
      }
      merged_regions.push_back(region);
      if (ri < regions.size() && regions[ri] == region) copy_csr_region();
      tail_start[di] = static_cast<uint32_t>(pos);
      pos += tail_count[di];
      merged_offsets.push_back(static_cast<uint32_t>(pos));
    }
    while (ri < regions.size()) {
      merged_regions.push_back(regions[ri]);
      copy_csr_region();
      merged_offsets.push_back(static_cast<uint32_t>(pos));
    }
    // Stable: one forward pass over the tail preserves append order within
    // each region, exactly what the sort-based path guaranteed.
    for (const auto& [r, posting] : tail) {
      merged_postings[tail_start[static_cast<size_t>(r - min_region)]++] =
          posting;
    }
    regions = std::move(merged_regions);
    offsets = std::move(merged_offsets);
    postings = std::move(merged_postings);
    tail.clear();
    return;
  }

  // Sparse keys: fall back to the sort-and-merge build.
  // Stable by region: postings of one region keep their append order, so the
  // merged CSR enumerates exactly what the old per-region vectors held.
  std::stable_sort(tail.begin(), tail.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<dsm::RegionId> merged_regions;
  std::vector<uint32_t> merged_offsets;
  std::vector<RegionPosting> merged_postings;
  merged_regions.reserve(regions.size() + tail.size());
  merged_offsets.reserve(regions.size() + tail.size() + 1);
  merged_postings.reserve(postings.size() + tail.size());

  size_t ri = 0;  // cursor over the existing CSR regions
  size_t ti = 0;  // cursor over the sorted tail
  merged_offsets.push_back(0);
  while (ri < regions.size() || ti < tail.size()) {
    dsm::RegionId next;
    if (ri == regions.size()) {
      next = tail[ti].first;
    } else if (ti == tail.size()) {
      next = regions[ri];
    } else {
      next = std::min(regions[ri], tail[ti].first);
    }
    if (ri < regions.size() && regions[ri] == next) {
      merged_postings.insert(merged_postings.end(),
                             postings.begin() + offsets[ri],
                             postings.begin() + offsets[ri + 1]);
      ++ri;
    }
    while (ti < tail.size() && tail[ti].first == next) {
      merged_postings.push_back(tail[ti].second);
      ++ti;
    }
    merged_regions.push_back(next);
    merged_offsets.push_back(static_cast<uint32_t>(merged_postings.size()));
  }
  regions = std::move(merged_regions);
  offsets = std::move(merged_offsets);
  postings = std::move(merged_postings);
  tail.clear();
}

void TripStore::RegionPostingsIndex::CollectInto(
    dsm::RegionId region, std::vector<RegionPosting>* out) const {
  auto it = std::lower_bound(regions.begin(), regions.end(), region);
  if (it != regions.end() && *it == region) {
    size_t i = static_cast<size_t>(it - regions.begin());
    out->insert(out->end(), postings.begin() + offsets[i],
                postings.begin() + offsets[i + 1]);
  }
  for (const auto& [r, posting] : tail) {
    if (r == region) out->push_back(posting);
  }
}

// ---- TripStore --------------------------------------------------------------

// One loaded segment's index contributions, parked until a query needs the
// indexes. Keyed by the segment's base id, which compaction preserves (a
// merged segment inherits the first input's base and changes no content), so
// staged entries stay accurate even if a background compaction rewrites the
// files before hydration.
struct TripStore::StagedSegmentIndex {
  SequenceId base = 0;
  SegmentFooter footer;
};

struct TripStore::PendingLoad {
  std::string file;  ///< path relative to the store directory
  MappedFile mapping;
  SegmentFooter footer;
};

TripStore::TripStore(StoreOptions options)
    : options_(std::move(options)),
      own_pool_(options_.shared_pool != nullptr ? 0 : options_.worker_threads),
      pool_(options_.shared_pool != nullptr ? options_.shared_pool
                                            : &own_pool_) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    metrics_.append_ns = reg.histogram("store.append_ns");
    metrics_.appended_sequences = reg.counter("store.appended_sequences");
    metrics_.appended_triplets = reg.counter("store.appended_triplets");
    metrics_.query_ns = reg.histogram("store.query_ns");
    metrics_.queries = reg.counter("store.queries");
    metrics_.segments = reg.gauge("store.segments");
    metrics_.persisted_segments = reg.gauge("store.persisted_segments");
    metrics_.persisted_bytes = reg.counter("store.persisted_bytes");
    metrics_.mapped_segments = reg.counter("store.mapped_segments");
    metrics_.materializations = reg.counter("store.materializations");
    metrics_.decode_errors = reg.counter("store.decode_errors");
    metrics_.dropped_segments = reg.counter("store.dropped_segments");
    metrics_.compactions = reg.counter("store.compactions");
    metrics_.compaction_errors = reg.counter("store.compaction_errors");
    metrics_.compacted_segments = reg.counter("store.compacted_segments");
    metrics_.manifest_writes = reg.counter("store.manifest_writes");
  }
}

TripStore::~TripStore() {
  // A scheduled background merge holds `this`; let it finish before members
  // are torn down. (With a shared pool the pool must outlive the store.)
  WaitForCompaction();
}

Result<std::unique_ptr<TripStore>> TripStore::Open(StoreOptions options) {
  if (options.segment_max_sequences == 0) {
    return Status::InvalidArgument("segment_max_sequences must be positive");
  }
  std::unique_ptr<TripStore> store(new TripStore(std::move(options)));
  if (!store->options_.directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(store->options_.directory, ec);
    if (ec) {
      return Status::IOError("cannot create store directory " +
                             store->options_.directory + ": " + ec.message());
    }
    TRIPS_ASSIGN_OR_RETURN(DirectoryLock dir_lock,
                           DirectoryLock::Acquire(store->options_.directory));
    std::unique_lock lock(store->mu_);
    TRIPS_RETURN_NOT_OK(store->LoadDirectoryLocked());
  }
  return store;
}

int64_t TripStore::PartitionBucket(TimestampMs t) const {
  DurationMs width = options_.partition_ms;
  if (width <= 0) return 0;
  int64_t quotient = t / width;
  if (t % width != 0 && t < 0) --quotient;  // floor, not truncation
  return quotient;
}

std::string TripStore::PartitionedFileName(int64_t partition,
                                           size_t file_index) const {
  if (options_.partition_ms <= 0) return SegmentFileName(file_index);
  return kPartitionPrefix + std::to_string(partition) + "/" +
         SegmentFileName(file_index);
}

Result<TripStore::PendingLoad> TripStore::MapSegmentFile(
    const std::string& relative) const {
  PendingLoad load;
  load.file = relative;
  std::filesystem::path abs =
      std::filesystem::path(options_.directory) / relative;
  TRIPS_ASSIGN_OR_RETURN(load.mapping, MappedFile::Map(abs.string()));
  TRIPS_ASSIGN_OR_RETURN(load.footer, ReadSegmentFooter(load.mapping.view()));
  return load;
}

void TripStore::AttachLoadedLocked(PendingLoad load) {
  const SegmentFooter& footer = load.footer;
  // Empty segment files contribute nothing.
  if (footer.sequence_count == 0) return;
  segments_.push_back(std::make_unique<Segment>());
  Segment& segment = *segments_.back();
  segment.base = static_cast<SequenceId>(sequence_count_);
  segment.sealed = true;
  segment.persisted = true;
  segment.file = std::move(load.file);
  segment.checksum = footer.checksum;
  segment.sequence_count = footer.sequence_count;
  segment.triplet_count = footer.triplet_count;
  segment.span = footer.span;
  segment.has_span = footer.has_span;
  segment.mapping = std::move(load.mapping);
  segment.materialized.store(false, std::memory_order_relaxed);
  if (metrics_.segments != nullptr) metrics_.segments->Add(1);
  if (metrics_.persisted_segments != nullptr) {
    metrics_.persisted_segments->Add(1);
  }
  if (metrics_.mapped_segments != nullptr) metrics_.mapped_segments->Add(1);
  if (segment.has_span) {
    segment.partition = PartitionBucket(segment.span.begin);
    NoteSegmentSpanLocked(segments_.size() - 1);
  }
  sequence_count_ += footer.sequence_count;
  triplet_count_ += footer.triplet_count;
  // The footer carries exactly what ingest-time indexing derives (devices,
  // postings with fences, flow deltas), so the segment's index contributions
  // can be rebuilt from it at any time. Park it instead of applying it now:
  // the first call that reads an index hydrates every staged footer in one
  // bulk pass, and an open followed by a span-pruned scan never builds
  // indexes at all.
  auto staged = std::make_unique<StagedSegmentIndex>();
  staged->base = segment.base;
  staged->footer = std::move(load.footer);
  staged_index_.push_back(std::move(staged));
  indexes_ready_.store(false, std::memory_order_relaxed);
}

void TripStore::HydrateIndexes() const {
  // Double-checked: the acquire pairs with the release store in
  // HydrateIndexesLocked, so a true flag means the built indexes are visible
  // to this thread without taking the exclusive lock.
  if (indexes_ready_.load(std::memory_order_acquire)) return;
  TripStore* self = const_cast<TripStore*>(this);
  std::unique_lock lock(self->mu_);
  self->HydrateIndexesLocked();
}

void TripStore::HydrateIndexesLocked() {
  if (indexes_ready_.load(std::memory_order_relaxed)) return;
  for (const auto& staged : staged_index_) {
    const SegmentFooter& footer = staged->footer;
    for (size_t i = 0; i < footer.devices.size(); ++i) {
      device_index_[footer.devices[i]].push_back(
          staged->base + static_cast<SequenceId>(i));
    }
    // Straight into the postings tail, bypassing Add's amortized-compaction
    // heuristic: every segment bulk-appends thousands of postings here, and
    // letting the heuristic fire would re-merge the growing CSR once per
    // quarter-growth. One Compact below merges the whole batch.
    for (const SegmentFooter::RegionEntry& entry : footer.postings) {
      region_index_.tail.emplace_back(
          entry.region,
          RegionPosting{staged->base + entry.sequence, entry.fence});
    }
    for (const SegmentFooter::FlowEntry& entry : footer.flow) {
      AddFlowLocked(entry.from, entry.to, static_cast<size_t>(entry.count));
    }
  }
  region_index_.Compact();
  staged_index_.clear();
  staged_index_.shrink_to_fit();
  indexes_ready_.store(true, std::memory_order_release);
}

Status TripStore::LoadDirectoryLocked() {
  Result<Manifest> manifest = ReadManifest(options_.directory);
  if (!manifest.ok()) {
    // Missing manifest: fresh store or pre-manifest layout. Torn manifest:
    // crash artifact. Both recover via a validated directory scan; the scan
    // result is then checkpointed so the next open is manifest-backed.
    TRIPS_RETURN_NOT_OK(ScanDirectoryLocked());
    if (!segments_.empty()) (void)WriteManifestLocked();
    return Status::OK();
  }

  std::set<std::string> referenced;
  for (const ManifestSegment& entry : manifest->segments) {
    referenced.insert(entry.file);
    size_t file_index = 0;
    std::string name = std::filesystem::path(entry.file).filename().string();
    if (ParseSegmentFileName(name, &file_index)) {
      next_file_index_ = std::max(next_file_index_, file_index + 1);
    }
    Result<PendingLoad> load = MapSegmentFile(entry.file);
    if (!load.ok() ||
        (entry.checksum != 0 && load->footer.checksum != entry.checksum)) {
      // Torn or missing segment despite being checkpointed: drop it and keep
      // the rest of the store readable. The file (if any) is left on disk
      // for forensics — it is referenced, so cleanup below spares it.
      if (metrics_.dropped_segments != nullptr) {
        metrics_.dropped_segments->Add(1);
      }
      continue;
    }
    AttachLoadedLocked(std::move(load).ValueOrDie());
  }

  // With a valid manifest, everything else is a crash artifact: temp files
  // and segment files written but never checkpointed (e.g. a compaction
  // output whose manifest update never landed).
  std::error_code ec;
  std::vector<std::filesystem::path> stray;
  auto consider = [&](const std::filesystem::path& path,
                      const std::string& rel) {
    std::string name = path.filename().string();
    size_t index = 0;
    if (EndsWith(name, ".tmp") ||
        (ParseSegmentFileName(name, &index) && referenced.count(rel) == 0)) {
      stray.push_back(path);
    }
  };
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.directory, ec)) {
    std::string name = entry.path().filename().string();
    if (entry.is_regular_file()) {
      consider(entry.path(), name);
    } else if (entry.is_directory() && StartsWith(name, kPartitionPrefix)) {
      std::error_code sub_ec;
      for (const auto& sub :
           std::filesystem::directory_iterator(entry.path(), sub_ec)) {
        if (!sub.is_regular_file()) continue;
        consider(sub.path(), name + "/" + sub.path().filename().string());
      }
    }
  }
  for (const std::filesystem::path& path : stray) {
    std::filesystem::remove(path, ec);
  }
  return Status::OK();
}

Status TripStore::ScanDirectoryLocked() {
  std::vector<std::string> relatives;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.directory, ec)) {
    std::string name = entry.path().filename().string();
    size_t index = 0;
    if (entry.is_regular_file()) {
      if (ParseSegmentFileName(name, &index)) relatives.push_back(name);
    } else if (entry.is_directory() && StartsWith(name, kPartitionPrefix)) {
      std::error_code sub_ec;
      for (const auto& sub :
           std::filesystem::directory_iterator(entry.path(), sub_ec)) {
        if (!sub.is_regular_file()) continue;
        std::string sub_name = sub.path().filename().string();
        if (ParseSegmentFileName(sub_name, &index)) {
          relatives.push_back(name + "/" + sub_name);
        }
      }
    }
  }
  if (ec) {
    return Status::IOError("cannot list store directory " + options_.directory +
                           ": " + ec.message());
  }
  std::sort(relatives.begin(), relatives.end());

  std::vector<PendingLoad> loads;
  loads.reserve(relatives.size());
  for (const std::string& relative : relatives) {
    size_t file_index = 0;
    std::string name = std::filesystem::path(relative).filename().string();
    if (ParseSegmentFileName(name, &file_index)) {
      next_file_index_ = std::max(next_file_index_, file_index + 1);
    }
    Result<PendingLoad> load = MapSegmentFile(relative);
    if (!load.ok()) {
      // Scan mode is crash recovery: skip what cannot be validated (torn
      // tails) instead of refusing to open.
      if (metrics_.dropped_segments != nullptr) {
        metrics_.dropped_segments->Add(1);
      }
      continue;
    }
    loads.push_back(std::move(load).ValueOrDie());
  }
  // Append order: the base-ordinal hint each footer carries, which survives
  // compaction renumbering the files.
  std::stable_sort(loads.begin(), loads.end(),
                   [](const PendingLoad& a, const PendingLoad& b) {
                     return a.footer.base_ordinal < b.footer.base_ordinal;
                   });
  for (PendingLoad& load : loads) AttachLoadedLocked(std::move(load));
  return Status::OK();
}

void TripStore::NoteSegmentSpanLocked(size_t segment_index) {
  const Segment& segment = *segments_[segment_index];
  PartitionInfo& info = partition_index_[segment.partition];
  if (info.segments.empty() || info.segments.back() != segment_index) {
    info.segments.push_back(segment_index);
  }
  GrowSpan(&info.span, &info.has_span, segment.span);
}

void TripStore::RebuildPartitionIndexLocked() {
  partition_index_.clear();
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i]->has_span) NoteSegmentSpanLocked(i);
  }
}

void TripStore::EnsureMaterialized(const Segment& segment) const {
  if (segment.materialized.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(segment.mat_mu);
  if (segment.materialized.load(std::memory_order_relaxed)) return;
  Result<std::vector<core::MobilitySemanticsSequence>> decoded =
      DecodeSegment(segment.mapping.view());
  if (decoded.ok()) {
    segment.sequences = std::move(decoded).ValueOrDie();
  } else {
    segment.decode_failed = true;
    if (metrics_.decode_errors != nullptr) metrics_.decode_errors->Add(1);
  }
  // A body that fails to decode after its footer validated at open (bit rot
  // under the mapping) degrades to empty sequences so queries stay well-
  // defined; decode_errors is the signal, and compaction never merges it.
  if (segment.sequences.size() != segment.sequence_count) {
    segment.sequences.resize(static_cast<size_t>(segment.sequence_count));
  }
  if (metrics_.materializations != nullptr) metrics_.materializations->Add(1);
  segment.materialized.store(true, std::memory_order_release);
}

void TripStore::AddToLastSegmentLocked(core::MobilitySemanticsSequence seq) {
  Segment& segment = *segments_.back();
  segment.sequences.push_back(std::move(seq));
  ++segment.sequence_count;
  const core::MobilitySemanticsSequence& stored = segment.sequences.back();
  bool had_span = segment.has_span;
  for (const core::MobilitySemantic& s : stored.semantics) {
    GrowSpan(&segment.span, &segment.has_span, s.range);
  }
  segment.triplet_count += stored.semantics.size();
  if (segment.has_span) {
    if (!had_span) segment.partition = PartitionBucket(segment.span.begin);
    NoteSegmentSpanLocked(segments_.size() - 1);
  }
  IndexSequenceLocked(static_cast<SequenceId>(sequence_count_), stored);
  ++sequence_count_;
}

void TripStore::SealSegmentLocked(Segment& segment) {
  if (segment.sealed) return;
  segment.sealed = true;
  // Sealing is the natural index checkpoint: merge the postings append tail
  // into the CSR body so sealed data is served from the dense arrays only.
  region_index_.Compact();
}

Result<TripStore::SequenceId> TripStore::AppendLocked(
    core::MobilitySemanticsSequence seq) {
  // Appends extend the indexes incrementally, so any staged footers must be
  // applied first to keep per-region posting order equal to append order.
  HydrateIndexesLocked();
  if (segments_.empty() || segments_.back()->sealed ||
      segments_.back()->sequence_count >= options_.segment_max_sequences) {
    if (!segments_.empty()) SealSegmentLocked(*segments_.back());
    auto segment = std::make_unique<Segment>();
    segment->base = static_cast<SequenceId>(sequence_count_);
    segments_.push_back(std::move(segment));
    if (metrics_.segments != nullptr) metrics_.segments->Add(1);
  }
  SequenceId id = static_cast<SequenceId>(sequence_count_);
  AddToLastSegmentLocked(std::move(seq));
  return id;
}

void TripStore::AddFlowLocked(dsm::RegionId from, dsm::RegionId to,
                              size_t count) {
  if (count == 0) return;
  if (from < 0 || from >= kDenseFlowLimit || to < 0 || to >= kDenseFlowLimit) {
    flow_overflow_[{from, to}] += count;
    return;
  }
  size_t row = static_cast<size_t>(from);
  size_t col = static_cast<size_t>(to);
  if (row >= flow_.size()) flow_.resize(row + 1);
  if (col >= flow_[row].size()) flow_[row].resize(col + 1, 0);
  flow_[row][col] += count;
}

void TripStore::IndexSequenceLocked(SequenceId id,
                                    const core::MobilitySemanticsSequence& seq) {
  device_index_[seq.device_id].push_back(id);
  std::map<dsm::RegionId, TimeRange> fences;
  dsm::RegionId prev = dsm::kInvalidRegion;
  for (const core::MobilitySemantic& s : seq.semantics) {
    ++triplet_count_;
    if (s.region == dsm::kInvalidRegion) continue;
    auto [it, inserted] = fences.try_emplace(s.region, s.range);
    if (!inserted) {
      it->second.begin = std::min(it->second.begin, s.range.begin);
      it->second.end = std::max(it->second.end, s.range.end);
    }
    if (prev != dsm::kInvalidRegion && prev != s.region) {
      AddFlowLocked(prev, s.region, 1);
    }
    prev = s.region;
  }
  for (const auto& [region, fence] : fences) {
    region_index_.Add(region, {id, fence});
  }
}

Result<TripStore::SequenceId> TripStore::Append(
    core::MobilitySemanticsSequence seq) {
  if (seq.device_id.empty()) {
    return Status::InvalidArgument("stored sequence needs a device id");
  }
  for (const core::MobilitySemantic& s : seq.semantics) {
    if (!s.range.Valid()) {
      return Status::InvalidArgument("invalid triplet time range for device " +
                                     seq.device_id);
    }
  }
  obs::StageTimer append_timer(metrics_.append_ns);
  size_t triplets = seq.semantics.size();
  std::unique_lock lock(mu_);
  Result<SequenceId> id = AppendLocked(std::move(seq));
  if (id.ok()) {
    if (metrics_.appended_sequences != nullptr) {
      metrics_.appended_sequences->Add(1);
    }
    if (metrics_.appended_triplets != nullptr) {
      metrics_.appended_triplets->Add(triplets);
    }
  }
  return id;
}

Status TripStore::AppendResponse(const core::TranslationResponse& response) {
  for (const core::TranslationResult& result : response.results) {
    TRIPS_RETURN_NOT_OK(Append(result.semantics).status());
  }
  return Status::OK();
}

core::StreamSession::Sink TripStore::MakeSink() {
  return [this](core::TranslationResult result) {
    if (!Append(std::move(result.semantics)).ok()) {
      std::unique_lock lock(mu_);
      ++dropped_;
    }
  };
}

size_t TripStore::dropped_count() const {
  std::shared_lock lock(mu_);
  return dropped_;
}

Status TripStore::PersistSegmentLocked(size_t segment_index) {
  Segment& segment = *segments_[segment_index];
  std::string blob = EncodeSegmentV2(segment.sequences, segment.base);
  int64_t partition = segment.has_span ? segment.partition : 0;
  std::string relative = PartitionedFileName(partition, next_file_index_);
  std::filesystem::path path =
      std::filesystem::path(options_.directory) / relative;
  TRIPS_RETURN_NOT_OK(WriteFileAtomic(path, blob));
  ++next_file_index_;
  segment.persisted = true;
  segment.file = relative;
  Result<SegmentFooter> footer = ReadSegmentFooter(blob);
  segment.checksum = footer.ok() ? footer->checksum : 0;
  if (metrics_.persisted_segments != nullptr) {
    metrics_.persisted_segments->Add(1);
  }
  if (metrics_.persisted_bytes != nullptr) {
    metrics_.persisted_bytes->Add(blob.size());
  }
  return Status::OK();
}

Status TripStore::WriteManifestLocked() {
  if (options_.directory.empty()) return Status::OK();
  Manifest manifest;
  for (const auto& segment : segments_) {
    if (!segment->persisted) continue;
    manifest.segments.push_back({segment->file, segment->base,
                                 segment->sequence_count,
                                 segment->has_span ? segment->partition : 0,
                                 segment->checksum});
  }
  TRIPS_RETURN_NOT_OK(WriteManifest(options_.directory, manifest));
  if (metrics_.manifest_writes != nullptr) metrics_.manifest_writes->Add(1);
  return Status::OK();
}

Status TripStore::Flush() {
  {
    TRIPS_ASSIGN_OR_RETURN(DirectoryLock dir_lock,
                           DirectoryLock::Acquire(options_.directory));
    std::unique_lock lock(mu_);
    if (!segments_.empty() && !segments_.back()->sealed &&
        segments_.back()->sequence_count > 0) {
      SealSegmentLocked(*segments_.back());
    }
    if (!options_.directory.empty()) {
      for (size_t i = 0; i < segments_.size(); ++i) {
        if (segments_[i]->persisted || !segments_[i]->sealed) continue;
        TRIPS_RETURN_NOT_OK(PersistSegmentLocked(i));
      }
      TRIPS_RETURN_NOT_OK(WriteManifestLocked());
    }
  }
  MaybeScheduleCompaction(/*force=*/false);
  return Status::OK();
}

// ---- compaction -------------------------------------------------------------

void TripStore::MaybeScheduleCompaction(bool force) {
  if (!force && !options_.compaction) return;
  if (options_.directory.empty()) return;
  {
    std::lock_guard<std::mutex> lock(compaction_mu_);
    if (compaction_inflight_) return;
    compaction_inflight_ = true;
  }
  // With zero pool workers Submit runs the worker inline, so single-threaded
  // stores compact deterministically before Flush/Compact returns.
  pool_->Submit([this] { CompactionWorker(); });
}

bool TripStore::PrepareCompactionLocked(PendingCompaction* out) {
  std::vector<CompactionCandidate> candidates;
  candidates.reserve(segments_.size());
  for (size_t i = 0; i < segments_.size(); ++i) {
    const Segment& segment = *segments_[i];
    candidates.push_back(
        {i, segment.sequence_count, segment.has_span ? segment.partition : 0,
         segment.sealed && segment.persisted && !segment.decode_failed});
  }
  CompactionPlan plan =
      PlanCompaction(candidates, options_.segment_max_sequences,
                     options_.compaction_min_run);
  if (plan.empty()) return false;
  out->begin = plan.begin;
  out->end = plan.end;
  out->base = segments_[plan.begin]->base;
  out->partition = candidates[plan.begin].partition;
  out->file = PartitionedFileName(out->partition, next_file_index_);
  ++next_file_index_;  // reserve the output name now, write off-lock later
  return true;
}

Status TripStore::ExecuteCompaction(const PendingCompaction& pending) {
  // Gather the inputs under the shared lock (they are sealed and immutable;
  // appends can only push NEW segments, which leaves [begin, end) valid),
  // then encode and write the merged file without blocking the store.
  std::vector<core::MobilitySemanticsSequence> merged;
  {
    std::shared_lock lock(mu_);
    for (size_t i = pending.begin; i < pending.end; ++i) {
      const Segment& segment = *segments_[i];
      EnsureMaterialized(segment);
      // Merging placeholders would replace a corrupt file with a valid one.
      if (segment.decode_failed) {
        return Status::ParseError("cannot merge segment " + segment.file +
                                  ": its body fails to decode");
      }
      merged.insert(merged.end(), segment.sequences.begin(),
                    segment.sequences.end());
    }
  }
  std::string blob = EncodeSegmentV2(merged, pending.base);
  // Held from writing the merged file until its inputs are deleted.
  TRIPS_ASSIGN_OR_RETURN(DirectoryLock dir_lock,
                         DirectoryLock::Acquire(options_.directory));
  std::filesystem::path path =
      std::filesystem::path(options_.directory) / pending.file;
  TRIPS_RETURN_NOT_OK(WriteFileAtomic(path, blob));
  Result<SegmentFooter> footer = ReadSegmentFooter(blob);

  std::vector<std::string> stale;
  {
    std::unique_lock lock(mu_);
    auto segment = std::make_unique<Segment>();
    segment->base = pending.base;
    segment->sequence_count = merged.size();
    segment->sealed = true;
    segment->persisted = true;
    segment->partition = pending.partition;
    segment->file = pending.file;
    segment->checksum = footer.ok() ? footer->checksum : 0;
    for (size_t i = pending.begin; i < pending.end; ++i) {
      const Segment& old = *segments_[i];
      segment->triplet_count += old.triplet_count;
      if (old.has_span) GrowSpan(&segment->span, &segment->has_span, old.span);
      if (!old.file.empty()) stale.push_back(old.file);
    }
    segment->sequences = std::move(merged);
    size_t removed = pending.end - pending.begin;
    segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(pending.begin),
                    segments_.begin() + static_cast<ptrdiff_t>(pending.end));
    segments_.insert(segments_.begin() + static_cast<ptrdiff_t>(pending.begin),
                     std::move(segment));
    RebuildPartitionIndexLocked();
    if (metrics_.segments != nullptr) {
      metrics_.segments->Sub(static_cast<int64_t>(removed - 1));
    }
    if (metrics_.persisted_segments != nullptr) {
      metrics_.persisted_segments->Sub(static_cast<int64_t>(removed - 1));
    }
    if (metrics_.compactions != nullptr) metrics_.compactions->Add(1);
    if (metrics_.compacted_segments != nullptr) {
      metrics_.compacted_segments->Add(removed);
    }
    // Checkpoint the new layout BEFORE deleting the inputs: a crash between
    // the two leaves both generations on disk and a manifest naming exactly
    // one of them. If the manifest write fails, keep the inputs — the old
    // manifest still describes a complete store.
    TRIPS_RETURN_NOT_OK(WriteManifestLocked());
  }
  for (const std::string& relative : stale) {
    std::error_code ec;
    std::filesystem::remove(
        std::filesystem::path(options_.directory) / relative, ec);
  }
  return Status::OK();
}

void TripStore::CompactionWorker() {
  Status status;
  for (;;) {
    PendingCompaction pending;
    {
      std::unique_lock lock(mu_);
      if (!PrepareCompactionLocked(&pending)) break;
    }
    status = ExecuteCompaction(pending);
    if (!status.ok()) break;  // same plan would fail the same way; stop
  }
  if (!status.ok() && metrics_.compaction_errors != nullptr) {
    metrics_.compaction_errors->Add(1);
  }
  std::lock_guard<std::mutex> lock(compaction_mu_);
  if (compaction_error_.ok()) compaction_error_ = status;
  compaction_inflight_ = false;
  // Notify under the lock: once a waiter (possibly ~TripStore) observes the
  // flag it may destroy the condition variable.
  compaction_cv_.notify_all();
}

Status TripStore::Compact() {
  MaybeScheduleCompaction(/*force=*/true);
  WaitForCompaction();
  std::lock_guard<std::mutex> lock(compaction_mu_);
  return std::exchange(compaction_error_, Status::OK());
}

void TripStore::WaitForCompaction() const {
  std::unique_lock<std::mutex> lock(compaction_mu_);
  compaction_cv_.wait(lock, [this] { return !compaction_inflight_; });
}

// ---- import -----------------------------------------------------------------

Result<TripStore::SequenceId> TripStore::ImportResultFile(const std::string& path) {
  TRIPS_ASSIGN_OR_RETURN(core::MobilitySemanticsSequence seq,
                         core::ReadResultFile(path));
  return Append(std::move(seq));
}

Result<size_t> TripStore::ImportResultDir(const std::string& dir) {
  constexpr const char* kResultSuffix = ".result.json";
  std::vector<std::filesystem::path> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() <= std::string_view(kResultSuffix).size() ||
        !EndsWith(name, kResultSuffix)) {
      continue;
    }
    paths.push_back(entry.path());
  }
  if (ec) {
    return Status::IOError("cannot list result directory " + dir + ": " +
                           ec.message());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::filesystem::path& path : paths) {
    TRIPS_RETURN_NOT_OK(ImportResultFile(path.string()).status());
  }
  return paths.size();
}

// ---- queries ----------------------------------------------------------------

const core::MobilitySemanticsSequence& TripStore::SequenceLocked(
    SequenceId id) const {
  // Last segment whose base <= id.
  auto it = std::upper_bound(segments_.begin(), segments_.end(), id,
                             [](SequenceId value, const std::unique_ptr<Segment>& s) {
                               return value < s->base;
                             });
  const Segment& segment = **std::prev(it);
  EnsureMaterialized(segment);
  return segment.sequences[id - segment.base];
}

core::MobilitySemanticsSequence TripStore::DeviceHistory(
    const std::string& device) const {
  HydrateIndexes();
  obs::StageTimer query_timer(metrics_.query_ns);
  if (metrics_.queries != nullptr) metrics_.queries->Add(1);
  std::shared_lock lock(mu_);
  core::MobilitySemanticsSequence history;
  history.device_id = device;
  auto it = device_index_.find(device);
  if (it == device_index_.end()) return history;
  for (SequenceId id : it->second) {
    const core::MobilitySemanticsSequence& seq = SequenceLocked(id);
    history.semantics.insert(history.semantics.end(), seq.semantics.begin(),
                             seq.semantics.end());
  }
  history.SortByTime();
  return history;
}

std::vector<RegionVisit> TripStore::RegionVisitors(dsm::RegionId region,
                                                   TimestampMs t0,
                                                   TimestampMs t1) const {
  HydrateIndexes();
  obs::StageTimer query_timer(metrics_.query_ns);
  if (metrics_.queries != nullptr) metrics_.queries->Add(1);
  std::shared_lock lock(mu_);
  TimeRange window{t0, t1};
  std::vector<RegionVisit> visits;
  std::vector<RegionPosting> postings;
  region_index_.CollectInto(region, &postings);
  if (postings.empty()) return visits;
  std::vector<std::vector<RegionVisit>> partial(postings.size());
  pool_->ParallelFor(postings.size(), [&](size_t i) {
    const RegionPosting& posting = postings[i];
    if (!posting.fence.Overlaps(window)) return;
    const core::MobilitySemanticsSequence& seq = SequenceLocked(posting.sequence);
    for (const core::MobilitySemantic& s : seq.semantics) {
      if (s.region != region || !s.range.Overlaps(window)) continue;
      partial[i].push_back({seq.device_id, s});
    }
  });
  for (std::vector<RegionVisit>& p : partial) {
    visits.insert(visits.end(), std::make_move_iterator(p.begin()),
                  std::make_move_iterator(p.end()));
  }
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

size_t TripStore::FlowBetween(dsm::RegionId from, dsm::RegionId to) const {
  HydrateIndexes();
  obs::StageTimer query_timer(metrics_.query_ns);
  if (metrics_.queries != nullptr) metrics_.queries->Add(1);
  std::shared_lock lock(mu_);
  if (from < 0 || from >= kDenseFlowLimit || to < 0 || to >= kDenseFlowLimit) {
    auto it = flow_overflow_.find({from, to});
    return it == flow_overflow_.end() ? 0 : it->second;
  }
  size_t row = static_cast<size_t>(from);
  size_t col = static_cast<size_t>(to);
  if (row >= flow_.size() || col >= flow_[row].size()) return 0;
  return flow_[row][col];
}

std::map<dsm::RegionId, std::map<dsm::RegionId, size_t>> TripStore::FlowMatrix()
    const {
  HydrateIndexes();
  obs::StageTimer query_timer(metrics_.query_ns);
  if (metrics_.queries != nullptr) metrics_.queries->Add(1);
  std::shared_lock lock(mu_);
  // The public shape stays the nested map; only observed transitions appear,
  // exactly as the former map-of-maps accumulated them.
  std::map<dsm::RegionId, std::map<dsm::RegionId, size_t>> out;
  for (size_t row = 0; row < flow_.size(); ++row) {
    for (size_t col = 0; col < flow_[row].size(); ++col) {
      if (flow_[row][col] > 0) {
        out[static_cast<dsm::RegionId>(row)][static_cast<dsm::RegionId>(col)] =
            flow_[row][col];
      }
    }
  }
  for (const auto& [pair, count] : flow_overflow_) {
    out[pair.first][pair.second] = count;
  }
  return out;
}

std::vector<core::MobilitySemanticsSequence> TripStore::SequencesInRange(
    TimestampMs t0, TimestampMs t1) const {
  obs::StageTimer query_timer(metrics_.query_ns);
  if (metrics_.queries != nullptr) metrics_.queries->Add(1);
  std::shared_lock lock(mu_);
  TimeRange window{t0, t1};
  // Two-level pruning: drop whole partitions by their union span, then
  // individual segments by theirs. Only survivors are materialized.
  std::vector<size_t> candidates;
  for (const auto& [bucket, info] : partition_index_) {
    if (!info.has_span || !info.span.Overlaps(window)) continue;
    for (size_t i : info.segments) {
      const Segment& segment = *segments_[i];
      if (segment.has_span && segment.span.Overlaps(window)) {
        candidates.push_back(i);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());  // back to append order
  std::vector<std::vector<core::MobilitySemanticsSequence>> partial(
      candidates.size());
  pool_->ParallelFor(candidates.size(), [&](size_t c) {
    const Segment& segment = *segments_[candidates[c]];
    EnsureMaterialized(segment);
    for (const core::MobilitySemanticsSequence& seq : segment.sequences) {
      bool overlaps = false;
      for (const core::MobilitySemantic& s : seq.semantics) {
        if (s.range.Overlaps(window)) {
          overlaps = true;
          break;
        }
      }
      if (overlaps) partial[c].push_back(seq);
    }
  });
  std::vector<core::MobilitySemanticsSequence> out;
  for (std::vector<core::MobilitySemanticsSequence>& p : partial) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
  }
  return out;
}

void TripStore::ForEachSequence(
    const std::function<void(SequenceId, const core::MobilitySemanticsSequence&)>&
        fn) const {
  std::shared_lock lock(mu_);
  for (const auto& segment_ptr : segments_) {
    const Segment& segment = *segment_ptr;
    EnsureMaterialized(segment);
    SequenceId id = segment.base;
    for (const core::MobilitySemanticsSequence& seq : segment.sequences) {
      fn(id++, seq);
    }
  }
}

core::MobilityAnalytics TripStore::BuildAnalytics(const dsm::Dsm* dsm) const {
  obs::StageTimer query_timer(metrics_.query_ns);
  if (metrics_.queries != nullptr) metrics_.queries->Add(1);
  std::shared_lock lock(mu_);
  std::vector<core::MobilityAnalytics> partial(segments_.size(),
                                               core::MobilityAnalytics(dsm));
  pool_->ParallelFor(segments_.size(), [&](size_t i) {
    const Segment& segment = *segments_[i];
    EnsureMaterialized(segment);
    for (const core::MobilitySemanticsSequence& seq : segment.sequences) {
      partial[i].AddSequence(seq);
    }
  });
  core::MobilityAnalytics analytics(dsm);
  for (const core::MobilityAnalytics& p : partial) analytics.Merge(p);
  return analytics;
}

std::vector<std::string> TripStore::Devices() const {
  HydrateIndexes();
  std::shared_lock lock(mu_);
  std::vector<std::string> devices;
  devices.reserve(device_index_.size());
  for (const auto& [device, postings] : device_index_) devices.push_back(device);
  return devices;
}

StoreStats TripStore::Stats() const {
  HydrateIndexes();
  std::shared_lock lock(mu_);
  StoreStats stats;
  stats.sequences = sequence_count_;
  stats.triplets = triplet_count_;
  stats.segments = segments_.size();
  stats.devices = device_index_.size();
  stats.partitions = partition_index_.size();
  stats.postings_tail_bytes =
      region_index_.tail.size() *
      sizeof(std::pair<dsm::RegionId, RegionPosting>);
  bool has_span = false;
  for (const auto& segment : segments_) {
    if (segment->persisted) ++stats.persisted_segments;
    if (segment->materialized.load(std::memory_order_acquire)) {
      ++stats.materialized_segments;
    }
    if (segment->has_span) GrowSpan(&stats.span, &has_span, segment->span);
  }
  return stats;
}

}  // namespace trips::store
