#include "annotation/spatial_matcher.h"

#include <algorithm>
#include <vector>

namespace trips::annotation {

SpatialMatcher::SpatialMatcher(const dsm::Dsm* dsm, SpatialMatcherOptions options)
    : dsm_(dsm), options_(options) {}

SpatialMatch SpatialMatcher::Match(const positioning::RecordBlock& block,
                                   size_t begin, size_t end) const {
  SpatialMatch out;
  if (end > block.Size()) end = block.Size();
  if (begin >= end) return out;
  const std::vector<TimestampMs>& ts = block.timestamps;

  // Flat per-region vote accumulator, reused across calls (thread-local: one
  // matcher instance serves all translation workers). The buffer is indexed
  // by region id and only the touched entries are reset afterwards, so the
  // steady-state inner loop allocates nothing.
  static thread_local std::vector<double> votes;
  static thread_local std::vector<dsm::RegionId> touched;
  size_t region_count = dsm_->regions().size();
  if (votes.size() < region_count) votes.resize(region_count, 0);
  touched.clear();

  // Each record votes with the time it "owns": half the gap to each
  // neighbouring record (1 for singletons).
  double total = 0;
  for (size_t i = begin; i < end; ++i) {
    double weight = 0;
    if (i > begin) weight += static_cast<double>(ts[i] - ts[i - 1]) / 2;
    if (i + 1 < end) weight += static_cast<double>(ts[i + 1] - ts[i]) / 2;
    if (weight <= 0) weight = 1;
    dsm::RegionId rid = dsm_->RegionAt(block.Location(i));
    if (rid != dsm::kInvalidRegion) {
      if (votes[rid] == 0) touched.push_back(rid);
      votes[rid] += weight;
    }
    total += weight;
  }

  // Candidates in ascending region id with a strict comparison: the same
  // winner (lowest id among vote ties) the former std::map accumulator chose.
  std::sort(touched.begin(), touched.end());
  dsm::RegionId best = dsm::kInvalidRegion;
  double best_votes = 0;
  for (dsm::RegionId rid : touched) {
    if (votes[rid] > best_votes) {
      best_votes = votes[rid];
      best = rid;
    }
  }
  for (dsm::RegionId rid : touched) votes[rid] = 0;

  if (best == dsm::kInvalidRegion || total <= 0) return out;
  double coverage = best_votes / total;
  if (coverage < options_.min_coverage) return out;

  out.region = best;
  out.coverage = coverage;
  if (const dsm::SemanticRegion* r = dsm_->GetRegion(best)) {
    out.region_name = r->name;
  }
  return out;
}

}  // namespace trips::annotation
