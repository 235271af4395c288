// Mobility Semantics Complementor — second half of the Complementing layer
// (§2, §3): "recovers the missing mobility semantics between two consecutive
// yet temporally far apart mobility semantics ... by a maximum a posteriori
// estimation, a mobility semantics inference utilizes the mobility knowledge
// to infer the most-likely mobility semantics between two semantic regions
// involved in the intermediate result."
#pragma once

#include <vector>

#include "complement/knowledge.h"
#include "core/semantics.h"
#include "dsm/dsm.h"

namespace trips::complement {

/// Options of the complementor.
struct ComplementorOptions {
  /// Gaps shorter than this are boundary slack, not missing semantics.
  DurationMs min_gap = 45 * kMillisPerSecond;
  /// Upper bound on the number of inferred intermediate regions per gap.
  int max_inferred_steps = 4;
  /// Inferred triplets allocated at least this long are labeled "stay";
  /// shorter ones "pass-by".
  DurationMs stay_threshold = 90 * kMillisPerSecond;
};

/// What the complementor did to one sequence.
struct ComplementReport {
  size_t gaps_found = 0;
  size_t gaps_filled = 0;
  size_t triplets_inferred = 0;
};

/// Fills semantic gaps using MAP inference over the mobility knowledge.
class Complementor {
 public:
  /// `dsm` and `knowledge` must outlive the complementor.
  Complementor(const dsm::Dsm* dsm, const MobilityKnowledge* knowledge,
               ComplementorOptions options = {});

  /// Returns `original` with inferred triplets (marked `inferred = true`)
  /// inserted into qualifying gaps. `report` may be null.
  core::MobilitySemanticsSequence Complement(
      const core::MobilitySemanticsSequence& original,
      ComplementReport* report = nullptr) const;

  /// MAP-most-likely region path from `from` to `to` (exclusive of both
  /// endpoints), at most max_inferred_steps long; empty when no path exists
  /// within the limit or the endpoints coincide. The layered Dijkstra stops
  /// at its first settled goal state: with weights -log p >= 0 no later goal
  /// is cheaper, so the path is the full search's (the oracle is
  /// tests/testing/reference_complementor.h).
  std::vector<dsm::RegionId> InferPath(dsm::RegionId from, dsm::RegionId to) const;

 private:
  const dsm::Dsm* dsm_;
  const MobilityKnowledge* knowledge_;
  ComplementorOptions options_;
};

}  // namespace trips::complement
