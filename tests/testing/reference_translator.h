// The serial batch reference: one request translated in input order on the
// calling thread, one layer at a time — clean+annotate every sequence, learn
// mobility knowledge from the whole batch, complement every sequence. It is
// the oracle BatchSession's parallel fan-out must match byte for byte at any
// worker count (tests/service_test.cc and tests/record_block_test.cc check
// that). Header-only; used only by tests.
#pragma once

#include <utility>
#include <vector>

#include "complement/knowledge.h"
#include "core/engine.h"
#include "positioning/record.h"
#include "positioning/record_block.h"

namespace trips::core::testing {

/// Translates `sequences` as one batch and returns the results in input
/// order. The learned knowledge replaces the engine's baseline only when the
/// batch observed at least one transition.
inline std::vector<TranslationResult> ReferenceTranslateAll(
    const Engine& engine,
    const std::vector<positioning::PositioningSequence>& sequences) {
  std::vector<TranslationResult> results;
  results.reserve(sequences.size());
  positioning::RecordBlock block;
  for (const positioning::PositioningSequence& seq : sequences) {
    block.AssignFrom(seq);
    results.push_back(engine.CleanAndAnnotate(&block));
  }

  complement::MobilityKnowledge knowledge = engine.knowledge();
  complement::MobilityKnowledge learned = engine.BuildKnowledge(results);
  if (learned.observed_transitions > 0) knowledge = std::move(learned);

  for (TranslationResult& r : results) engine.Complement(&r, knowledge);
  return results;
}

}  // namespace trips::core::testing
