// Event Editor — third Configurator module (§2): "helps users work out the
// training data for the model that identifies the mobility events in the
// translation. It allows users to define mobility event patterns, and
// designate each defined pattern the corresponding positioning sequence
// segments on the map view."
#pragma once

#include <map>
#include <string>
#include <vector>

#include "positioning/record.h"
#include "util/result.h"

namespace trips::config {

/// A user-defined mobility event pattern.
struct EventPattern {
  std::string name;         ///< e.g. "stay", "pass-by", "queue".
  std::string description;  ///< free text for the analyst.
};

/// One designated training example: a positioning-sequence segment labeled
/// with the event pattern it exemplifies.
struct LabeledSegment {
  std::string event;
  positioning::PositioningSequence segment;
};

/// Collects event-pattern definitions and their designated training segments.
class EventEditor {
 public:
  /// Defines a new pattern; duplicate names fail.
  Status DefinePattern(const std::string& name, const std::string& description = "");

  /// Removes a pattern and all of its designated segments.
  Status RemovePattern(const std::string& name);

  /// Designates a segment as a training example of `pattern` (the map-view
  /// selection in the paper's Fig. 5(3)). The pattern must exist and the
  /// segment must contain at least two records.
  Status DesignateSegment(const std::string& pattern,
                          positioning::PositioningSequence segment);

  /// Convenience: designates the sub-segment of `seq` within `range`.
  Status DesignateRange(const std::string& pattern,
                        const positioning::PositioningSequence& seq, TimeRange range);

  /// Defined patterns, in definition order.
  const std::vector<EventPattern>& patterns() const { return patterns_; }
  /// True iff the pattern is defined.
  bool HasPattern(const std::string& name) const;

  /// All designated training segments (the training corpus
  /// core::Engine::Builder::SetTrainingData takes).
  const std::vector<LabeledSegment>& training_data() const { return training_; }

  /// Number of designated segments per pattern.
  std::map<std::string, size_t> SegmentCounts() const;

 private:
  std::vector<EventPattern> patterns_;
  std::vector<LabeledSegment> training_;
};

}  // namespace trips::config
