#include "config/event_editor.h"

#include <algorithm>

namespace trips::config {

Status EventEditor::DefinePattern(const std::string& name,
                                  const std::string& description) {
  if (name.empty()) return Status::InvalidArgument("pattern name must be non-empty");
  if (HasPattern(name)) return Status::AlreadyExists("pattern '" + name + "'");
  patterns_.push_back({name, description});
  return Status::OK();
}

Status EventEditor::RemovePattern(const std::string& name) {
  auto it = std::find_if(patterns_.begin(), patterns_.end(),
                         [&](const EventPattern& p) { return p.name == name; });
  if (it == patterns_.end()) return Status::NotFound("pattern '" + name + "'");
  patterns_.erase(it);
  training_.erase(std::remove_if(training_.begin(), training_.end(),
                                 [&](const LabeledSegment& s) {
                                   return s.event == name;
                                 }),
                  training_.end());
  return Status::OK();
}

Status EventEditor::DesignateSegment(const std::string& pattern,
                                     positioning::PositioningSequence segment) {
  if (!HasPattern(pattern)) return Status::NotFound("pattern '" + pattern + "'");
  if (segment.records.size() < 2) {
    return Status::InvalidArgument("training segment needs >= 2 records");
  }
  segment.SortByTime();
  training_.push_back({pattern, std::move(segment)});
  return Status::OK();
}

Status EventEditor::DesignateRange(const std::string& pattern,
                                   const positioning::PositioningSequence& seq,
                                   TimeRange range) {
  positioning::PositioningSequence segment;
  segment.device_id = seq.device_id;
  segment.records = seq.RecordsIn(range);
  return DesignateSegment(pattern, std::move(segment));
}

bool EventEditor::HasPattern(const std::string& name) const {
  return std::any_of(patterns_.begin(), patterns_.end(),
                     [&](const EventPattern& p) { return p.name == name; });
}

std::map<std::string, size_t> EventEditor::SegmentCounts() const {
  std::map<std::string, size_t> counts;
  for (const EventPattern& p : patterns_) counts[p.name] = 0;
  for (const LabeledSegment& s : training_) ++counts[s.event];
  return counts;
}

}  // namespace trips::config
