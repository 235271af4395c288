// A seeded stream replay for the ingest front doors: short visits whose
// starts come sparse, then dense, then all at once; their records merged into
// one feed in time order and fed with a Poll every poll interval of record
// time. It gives a StreamSession (or a Cluster) overlapping, bursty arrivals
// at unit-test size. Header-only; used only by tests.
#pragma once

#include <algorithm>
#include <vector>

#include "positioning/record.h"
#include "util/time_util.h"

namespace trips::core::testing {

/// Start times of the replay's 24 visits from `t0`: 8 sparse starts 3 minutes
/// apart, 8 dense starts 10 s apart, then a burst of 8 at one instant.
inline std::vector<TimestampMs> ReplayStarts(TimestampMs t0) {
  std::vector<TimestampMs> starts;
  TimestampMs t = t0;
  for (int i = 0; i < 8; ++i, t += 3 * kMillisPerMinute) starts.push_back(t);
  for (int i = 0; i < 8; ++i, t += 10 * kMillisPerSecond) starts.push_back(t);
  for (int i = 0; i < 8; ++i) starts.push_back(t);
  return starts;
}

/// One record of the merged feed and the visit it belongs to.
struct ReplayRecord {
  size_t visit = 0;
  positioning::RawRecord record;
};

/// Merges the visits' records into one feed in time order. Records with equal
/// timestamps keep visit order, then record order.
inline std::vector<ReplayRecord> MergeByTime(
    const std::vector<positioning::PositioningSequence>& visits) {
  std::vector<ReplayRecord> feed;
  for (size_t v = 0; v < visits.size(); ++v) {
    for (const positioning::RawRecord& record : visits[v].records) {
      feed.push_back({v, record});
    }
  }
  std::stable_sort(feed.begin(), feed.end(),
                   [](const ReplayRecord& a, const ReplayRecord& b) {
                     return a.record.timestamp < b.record.timestamp;
                   });
  return feed;
}

/// Feeds `feed` in order. Before each record it calls `poll(t)` for every
/// t = first timestamp + k * `poll_interval` (k >= 1) the record has reached;
/// then it calls `ingest(record)`. The caller drains with FlushAll after.
template <typename Ingest, typename Poll>
void DriveReplay(const std::vector<ReplayRecord>& feed, DurationMs poll_interval,
                 Ingest&& ingest, Poll&& poll) {
  if (feed.empty()) return;
  TimestampMs next_poll = feed.front().record.timestamp + poll_interval;
  for (const ReplayRecord& r : feed) {
    for (; next_poll <= r.record.timestamp; next_poll += poll_interval) {
      poll(next_poll);
    }
    ingest(r);
  }
}

}  // namespace trips::core::testing
