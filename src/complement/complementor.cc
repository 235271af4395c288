#include "complement/complementor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <queue>

namespace trips::complement {

Complementor::Complementor(const dsm::Dsm* dsm, const MobilityKnowledge* knowledge,
                           ComplementorOptions options)
    : dsm_(dsm), knowledge_(knowledge), options_(options) {}

std::vector<dsm::RegionId> Complementor::InferPath(dsm::RegionId from,
                                                   dsm::RegionId to) const {
  std::vector<dsm::RegionId> empty;
  if (from == to || from == dsm::kInvalidRegion || to == dsm::kInvalidRegion) {
    return empty;
  }

  // MAP path = min-cost path under -log transition probabilities, bounded by
  // max_inferred_steps intermediate hops. Layered Dijkstra over (region, hops).
  // Every weight -log p is >= 0, so pops come in non-decreasing cost: the
  // first settled goal state is a cheapest one (a later goal never costs
  // strictly less) and the prev chain behind it is final — stop there.
  const int max_hops = options_.max_inferred_steps + 1;  // edges allowed
  // cost[(region, hops-used)]
  std::map<std::pair<dsm::RegionId, int>, double> cost;
  std::map<std::pair<dsm::RegionId, int>, std::pair<dsm::RegionId, int>> prev;
  using QItem = std::pair<double, std::pair<dsm::RegionId, int>>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  cost[{from, 0}] = 0;
  queue.push({0, {from, 0}});

  std::pair<dsm::RegionId, int> goal{dsm::kInvalidRegion, -1};

  while (!queue.empty()) {
    auto [c, state] = queue.top();
    queue.pop();
    auto it = cost.find(state);
    if (it == cost.end() || c > it->second) continue;
    auto [region, hops] = state;
    if (region == to) {
      goal = state;
      break;
    }
    if (hops >= max_hops) continue;
    auto row = knowledge_->transition_prob.find(region);
    if (row == knowledge_->transition_prob.end()) continue;
    for (const auto& [next, p] : row->second) {
      if (p <= 0) continue;
      double nc = c - std::log(p);
      std::pair<dsm::RegionId, int> ns{next, hops + 1};
      auto found = cost.find(ns);
      if (found == cost.end() || nc < found->second) {
        cost[ns] = nc;
        prev[ns] = state;
        queue.push({nc, ns});
      }
    }
  }

  if (goal.second < 0) return empty;
  // Reconstruct, excluding the endpoints.
  std::vector<dsm::RegionId> path;
  std::pair<dsm::RegionId, int> cur = goal;
  while (!(cur.first == from && cur.second == 0)) {
    path.push_back(cur.first);
    auto it = prev.find(cur);
    if (it == prev.end()) break;
    cur = it->second;
  }
  std::reverse(path.begin(), path.end());
  if (!path.empty() && path.back() == to) path.pop_back();
  return path;
}

core::MobilitySemanticsSequence Complementor::Complement(
    const core::MobilitySemanticsSequence& original, ComplementReport* report) const {
  ComplementReport local;
  ComplementReport* rep = report != nullptr ? report : &local;
  *rep = ComplementReport{};

  core::MobilitySemanticsSequence out;
  out.device_id = original.device_id;
  const auto& in = original.semantics;
  for (size_t i = 0; i < in.size(); ++i) {
    out.semantics.push_back(in[i]);
    if (i + 1 >= in.size()) break;
    const core::MobilitySemantic& cur = in[i];
    const core::MobilitySemantic& next = in[i + 1];
    DurationMs gap = next.range.begin - cur.range.end;
    if (gap < options_.min_gap) continue;
    ++rep->gaps_found;

    TimeRange window{cur.range.end + 1, next.range.begin - 1};
    std::vector<core::MobilitySemantic> inferred;

    if (cur.region == next.region && cur.region != dsm::kInvalidRegion) {
      // The device likely never left the region: one inferred stay/pass-by.
      core::MobilitySemantic s;
      s.region = cur.region;
      s.region_name = cur.region_name;
      s.range = window;
      s.event = window.Duration() >= options_.stay_threshold ? core::kEventStay
                                                             : core::kEventPassBy;
      s.inferred = true;
      inferred.push_back(std::move(s));
    } else {
      std::vector<dsm::RegionId> path = InferPath(cur.region, next.region);
      if (!path.empty()) {
        // Allocate the window proportionally to each region's mean dwell.
        std::vector<double> weights;
        double total = 0;
        for (dsm::RegionId rid : path) {
          auto it = knowledge_->mean_dwell.find(rid);
          double w = it != knowledge_->mean_dwell.end() && it->second > 0
                         ? static_cast<double>(it->second)
                         : static_cast<double>(kMillisPerMinute);
          weights.push_back(w);
          total += w;
        }
        TimestampMs t = window.begin;
        for (size_t k = 0; k < path.size(); ++k) {
          DurationMs slice =
              k + 1 == path.size()
                  ? window.end - t
                  : static_cast<DurationMs>(window.Duration() * weights[k] / total);
          if (slice <= 0) continue;
          core::MobilitySemantic s;
          s.region = path[k];
          if (const dsm::SemanticRegion* r = dsm_->GetRegion(path[k])) {
            s.region_name = r->name;
          }
          s.range = {t, std::min<TimestampMs>(t + slice, window.end)};
          s.event = s.range.Duration() >= options_.stay_threshold
                        ? core::kEventStay
                        : core::kEventPassBy;
          s.inferred = true;
          inferred.push_back(std::move(s));
          t += slice;
        }
      }
    }

    if (!inferred.empty()) {
      ++rep->gaps_filled;
      rep->triplets_inferred += inferred.size();
      for (core::MobilitySemantic& s : inferred) out.semantics.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace trips::complement
