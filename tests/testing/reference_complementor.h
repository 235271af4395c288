// The full-search reference MAP path: the original layered Dijkstra of the
// complementing layer, which drains the whole heap and keeps the cheapest goal
// state it pops. It is the oracle complement::Complementor::InferPath, which
// stops at its first settled goal state, must match path for path
// (tests/complement_test.cc checks that on random knowledge tables).
// Header-only; linked only by tests and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "complement/complementor.h"
#include "complement/knowledge.h"
#include "dsm/entity.h"

namespace trips::complement::testing {

/// Same contract as Complementor::InferPath over `knowledge` and `options`.
inline std::vector<dsm::RegionId> ReferenceInferPath(
    const MobilityKnowledge& knowledge, const ComplementorOptions& options,
    dsm::RegionId from, dsm::RegionId to) {
  std::vector<dsm::RegionId> empty;
  if (from == to || from == dsm::kInvalidRegion || to == dsm::kInvalidRegion) {
    return empty;
  }

  // MAP path = min-cost path under -log transition probabilities, bounded by
  // max_inferred_steps intermediate hops. Layered Dijkstra over (region, hops).
  const int max_hops = options.max_inferred_steps + 1;  // edges allowed
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // cost[(region, hops-used)]
  std::map<std::pair<dsm::RegionId, int>, double> cost;
  std::map<std::pair<dsm::RegionId, int>, std::pair<dsm::RegionId, int>> prev;
  using QItem = std::pair<double, std::pair<dsm::RegionId, int>>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  cost[{from, 0}] = 0;
  queue.push({0, {from, 0}});

  std::pair<dsm::RegionId, int> goal{dsm::kInvalidRegion, -1};
  double goal_cost = kInf;

  while (!queue.empty()) {
    auto [c, state] = queue.top();
    queue.pop();
    auto it = cost.find(state);
    if (it == cost.end() || c > it->second) continue;
    auto [region, hops] = state;
    if (region == to) {
      if (c < goal_cost) {
        goal_cost = c;
        goal = state;
      }
      continue;
    }
    if (hops >= max_hops) continue;
    auto row = knowledge.transition_prob.find(region);
    if (row == knowledge.transition_prob.end()) continue;
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

}  // namespace trips::complement::testing
