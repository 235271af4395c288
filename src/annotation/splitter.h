// Density-based splitting — first step of the Annotation layer (§3): "a
// density-based splitting obtains a number of data snippets by clustering
// positioning records with respect to their spatio-temporal attributes."
//
// The split is ST-DBSCAN over the cleaned records: two records are
// neighbours when they are within eps_space metres on the same floor AND
// within eps_time of each other; records with at least min_pts neighbours
// (self included) are core points and clusters grow over density-connected
// cores. Because the time axis bounds the neighbourhood, clusters come out
// temporally coherent; the final snippets are the maximal time-contiguous
// runs of equal cluster label (dense snippets = dwell-like, noise runs =
// transition-like).
//
// The kernel computes the labels of a sequential DBSCAN scan (visit records
// in index order, expand each new cluster breadth-first; the oracle is
// tests/testing/reference_splitter.h) without visiting records one by one:
//   1. two pointers give every record its time window;
//   2. a vectorized pass over each record's forward window credits both
//      ends of every neighbouring pair, which gives each record its
//      neighbour count and core flag — a property of the data alone,
//      independent of visiting order;
//   3. union-find over pairs of neighbouring cores yields the components of
//      the core graph, which are exactly the scan's clusters; the scan opens
//      a cluster at its smallest core index, so numbering each component by
//      that index orders clusters as the scan creates them;
//   4. a non-core record takes the smallest-numbered cluster among its core
//      neighbours (the scan expands clusters one at a time, so the first to
//      reach a border point is the earliest adjacent one), or stays noise.
// The distance test needs no sqrt: `dx*dx + dy*dy <= bound`, with `bound` the
// largest double whose sqrt is <= eps_space, is exact because IEEE sqrt is
// correctly rounded and therefore monotone. Scratch is O(records) per thread.
#pragma once

#include <cstddef>
#include <vector>

#include "positioning/record_block.h"

namespace trips::annotation {

/// Parameters of the spatio-temporal density clustering.
struct SplitterOptions {
  /// Spatial neighbourhood radius, metres.
  double eps_space = 3.0;
  /// Temporal neighbourhood radius, milliseconds.
  DurationMs eps_time = 90 * kMillisPerSecond;
  /// Minimum neighbours (incl. self) for a core point.
  size_t min_pts = 4;
  /// Runs shorter than this are merged into the preceding snippet rather
  /// than emitted on their own (anti-fragmentation).
  DurationMs min_snippet = 10 * kMillisPerSecond;
};

/// A snippet: the record index range [begin, end) of one split segment.
struct Snippet {
  size_t begin = 0;
  size_t end = 0;  ///< exclusive
  /// True when the snippet is a density cluster (dwell-like); false for a
  /// between-cluster transition run.
  bool dense = false;

  size_t Size() const { return end - begin; }
};

/// Splits a time-sorted record block into snippets. Returns an empty vector
/// for blocks with fewer than 2 records. The records must be time-sorted (the
/// engine sorts every block before cleaning); the time windows assume it.
std::vector<Snippet> SplitSequence(const positioning::RecordBlock& block,
                                   const SplitterOptions& options = {});

}  // namespace trips::annotation
