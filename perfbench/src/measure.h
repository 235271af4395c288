// Measurement helpers of the benchmark: process CPU time, resident memory
// and nearest-rank quantiles. Wall time comes from trips::obs::NowNanos.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// User + system CPU time of the whole process (every thread), nanoseconds.
uint64_t ProcessCpuNs();

/// Resident-memory tracking through /proc/self. Reset() returns freed heap to
/// the kernel, clears the kernel's high-water mark (clear_refs "5") and
/// remembers the current resident size; PeakAboveResetMb() is the high-water
/// mark since then minus that level.
class RssTracker {
 public:
  void Reset();
  double PeakAboveResetMb() const;

 private:
  int64_t base_kb_ = 0;
};

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

/// One reported metric: value, unit and the number of samples behind it.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};
using MetricMap = std::map<std::string, Metric>;

}  // namespace perfbench
