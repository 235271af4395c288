#include "measure.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace perfbench {

uint64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

namespace {

// A "Vm...:" field of /proc/self/status in kB, or -1.
int64_t ReadStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::char_traits<char>::length(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtoll(line.c_str() + len, nullptr, 10);
    }
  }
  return -1;
}

}  // namespace

void RssTracker::Reset() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  base_kb_ = ReadStatusKb("VmRSS:");
}

double RssTracker::PeakAboveResetMb() const {
  return static_cast<double>(ReadStatusKb("VmHWM:") - base_kb_) / 1024.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

}  // namespace perfbench
