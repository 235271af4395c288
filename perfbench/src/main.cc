// perfbench — the TRIPS serving benchmark. Replays one seeded workload
// through the public serving API and prints its metrics; the last line of
// standard output is the machine-readable result:
//
//   perfbench --workload city_steady --seed 7 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, aggregated over fresh reps;
// --trace 1 prints the per-layer metrics, the per-record ledger, and writes
// the spans as Chrome trace-event JSON. See perfbench/README.md.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "inputs.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "runner.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;
namespace json = trips::json;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string work_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool Parse(int argc, char** argv, Args* a, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return false;
    }
    std::string value = argv[++i];
    if (key == "--workload") a->workload = value;
    else if (key == "--seed") a->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") a->seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") a->trace = std::atoi(value.c_str());
    else if (key == "--out-dir") a->out_dir = value;
    else if (key == "--work-dir") a->work_dir = value;
    else if (key == "--commit") a->commit = value;
    else if (key == "--source-digest") a->source_digest = value;
    else {
      *error = "unknown argument " + key;
      return false;
    }
  }
  if (a->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (a->trace != 0 && a->trace != 1) {
    *error = "--trace must be 0 or 1";
    return false;
  }
  if (a->work_dir.empty()) {
    a->work_dir = ".bench_build/perfbench-work/" + std::to_string(getpid());
  }
  return true;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

json::Value Metadata(const Args& a, const WorkloadInput& w) {
  json::Object j;
  j["workload"] = a.workload;
  j["seed"] = static_cast<int64_t>(a.seed);
  j["seconds"] = a.seconds;
  j["trace"] = a.trace == 1;
  j["commit"] = a.commit;
  j["source_digest"] = a.source_digest;
  j["build_type"] = PERFBENCH_BUILD_TYPE;
  j["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  j["compiler"] = PERFBENCH_COMPILER;
  j["nproc"] = static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  j["cpu_model"] = CpuModel();
  j["worker_threads"] = static_cast<int64_t>(kWorkers);
  j["sessions"] = static_cast<int64_t>(w.sessions.size());
  j["records"] = static_cast<int64_t>(w.total_records);
  j["params"] = w.params;
  return j;
}

json::Value ResultLine(const RunOutput& r, bool with_samples) {
  json::Object metrics;
  for (const auto& [name, m] : r.metrics) {
    json::Object metric;
    metric["value"] = m.value;
    metric["unit"] = m.unit;
    if (with_samples) metric["samples"] = static_cast<int64_t>(m.samples);
    metrics[name] = std::move(metric);
  }
  json::Object j;
  j["correct"] = r.correct;
  j["attempted"] = static_cast<int64_t>(r.attempted);
  j["failed"] = static_cast<int64_t>(r.failed);
  j["metrics"] = std::move(metrics);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!Parse(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const uint64_t gen_start = trips::obs::NowNanos();
  auto input = MakeWorkload(args.workload, args.seed);
  if (!input.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", input.status().ToString().c_str());
    return 2;
  }
  const WorkloadInput& w = input.ValueOrDie();
  const json::Value metadata = Metadata(args, w);
  std::printf("perfbench %s seed=%llu: %zu sessions, %zu records, inputs generated in %.2f s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), w.sessions.size(),
              w.total_records, static_cast<double>(trips::obs::NowNanos() - gen_start) / 1e9);
  std::printf("run %s\n", metadata.Dump().c_str());
  std::fflush(stdout);

  RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace = args.trace == 1;
  options.work_dir = args.work_dir;
  options.out_dir = args.out_dir;
  options.metadata = metadata;
  RunOutput result = RunWorkload(w, options);
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);

  std::printf("%s", result.text.c_str());
  std::printf("%-40s %16s  %-14s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : result.metrics) {
    std::printf("%-40s %16.6g  %-14s %llu\n", name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("reps %zu, operations attempted %llu, failed %llu\n", result.reps,
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& f : result.failures) std::printf("FAILED: %s\n", f.c_str());
  if (!result.trace_file.empty()) std::printf("spans: %s\n", result.trace_file.c_str());

  json::Array failures;
  for (const std::string& f : result.failures) failures.push_back(f);
  json::Object report;
  report["run"] = metadata;
  report["reps"] = static_cast<int64_t>(result.reps);
  report["result"] = ResultLine(result, true);
  report["failures"] = std::move(failures);
  const std::string report_path = args.out_dir + "/" + w.name + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  std::to_string(args.trace) + ".json";
  std::filesystem::create_directories(args.out_dir, ec);
  if (json::WriteFile(report, report_path).ok()) {
    std::printf("report: %s\n", report_path.c_str());
  }

  std::printf("%s\n", ResultLine(result, false).Dump().c_str());
  return result.correct ? 0 : 1;
}
