// Store benchmark program: runs one workload (or all of them) and prints
// its result as one JSON object on the last line of standard output.
//
//   hm_perfbench --workload <name|all> --seed <n> --seconds <s>
//                --trace <0|1> --workdir <dir>
//   hm_perfbench --selftest
//
// Everything else (progress, the per-operation table, wrong answers)
// goes to standard error. The scratch directory is created on start and
// removed on exit, whether the run passed, failed its checks or erred.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

void PrintJson(const perfbench::Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

/// Confines the process, and every thread it starts later, to one CPU:
/// the last one it may run on. Across CPUs, a loopback round trip
/// costs two cross-CPU wake-ups whose latency on a shared virtual host
/// moved the wire workloads by a factor of two between runs; on one CPU
/// it is two context switches and runs repeat within a few percent.
/// Returns the CPU, or -1 when the affinity cannot be set.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? last : -1;
}

/// Removes the scratch directory on every way out of main.
struct ScratchDir {
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
};

int Usage() {
  std::cerr << "usage: hm_perfbench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n"
               "       hm_perfbench --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (selftest) return perfbench::RunSelfTest() == 0 ? 0 : 1;
  if (options.workload.empty() || options.workdir.empty() ||
      options.seconds <= 0) {
    return Usage();
  }

  std::cerr << "hm_perfbench: running on CPU " << PinToOneCpu() << "\n";
  std::vector<std::string> workloads{options.workload};
  if (options.workload == "all") workloads = perfbench::WorkloadNames();
  try {
    ScratchDir scratch(options.workdir);
    for (const std::string& name : workloads) {
      perfbench::Options run = options;
      run.workload = name;
      run.workdir = scratch.path + "/" + name;
      std::filesystem::create_directories(run.workdir);
      auto outcome = perfbench::RunWorkload(run);
      std::filesystem::remove_all(run.workdir);
      if (!outcome.ok()) {
        std::cerr << "hm_perfbench: " << name << ": "
                  << outcome.status().ToString() << "\n";
        return 1;
      }
      std::cerr << "hm_perfbench: " << name << ": attempted "
                << outcome->attempted << ", failed " << outcome->failed
                << (outcome->correct ? ", all answers correct\n"
                                     : ", WRONG ANSWERS\n");
      for (const perfbench::Metric& m : outcome->end_to_end) {
        std::cerr << "hm_perfbench: traced " << m.name << " = " << m.value
                  << " " << m.unit << "\n";
      }
      PrintJson(*outcome);
    }
  } catch (const std::exception& e) {
    std::cerr << "hm_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
