// perfbench: the benchmark of record. See README.md.
//
//   perfbench --workload tpch|ssb|serve --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit SHA]
//
// Prints the run's host context, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced, the per-layer metrics traced. Exits 1
// when any operation failed or returned a wrong result, 2 on bad usage.

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "metrics.h"
#include "workload.h"

namespace morsel::perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// First line of a kernel setting file, or "unavailable".
std::string ReadSetting(const char* path) {
  std::ifstream f(path);
  std::string line;
  if (!f || !std::getline(f, line)) return "unavailable";
  return line;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintContext(const RunConfig& cfg, const std::string& commit) {
  const Topology topo = BenchTopology();
  const char* preload = std::getenv("LD_PRELOAD");
  struct utsname un {};
  uname(&un);
  std::printf(
      "context: {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"workers\": %d, "
      "\"topology\": \"%d sockets x %d cores, fully connected (simulated)\", "
      "\"thp\": %s, \"numa_balancing\": %s, \"kernel\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"allocator\": %s, "
      "\"commit\": %s}\n",
      JsonString(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.seconds,
      cfg.traced ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), kWorkers,
      topo.num_sockets(), topo.cores_per_socket(),
      JsonString(ReadSetting("/sys/kernel/mm/transparent_hugepage/enabled"))
          .c_str(),
      JsonString(ReadSetting("/proc/sys/kernel/numa_balancing")).c_str(),
      JsonString(un.release).c_str(), JsonString("g++ " __VERSION__).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(preload != nullptr && *preload != '\0'
                     ? std::string("LD_PRELOAD=") + preload
                     : "glibc malloc")
          .c_str(),
      JsonString(commit).c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tpch|ssb|serve --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  cfg.out_dir = ".";
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (a == "--trace") {
      cfg.traced = std::strcmp(v, "0") != 0;
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return Usage();
    }
  }
  if (!have_workload || cfg.seconds <= 0 ||
      (cfg.workload != "tpch" && cfg.workload != "ssb" &&
       cfg.workload != "serve")) {
    return Usage();
  }

  PrintContext(cfg, commit);
  std::fflush(stdout);
  RunOutcome out =
      cfg.workload == "serve" ? RunServe(cfg) : RunSuite(cfg);
  out.attempted = std::max<int64_t>(out.attempted, 1);
  const bool correct = out.failed == 0;
  std::printf("%s\n",
              ResultLine(correct, out.attempted, out.failed, out.metrics,
                         cfg.traced ? PerLayerMetrics() : EndToEndMetrics())
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace morsel::perfbench

int main(int argc, char** argv) { return morsel::perfbench::Main(argc, argv); }
