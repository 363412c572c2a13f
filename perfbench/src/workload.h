#ifndef MORSELDB_PERFBENCH_WORKLOAD_H_
#define MORSELDB_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.h"
#include "metrics.h"
#include "numa/topology.h"
#include "spans.h"

namespace morsel {
class Engine;
}

namespace morsel::perfbench {

// The engine every workload measures: EngineOptions{} defaults (the
// full-fledged engine) with four workers on a simulated 2-socket x
// 2-core topology. Fixed here, not read from MORSEL_* variables.
inline constexpr int kWorkers = 4;
inline Topology BenchTopology() {
  return Topology(2, 2, InterconnectKind::kFullyConnected);
}

// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;

// TPC-H Q15 is left out of the `tpch` suite: as written in
// src/tpch/tpch_queries.cc it returns no rows in about a third of its
// executions on 4 workers (perfbench/README.md, "Known engine defect").
inline constexpr int kTpchSkipped = 15;

struct RunConfig {
  std::string workload;  // "tpch" | "ssb" | "serve"
  uint64_t seed = 0;
  double seconds = 10;
  bool traced = false;
  std::string out_dir;   // traced runs write their spans here
};

struct RunOutcome {
  int64_t attempted = 0;
  int64_t failed = 0;  // non-ok status or a result that differs
  MetricValues metrics;
};

RunOutcome RunSuite(const RunConfig& cfg);  // tpch, ssb
RunOutcome RunServe(const RunConfig& cfg);  // serve

// --- engine-side counters read from outside, shared by the workloads ----

// Snapshot of the worker pool's cumulative busy counters and the length
// of each TraceRecorder buffer. Read it only while no query runs (the
// counters are plain fields the workers own).
struct EngineMark {
  int64_t wall_us = 0;
  std::vector<int64_t> busy_us;      // per pool worker
  std::vector<size_t> trace_events;  // per trace slot (workers + 1)
};
EngineMark MarkEngine(Engine& engine);

// Morsel events recorded since `since` (per trace slot, in order).
std::vector<TraceEvent> EventsSince(Engine& engine, const EngineMark& since);

// Layer counters over one window [from, to] of a traced engine, with the
// traffic counters reset at `from`. Adds one sample per field.
struct LayerSamples {
  std::vector<double> busy_frac, imbalance, morsels, stolen_frac;
  std::vector<double> read_mb, written_mb, remote_pct, max_link_pct;
  std::vector<double> morsel_us, gap_us;

  void AddWindow(Engine& engine, const EngineMark& from, const EngineMark& to,
                 const std::vector<TraceEvent>& events);
  // Writes the core.* and numa.* metrics (medians over windows).
  void Report(MetricValues* m) const;
};

// Writes the spans of a traced run to `<out_dir>/<workload>-seed<N>.spans.jsonl`.
void WriteSpans(const RunConfig& cfg, const SpanRecorder& spans);

}  // namespace morsel::perfbench

#endif  // MORSELDB_PERFBENCH_WORKLOAD_H_
