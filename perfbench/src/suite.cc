// The `tpch` and `ssb` workloads: one client runs the whole query suite
// in a closed loop, one query at a time, in a per-pass order shuffled
// from the seed. Every result is checked against a reference computed at
// set-up by a 1-worker Volcano-emulation engine.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/timer.h"
#include "compare.h"
#include "engine/engine.h"
#include "ssb/ssb_queries.h"
#include "tpch/tpch_queries.h"
#include "volcano/volcano.h"
#include "workload.h"

namespace morsel::perfbench {
namespace {

constexpr double kTpchSf = 0.5;
constexpr double kSsbSf = 1.0;
constexpr int kMinPasses = 3;
constexpr int kArmPasses = 3;  // timed passes per reference arm

// One suite's data and queries.
class Suite {
 public:
  explicit Suite(bool tpch) : tpch_(tpch) {}

  const char* name() const { return tpch_ ? "tpch" : "ssb"; }
  int num_queries() const {
    return tpch_ ? kNumTpchQueries - 1 : kNumSsbQueries;
  }

  // Frees the data, so a repeated set-up never holds two copies and does
  // not time freeing the previous one.
  void Reset() {
    tpch_data_.reset();
    ssb_data_.reset();
  }

  // Returns the generation time in seconds.
  double Generate(const Topology& topo) {
    WallTimer t;
    if (tpch_) {
      tpch_data_ = std::make_unique<TpchData>(GenerateTpch(kTpchSf, topo));
    } else {
      ssb_data_ = std::make_unique<SsbData>(GenerateSsb(kSsbSf, topo));
    }
    return t.ElapsedSeconds();
  }

  ResultSet Run(Engine& engine, int q) const {
    return tpch_ ? RunTpchQuery(engine, *tpch_data_, TpchNumber(q))
                 : RunSsbQuery(engine, *ssb_data_, q);
  }

  // "q01" / "q1.1"
  std::string Label(int q) const {
    if (!tpch_) return std::string("q") + SsbQueryName(q);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "q%02d", TpchNumber(q));
    return buf;
  }

  // The span of one call: "RunTpchQuery q01" / "RunSsbQuery q1.1".
  std::string CallName(int q) const {
    return (tpch_ ? "RunTpchQuery " : "RunSsbQuery ") + Label(q);
  }

  // Output columns of the ORDER BY key of the TPC-H queries ending in
  // ORDER BY ... LIMIT (see src/tpch/tpch_queries.cc); empty otherwise.
  std::vector<int> LimitKey(int q) const {
    if (!tpch_) return {};
    switch (TpchNumber(q)) {
      case 2: return {0, 2, 1, 3};  // s_acctbal, n_name, s_name, p_partkey
      case 3: return {3, 1};        // revenue, o_orderdate
      case 10: return {2};          // revenue
      case 18: return {4, 3};       // o_totalprice, o_orderdate
      case 21: return {1, 0};       // numwait, s_name
      default: return {};
    }
  }

 private:
  // The TPC-H query number of suite index `q`.
  static int TpchNumber(int q) { return q + 1 < kTpchSkipped ? q + 1 : q + 2; }

  const bool tpch_;
  std::unique_ptr<TpchData> tpch_data_;
  std::unique_ptr<SsbData> ssb_data_;
};

EngineOptions WorkerOptions(int workers, bool record_trace) {
  EngineOptions o;
  o.num_workers = workers;
  o.record_trace = record_trace;
  return o;
}

struct LoopResult {
  std::vector<std::vector<double>> lat_ms;  // per query, timed passes
  std::vector<double> all_ms;               // every timed execution
  double wall_s = 0;                        // timed passes only
  int64_t attempted = 0;
  int64_t failed = 0;
  LayerSamples layers;            // traced engines only
  std::vector<double> self_pct;   // query span self time, traced only

  std::vector<double> Medians() const {
    std::vector<double> m;
    for (const auto& xs : lat_ms) m.push_back(Median(xs));
    return m;
  }
};

class SuiteRunner {
 public:
  SuiteRunner(const Suite& suite, const std::vector<CanonResult>& ref,
              uint64_t seed)
      : suite_(suite), ref_(ref), rng_(seed) {}

  // One untimed warm-up pass, then whole timed passes until `seconds`
  // have passed and at least `min_passes` ran. With `spans`, records a
  // span per pass and per query and the engine's layer counters. With
  // `baseline`, every pass is repeated, in the same order, on that
  // engine into `*baseline_res`: interleaved, so host drift hits both.
  LoopResult Loop(Engine& engine, double seconds, int min_passes,
                  SpanRecorder* spans, Engine* baseline = nullptr,
                  LoopResult* baseline_res = nullptr) {
    LoopResult res;
    const size_t n = static_cast<size_t>(suite_.num_queries());
    res.lat_ms.resize(n);
    if (baseline != nullptr) baseline_res->lat_ms.resize(n);
    std::vector<int> order = NextOrder();
    Pass(engine, order, nullptr, nullptr);
    if (baseline != nullptr) Pass(*baseline, order, nullptr, nullptr);
    WallTimer timer;
    int passes = 0;
    while (passes < min_passes || timer.ElapsedSeconds() < seconds) {
      order = NextOrder();
      Pass(engine, order, &res, spans);
      if (baseline != nullptr) Pass(*baseline, order, baseline_res, nullptr);
      ++passes;
    }
    res.wall_s = timer.ElapsedSeconds();
    res.attempted = attempted_;
    res.failed = failed_;
    return res;
  }

 private:
  std::vector<int> NextOrder() {
    std::vector<int> order(static_cast<size_t>(suite_.num_queries()));
    for (int q = 0; q < suite_.num_queries(); ++q) order[q] = q;
    std::shuffle(order.begin(), order.end(), rng_);
    return order;
  }

  void Pass(Engine& engine, const std::vector<int>& order, LoopResult* res,
            SpanRecorder* spans) {
    const bool traced = spans != nullptr && spans->enabled();
    Span pass;
    pass.name = "pass";
    pass.id = traced ? spans->NextId() : -1;
    if (traced) engine.stats()->ResetAll();
    const EngineMark pass_start = MarkEngine(engine);
    pass.start_us = pass_start.wall_us;

    for (int q : order) {
      Span span;
      span.name = suite_.CallName(q);
      span.parent = pass.id;
      span.request = next_request_++;
      const EngineMark before = traced ? MarkEngine(engine) : EngineMark{};
      span.start_us = WallTimer::NowMicros();
      ResultSet r = suite_.Run(engine, q);
      span.end_us = WallTimer::NowMicros();
      if (res != nullptr) {
        const double ms = static_cast<double>(span.end_us - span.start_us) / 1e3;
        res->lat_ms[static_cast<size_t>(q)].push_back(ms);
        res->all_ms.push_back(ms);
      }
      Check(q, r);
      if (traced) {
        span.id = spans->Add(span);
        const std::vector<Span> kids =
            spans->AttachMorsels(span, EventsSince(engine, before));
        const double dur = static_cast<double>(span.end_us - span.start_us);
        if (res != nullptr && dur > 0) {
          res->self_pct.push_back(
              100.0 * static_cast<double>(SelfMicros(span, kids)) / dur);
        }
      }
    }

    const EngineMark pass_end = MarkEngine(engine);
    pass.end_us = pass_end.wall_us;
    if (traced) {
      spans->Add(pass);
      if (res != nullptr) {
        res->layers.AddWindow(engine, pass_start, pass_end,
                              EventsSince(engine, pass_start));
      }
    }
  }

  void Check(int q, const ResultSet& r) {
    ++attempted_;
    std::string why;
    if (!r.ok()) {
      why = r.status().ToString();
    } else if (SameResult(ref_[static_cast<size_t>(q)], Canon(r),
                          suite_.LimitKey(q), &why)) {
      return;
    }
    ++failed_;
    std::fprintf(stderr, "perfbench: %s %s wrong: %s\n", suite_.name(),
                 suite_.Label(q).c_str(), why.c_str());
  }

  const Suite& suite_;
  const std::vector<CanonResult>& ref_;
  std::mt19937_64 rng_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t next_request_ = 0;
};

// Median per query over kArmPasses timed passes on an engine built from
// `opts`.
std::vector<double> ArmMedians(const Suite& suite,
                               const std::vector<CanonResult>& ref,
                               uint64_t seed, const EngineOptions& opts,
                               RunOutcome* out) {
  Engine engine(BenchTopology(), opts);
  SuiteRunner runner(suite, ref, seed);
  LoopResult r = runner.Loop(engine, 0, kArmPasses, nullptr);
  out->attempted += r.attempted;
  out->failed += r.failed;
  return r.Medians();
}

void PrintArmTable(const Suite& suite, const std::vector<double>& full,
                   const std::vector<double>& volcano,
                   const std::vector<double>& one) {
  std::printf("\nreference arms, %s: median ms per query (4 workers unless "
              "noted)\n",
              suite.name());
  std::printf("%-6s %10s %10s %10s %9s %9s\n", "query", "full", "volcano",
              "full_1w", "volc/full", "1w/full");
  for (int q = 0; q < suite.num_queries(); ++q) {
    std::printf("%-6s %10.2f %10.2f %10.2f %9.3f %9.3f\n",
                suite.Label(q).c_str(), full[q], volcano[q], one[q],
                volcano[q] / full[q], one[q] / full[q]);
  }
}

}  // namespace

RunOutcome RunSuite(const RunConfig& cfg) {
  RunOutcome out;
  Suite suite(cfg.workload == "tpch");
  const Topology topo = BenchTopology();

  // Set-up: data generation and engine start, kSetupReps times.
  std::vector<double> setup_s, gen_s;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    suite.Reset();
    WallTimer t;
    gen_s.push_back(suite.Generate(topo));
    engine = std::make_unique<Engine>(topo, WorkerOptions(kWorkers, cfg.traced));
    setup_s.push_back(t.ElapsedSeconds());
  }
  std::printf("setup: %s generated in %.3f s (median of %d), set-up %.3f s\n",
              suite.name(), Median(gen_s), kSetupReps, Median(setup_s));

  // Reference results from the independent oracle, outside setup_s.
  std::vector<CanonResult> ref;
  {
    WallTimer t;
    Engine oracle(topo, MakeVolcanoOptions(WorkerOptions(1, false)));
    for (int q = 0; q < suite.num_queries(); ++q) {
      ResultSet r = suite.Run(oracle, q);
      if (!r.ok()) {
        ++out.attempted;
        ++out.failed;
        std::fprintf(stderr, "perfbench: oracle %s failed: %s\n",
                     suite.Label(q).c_str(), r.status().ToString().c_str());
      }
      ref.push_back(Canon(r));
    }
    std::printf("reference: %d results in %.3f s\n", suite.num_queries(),
                t.ElapsedSeconds());
  }

  // Traced: the untraced full-fledged engine runs interleaved with the
  // traced one; it is the base of trace.overhead_pct and the full arm.
  SpanRecorder spans(cfg.traced);
  SuiteRunner runner(suite, ref, cfg.seed);
  std::unique_ptr<Engine> plain;
  if (cfg.traced) {
    plain = std::make_unique<Engine>(topo, WorkerOptions(kWorkers, false));
  }
  LoopResult base;
  const LoopResult timed = runner.Loop(*engine, cfg.seconds, kMinPasses, &spans,
                                      plain.get(), &base);
  engine.reset();
  plain.reset();
  out.attempted += timed.attempted;
  out.failed += timed.failed;
  const std::vector<double> med = timed.Medians();
  std::printf("timed: %zu executions in %.3f s\n", timed.all_ms.size(),
              timed.wall_s);

  MetricValues& m = out.metrics;
  if (!cfg.traced) {
    m.Set("setup_s", Median(setup_s));
    m.Set("geomean_ms", GeoMean(med));
    m.Set("total_s", Sum(med) / 1e3);
    m.Set("p50_ms", Percentile(timed.all_ms, 0.50));
    m.Set("p99_ms", Percentile(timed.all_ms, 0.99));
    m.Set("qps", static_cast<double>(timed.all_ms.size()) / timed.wall_s);
    m.Set("peak_rss_mb", PeakRssMb());
    return out;
  }

  const std::string prefix = std::string(suite.name()) + ".";
  for (int q = 0; q < suite.num_queries(); ++q) {
    m.Set(prefix + suite.Label(q) + "_ms", med[static_cast<size_t>(q)]);
  }
  m.Set(prefix + "gen_s", Median(gen_s));
  timed.layers.Report(&m);
  m.Set("engine.self_pct", Median(timed.self_pct));
  WriteSpans(cfg, spans);

  // Reference arms, untraced: full-fledged, Volcano emulation, and the
  // full-fledged engine on 1 worker.
  const std::vector<double> full = base.Medians();
  m.Set("trace.overhead_pct", 100.0 * (GeoMean(med) / GeoMean(full) - 1.0));
  const std::vector<double> volcano =
      ArmMedians(suite, ref, cfg.seed,
                 MakeVolcanoOptions(WorkerOptions(kWorkers, false)), &out);
  const std::vector<double> one =
      ArmMedians(suite, ref, cfg.seed, WorkerOptions(1, false), &out);
  std::vector<double> volcano_ratio, speedup;
  for (size_t q = 0; q < full.size(); ++q) {
    volcano_ratio.push_back(volcano[q] / full[q]);
    speedup.push_back(one[q] / full[q]);
  }
  m.Set("volcano.ratio", GeoMean(volcano_ratio));
  m.Set("core.speedup_1w", GeoMean(speedup));
  PrintArmTable(suite, full, volcano, one);
  return out;
}

}  // namespace morsel::perfbench
