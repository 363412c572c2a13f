// The `serve` workload: an in-process server::Server runs the five
// serving statements over TPC-H sf 0.01 + SSB sf 0.02, driven through
// kConnections Client connections on as many threads.
//
//  Warm-up: kWarmupSeconds of the same open loop, untimed.
//  Phase A, open loop: Poisson arrivals at kRateQps with a seeded
//   statement mix. A request's latency runs from its *scheduled* send
//   time to its last fetched row, so a stall also charges the requests
//   that queue behind it; the time from due to sent is the generator's
//   lateness (server.conn_wait_ms).
//  Phase B, closed loop: every connection sends back to back; qps.
//  The two phases alternate over kRounds rounds.
//
// Every fetched result is checked against PreparedQuery::Execute.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "compare.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "server/client.h"
#include "server/server.h"
#include "ssb/ssb.h"
#include "statements.h"
#include "tpch/tpch.h"
#include "workload.h"

namespace morsel::perfbench {
namespace {

using server::Client;
using server::Server;

constexpr double kTpchSf = 0.01;
constexpr double kSsbSf = 0.02;
constexpr int kConnections = 4;
// 100/s keeps the 4 workers about an eighth busy. Queueing amplifies
// small changes in host speed: on a shared 4-vCPU host p50 spread 15%
// between runs at 300/s, 7-18% at 200/s and 4-6% at 100/s.
constexpr double kRateQps = 100;
// Phases A and B alternate over kRounds rounds, so both sample the
// whole run, not one end of it; phase A takes kPhaseAShare of a round.
// At 25 s phase A sends ~2100 requests, so p99 has ~21 samples above it.
constexpr int kRounds = 8;
constexpr double kPhaseAShare = 0.85;
constexpr double kWarmupSeconds = 1.0;  // open loop, before phase A
constexpr int kSplitReps = 40;        // per statement, in-process split
// Set-up here takes ~0.06 s, nearly all of it data generation; the
// first two or three set-ups of a process run up to 2x slower (a cold
// heap), and single set-ups vary by +-30% with the host, so it is
// repeated far more often than the suites' to steady the median.
constexpr int kServeSetupReps = 25;

// Data, engine, server and connected clients, torn down in reverse.
struct ServeStack {
  std::unique_ptr<TpchData> tpch;
  std::unique_ptr<SsbData> ssb;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::vector<uint32_t>> stmt_ids;  // [client][statement]
  double tpch_gen_s = 0;
  double ssb_gen_s = 0;

  ~ServeStack() { Reset(); }

  void Reset() {
    for (auto& c : clients) c->Close();
    clients.clear();
    stmt_ids.clear();
    if (server) server->Stop();
    server.reset();
    engine.reset();
    ssb.reset();
    tpch.reset();
  }

  // Connects one more client and PREPAREs every statement on it.
  bool AddClient() {
    auto c = std::make_unique<Client>();
    if (!c->Connect(server->port()).ok()) return false;
    std::vector<uint32_t> ids;
    for (const char* name : kStatementNames) {
      Client::Prepared p = c->Prepare(name);
      if (!p.status.ok()) return false;
      ids.push_back(p.stmt_id);
    }
    clients.push_back(std::move(c));
    stmt_ids.push_back(std::move(ids));
    return true;
  }

  // Set-up as setup_s measures it: generation, engine and server start,
  // connect and PREPARE. Call it on an empty stack: Reset() first, so
  // the previous set-up's teardown is not timed.
  bool Build(bool record_trace) {
    const Topology topo = BenchTopology();
    WallTimer t;
    tpch = std::make_unique<TpchData>(GenerateTpch(kTpchSf, topo));
    tpch_gen_s = t.ElapsedSeconds();
    t.Reset();
    ssb = std::make_unique<SsbData>(GenerateSsb(kSsbSf, topo));
    ssb_gen_s = t.ElapsedSeconds();
    EngineOptions o;
    o.num_workers = kWorkers;
    o.record_trace = record_trace;
    engine = std::make_unique<Engine>(topo, o);
    server = std::make_unique<Server>(engine.get(), server::ServerOptions{});
    for (int s = 0; s < kNumStatements; ++s) {
      server->RegisterStatement(kStatementNames[s],
                                StatementPlan(s, *tpch, *ssb));
    }
    if (!server->Start()) return false;
    for (int k = 0; k < kConnections; ++k) {
      if (!AddClient()) return false;
    }
    return true;
  }
};

struct Request {
  int stmt = 0;
  int64_t due_us = 0;  // absolute, WallTimer::NowMicros() clock
  int64_t sent_us = 0;
  int64_t executed_us = 0;
  int64_t done_us = 0;
  bool ok = false;
};

// Checks results and counts operations; shared by the load threads.
class Checker {
 public:
  explicit Checker(const std::vector<CanonResult>& ref) : ref_(ref) {}

  // One EXECUTE + FETCH round trip of `stmt` on client `c`.
  void RoundTrip(Client& c, uint32_t stmt_id, Request* r) {
    r->sent_us = WallTimer::NowMicros();
    Client::Executing e = c.Execute(stmt_id);
    r->executed_us = WallTimer::NowMicros();
    Client::RowBatch b;
    if (e.status.ok()) b = c.Fetch(e.query_id);
    r->done_us = WallTimer::NowMicros();
    std::string why;
    if (!e.status.ok()) {
      why = e.status.ToString();
    } else if (!b.status.ok()) {
      why = b.status.ToString();
    } else if (!b.done) {
      why = "fetch did not complete";
    } else if (SameResult(ref_[static_cast<size_t>(r->stmt)], Canon(b),
                          StatementLimitKey(r->stmt), &why)) {
      r->ok = true;
    }
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!r->ok) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "perfbench: serve %s wrong: %s\n",
                   kStatementNames[r->stmt], why.c_str());
    }
  }

  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }

 private:
  const std::vector<CanonResult>& ref_;
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
};

// Phase A: the seeded Poisson schedule, served by whichever connection
// is free. Returns the requests in schedule order.
std::vector<Request> OpenLoop(ServeStack& st, Checker& checker, uint64_t seed,
                              double seconds) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_s(kRateQps);
  std::uniform_int_distribution<int> pick(0, kNumStatements - 1);
  std::vector<Request> reqs;
  const int64_t t0 = WallTimer::NowMicros() + 2000;
  for (double at = gap_s(rng); at < seconds; at += gap_s(rng)) {
    Request r;
    r.stmt = pick(rng);
    r.due_us = t0 + static_cast<int64_t>(at * 1e6);
    reqs.push_back(r);
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      for (size_t i = next++; i < reqs.size(); i = next++) {
        Request& r = reqs[i];
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::microseconds(r.due_us)));
        checker.RoundTrip(*st.clients[k], st.stmt_ids[k][r.stmt], &r);
      }
    });
  }
  for (auto& t : threads) t.join();
  return reqs;
}

// Phase B: every connection back to back for `seconds`; completions/s.
double ClosedLoop(ServeStack& st, Checker& checker, uint64_t seed,
                  double seconds) {
  std::atomic<int64_t> done{0};
  std::vector<std::thread> threads;
  WallTimer timer;
  const int64_t end_us =
      WallTimer::NowMicros() + static_cast<int64_t>(seconds * 1e6);
  for (int k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      std::mt19937_64 rng(seed * 31 + static_cast<uint64_t>(k) + 1);
      std::uniform_int_distribution<int> pick(0, kNumStatements - 1);
      while (WallTimer::NowMicros() < end_us) {
        Request r;
        r.stmt = pick(rng);
        checker.RoundTrip(*st.clients[k], st.stmt_ids[k][r.stmt], &r);
        if (r.ok) done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  return static_cast<double>(done.load()) / timer.ElapsedSeconds();
}

double Ms(int64_t us) { return static_cast<double>(us) / 1e3; }

struct LoadResult {
  std::vector<Request> open;  // phase A
  double qps = 0;             // phase B
  std::vector<double> stmt_p50_ms;

  double LatencyPercentile(double p) const {
    std::vector<double> ms;
    for (const Request& r : open) ms.push_back(Ms(r.done_us - r.due_us));
    return Percentile(std::move(ms), p);
  }
};

LoadResult RunLoad(ServeStack& st, Checker& checker, const RunConfig& cfg) {
  LoadResult res;
  // Untimed warm-up on its own schedule: the first requests after set-up
  // run on cold sessions and workers and would otherwise sit in the tail.
  OpenLoop(st, checker, ~cfg.seed, kWarmupSeconds);
  const double round_s = cfg.seconds / kRounds;
  std::vector<double> qps;
  std::printf("rounds (phase A p50 ms, phase B qps):");
  for (int k = 0; k < kRounds; ++k) {
    const uint64_t seed = cfg.seed * kRounds + static_cast<uint64_t>(k);
    const std::vector<Request> a =
        OpenLoop(st, checker, seed, round_s * kPhaseAShare);
    res.open.insert(res.open.end(), a.begin(), a.end());
    qps.push_back(ClosedLoop(st, checker, seed, round_s * (1.0 - kPhaseAShare)));
    std::vector<double> ms;
    for (const Request& r : a) ms.push_back(Ms(r.done_us - r.due_us));
    std::printf(" [%.3f %.0f]", Median(ms), qps.back());
  }
  std::printf("\n");
  res.qps = Median(qps);
  for (int s = 0; s < kNumStatements; ++s) {
    std::vector<double> ms;
    for (const Request& r : res.open) {
      if (r.stmt == s) ms.push_back(Ms(r.done_us - r.due_us));
    }
    res.stmt_p50_ms.push_back(Median(ms));
  }
  return res;
}

// The traced run's spans for phase A: a request span from due to done,
// with the connection wait, Client::Execute and Client::Fetch as children.
void RecordRequestSpans(const std::vector<Request>& reqs, SpanRecorder* spans) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    Span req;
    req.name = std::string("request ") + kStatementNames[r.stmt];
    req.request = static_cast<int64_t>(i);
    req.start_us = r.due_us;
    req.end_us = r.done_us;
    req.id = spans->Add(req);
    spans->AddChild(req, "conn_wait", r.due_us, std::max(r.due_us, r.sent_us));
    spans->AddChild(req, "Client::Execute", r.sent_us, r.executed_us);
    spans->AddChild(req, "Client::Fetch", r.executed_us, r.done_us);
  }
}

// In-process engine split and the same statements over one idle
// connection, interleaved: engine.* and server.overhead_us.
void SplitLayers(ServeStack& st, const std::vector<PreparedQuery>& prepared,
                 Checker& checker, const std::vector<CanonResult>& ref,
                 RunOutcome* out, SpanRecorder* spans) {
  std::vector<double> lower, exec, result, overhead;
  std::vector<double> peak_kb(kNumStatements, 0);
  if (!st.AddClient()) {
    ++out->failed;
    return;
  }
  Client& c = *st.clients.back();
  const std::vector<uint32_t>& ids = st.stmt_ids.back();
  for (int s = 0; s < kNumStatements; ++s) {
    std::vector<double> engine_us, wire_us, peaks;
    for (int rep = 0; rep < kSplitReps; ++rep) {
      Span parent;
      parent.name = std::string("in-process ") + kStatementNames[s];
      parent.id = spans->NextId();
      parent.request = rep;
      const int64_t t0 = WallTimer::NowMicros();
      std::unique_ptr<Query> q = prepared[static_cast<size_t>(s)].MakeQuery();
      const int64_t t1 = WallTimer::NowMicros();
      q->Start();
      q->Wait();
      const int64_t t2 = WallTimer::NowMicros();
      ResultSet r = q->TakeResult();
      const int64_t t3 = WallTimer::NowMicros();
      peaks.push_back(static_cast<double>(q->context()->memory_tracker().peak()) /
                      1024.0);
      q.reset();
      parent.start_us = t0;
      parent.end_us = t3;
      spans->Add(parent);
      spans->AddChild(parent, "PreparedQuery::MakeQuery", t0, t1);
      spans->AddChild(parent, "Query::Start..Wait", t1, t2);
      spans->AddChild(parent, "Query::TakeResult", t2, t3);
      ++out->attempted;
      std::string why;
      if (!r.ok() || !SameResult(ref[static_cast<size_t>(s)], Canon(r),
                                 StatementLimitKey(s), &why)) {
        ++out->failed;
        std::fprintf(stderr, "perfbench: in-process %s wrong: %s\n",
                     kStatementNames[s], why.c_str());
      }
      lower.push_back(static_cast<double>(t1 - t0));
      exec.push_back(static_cast<double>(t2 - t1));
      result.push_back(static_cast<double>(t3 - t2));
      engine_us.push_back(static_cast<double>(t3 - t0));

      Request w;
      w.stmt = s;
      checker.RoundTrip(c, ids[static_cast<size_t>(s)], &w);
      wire_us.push_back(static_cast<double>(w.done_us - w.sent_us));
    }
    overhead.push_back(Median(wire_us) - Median(engine_us));
    peak_kb[static_cast<size_t>(s)] = Median(peaks);
  }
  MetricValues& m = out->metrics;
  m.Set("engine.lower_us", Median(lower));
  m.Set("engine.exec_us", Median(exec));
  m.Set("engine.result_us", Median(result));
  m.Set("engine.peak_mem_kb", *std::max_element(peak_kb.begin(), peak_kb.end()));
  m.Set("server.overhead_us", Median(overhead));
}

}  // namespace

RunOutcome RunServe(const RunConfig& cfg) {
  RunOutcome out;
  ServeStack st;
  std::vector<double> setup_s, tpch_gen_s, ssb_gen_s;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    st.Reset();
    WallTimer t;
    if (!st.Build(cfg.traced)) {
      std::fprintf(stderr, "perfbench: serve set-up failed\n");
      out.attempted = out.failed = 1;
      return out;
    }
    setup_s.push_back(t.ElapsedSeconds());
    tpch_gen_s.push_back(st.tpch_gen_s);
    ssb_gen_s.push_back(st.ssb_gen_s);
  }
  std::printf("setup: serve stack up in %.4f s (median of %d:", Median(setup_s),
              kServeSetupReps);
  for (double x : setup_s) std::printf(" %.4f", x);
  std::printf(")\n");

  // Reference results, outside setup_s.
  std::vector<PreparedQuery> prepared;
  std::vector<CanonResult> ref;
  for (int s = 0; s < kNumStatements; ++s) {
    prepared.push_back(st.engine->Prepare(StatementPlan(s, *st.tpch, *st.ssb)));
    ResultSet r = prepared.back().Execute();
    if (!r.ok()) {
      ++out.attempted;
      ++out.failed;
      std::fprintf(stderr, "perfbench: reference %s failed: %s\n",
                   kStatementNames[s], r.status().ToString().c_str());
    }
    ref.push_back(Canon(r));
  }

  Checker checker(ref);
  SpanRecorder spans(cfg.traced);
  if (cfg.traced) st.engine->stats()->ResetAll();
  const EngineMark from = MarkEngine(*st.engine);
  const LoadResult load = RunLoad(st, checker, cfg);
  const EngineMark to = MarkEngine(*st.engine);
  std::printf("phase A: %zu requests at %.0f/s; phase B: %.1f qps\n",
              load.open.size(), kRateQps, load.qps);

  MetricValues& m = out.metrics;
  if (!cfg.traced) {
    m.Set("setup_s", Median(setup_s));
    m.Set("geomean_ms", GeoMean(load.stmt_p50_ms));
    m.Set("total_s", Sum(load.stmt_p50_ms) / 1e3);
    m.Set("p50_ms", load.LatencyPercentile(0.50));
    m.Set("p99_ms", load.LatencyPercentile(0.99));
    m.Set("qps", load.qps);
    m.Set("peak_rss_mb", PeakRssMb());
    out.attempted += checker.attempted();
    out.failed += checker.failed();
    return out;
  }

  for (int s = 0; s < kNumStatements; ++s) {
    m.Set(std::string("serve.") + kStatementNames[s] + "_ms",
          load.stmt_p50_ms[static_cast<size_t>(s)]);
  }
  m.Set("tpch.gen_s", Median(tpch_gen_s));
  m.Set("ssb.gen_s", Median(ssb_gen_s));
  LayerSamples layers;
  layers.AddWindow(*st.engine, from, to, EventsSince(*st.engine, from));
  layers.Report(&m);
  std::vector<double> execute_us, fetch_us, wait_ms;
  for (const Request& r : load.open) {
    execute_us.push_back(static_cast<double>(r.executed_us - r.sent_us));
    fetch_us.push_back(static_cast<double>(r.done_us - r.executed_us));
    wait_ms.push_back(Ms(std::max<int64_t>(0, r.sent_us - r.due_us)));
  }
  m.Set("server.execute_us.p50", Percentile(execute_us, 0.50));
  m.Set("server.execute_us.p99", Percentile(execute_us, 0.99));
  m.Set("server.fetch_us.p50", Percentile(fetch_us, 0.50));
  m.Set("server.fetch_us.p99", Percentile(fetch_us, 0.99));
  m.Set("server.conn_wait_ms.p50", Percentile(wait_ms, 0.50));
  m.Set("server.conn_wait_ms.p99", Percentile(wait_ms, 0.99));
  const auto cache = st.server->cache().stats();
  const auto adm = st.server->admission().stats();
  m.Set("server.stmt_cache_hit_ratio",
        static_cast<double>(cache.hits) /
            static_cast<double>(std::max<uint64_t>(1, cache.hits + cache.misses)));
  m.Set("server.admission_queued_frac",
        static_cast<double>(adm.queued) /
            static_cast<double>(std::max<uint64_t>(1, adm.admitted)));
  m.Set("server.admission_rejected", static_cast<double>(adm.rejected));
  RecordRequestSpans(load.open, &spans);

  // The untraced repeat: base of the trace overhead, then the in-process
  // split on its engine.
  const double traced_p50 = load.LatencyPercentile(0.50);
  prepared.clear();
  st.Reset();
  if (!st.Build(false)) {
    std::fprintf(stderr, "perfbench: serve set-up failed\n");
    ++out.failed;
  } else {
    const LoadResult base = RunLoad(st, checker, cfg);
    m.Set("trace.overhead_pct",
          100.0 * (traced_p50 / base.LatencyPercentile(0.50) - 1.0));
    for (int s = 0; s < kNumStatements; ++s) {
      prepared.push_back(
          st.engine->Prepare(StatementPlan(s, *st.tpch, *st.ssb)));
    }
    SplitLayers(st, prepared, checker, ref, &out, &spans);
  }
  WriteSpans(cfg, spans);
  out.attempted += checker.attempted();
  out.failed += checker.failed();
  return out;
}

}  // namespace morsel::perfbench
