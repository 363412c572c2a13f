// Selection-vector filter execution + zone-map morsel skipping
// (DESIGN.md §10) on the full engine path (scan -> filter -> count):
//
//  - two-conjunct chain at ~5% combined selectivity, a cheap selective
//    conjunct ahead of an expensive one: `selection_vectors=true`
//    (short-circuit over the narrowed selection, deferred compaction)
//    vs the eager evaluate-everything, compact-per-filter baseline;
//  - zone-map skipping: a range predicate over a *sorted* date column
//    that selects ~5% of the rows, zone_maps on vs off (on skips ~95%
//    of the morsels without touching a row), plus the same predicate
//    over a *shuffled* column (zone maps cannot skip — documents the
//    no-harm case);
//  - adaptive conjunct reordering: the same two conjuncts written in
//    the worst order (expensive first) as one adaptive FilterOp vs the
//    two static orders as single-conjunct filters kept apart by a
//    pass-through projection. The adaptive arm must track the better
//    static order.
//  - sel-aware probe chain: the full filter -> hash probe -> agg hot
//    path under the selection_vectors ablation — every operator between
//    scan and result reads through the selection.
//
// Emitted as BENCH_micro_filter.json by bench/run_micro.sh so the
// filter-path trajectory is tracked PR over PR.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "numa/topology.h"
#include "storage/table.h"

namespace morsel {
namespace {

constexpr int64_t kRows = 4 << 20;  // 4M
constexpr int64_t kARange = 10000;  // selective conjunct domain

const Topology& BenchTopo() {
  // Single worker: filter-path per-row costs, not parallel scaling —
  // on the 1-core bench container oversubscribed workers would only
  // add scheduler noise to the on/off ratios.
  static Topology topo(1, 1, InterconnectKind::kFullyConnected);
  return topo;
}

// Columns: a (uniform, the cheap selective conjunct), b (uniform, fed
// to the expensive arithmetic conjunct), pay1/pay2 (payload that eager
// mode must gather-compact), date_sorted (ascending per partition),
// date_shuffled (same values, shuffled).
std::unique_ptr<Table> MakeFacts() {
  Schema schema({{"a", LogicalType::kInt64},
                 {"b", LogicalType::kInt64},
                 {"pay1", LogicalType::kDouble},
                 {"pay2", LogicalType::kInt64},
                 {"date_sorted", LogicalType::kInt32},
                 {"date_shuffled", LogicalType::kInt32}});
  auto t = std::make_unique<Table>("facts", schema, BenchTopo());
  Rng rng(4242);
  std::vector<int32_t> shuffled(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    shuffled[i] = static_cast<int32_t>(i / 8);
  }
  for (int64_t i = kRows - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.Uniform(0, i)]);
  }
  for (int64_t i = 0; i < kRows; ++i) {
    int p = static_cast<int>(i % t->num_partitions());
    t->Int64Col(p, 0)->Append(rng.Uniform(0, kARange - 1));
    t->Int64Col(p, 1)->Append(rng.Uniform(0, 1 << 20));
    t->DoubleCol(p, 2)->Append(static_cast<double>(i) * 0.25);
    t->Int64Col(p, 3)->Append(i);
    t->Int32Col(p, 4)->Append(static_cast<int32_t>(i / 8));
    t->Int32Col(p, 5)->Append(shuffled[i]);
  }
  for (int p = 0; p < t->num_partitions(); ++p) t->SealPartition(p);
  return t;
}

const Table* Facts() {
  static Table* t = MakeFacts().release();
  return t;
}

// The cheap, selective conjunct: a < kARange/20 (~5%).
ExprPtr CheapConjunct(const PlanBuilder& pb) {
  return Lt(pb.Col("a"), ConstI64(kARange / 20));
}

// The expensive conjunct (~70% alone): arithmetic chain over b. With
// the cheap conjunct first it runs over ~5% of the rows, so the chain's
// combined selectivity is ~3.5% (the <=10% regime).
ExprPtr ExpensiveConjunct(const PlanBuilder& pb) {
  return Lt(Add(Add(Mul(pb.Col("b"), ConstI64(3)),
                    Mul(pb.Col("b"), pb.Col("b"))),
                Div(pb.Col("b"), ConstI64(5))),
            ConstI64(int64_t{1} << 39));
}

int64_t CountRows(Engine& engine, LogicalPlan plan) {
  ResultSet r = engine.CreateQuery(plan)->Execute();
  return r.num_rows();
}

Engine& EngineWith(bool selection_vectors, bool zone_maps) {
  static Engine* engines[4] = {nullptr, nullptr, nullptr, nullptr};
  const int idx = (selection_vectors ? 1 : 0) + (zone_maps ? 2 : 0);
  if (engines[idx] == nullptr) {
    EngineOptions opts;
    opts.morsel_size = 16384;
    opts.selection_vectors = selection_vectors;
    opts.zone_maps = zone_maps;
    engines[idx] = new Engine(BenchTopo(), opts);
  }
  return *engines[idx];
}

// --- two-conjunct chain: selection vectors vs eager compaction -------------

void ConjunctChainBench(benchmark::State& state, bool selection_vectors) {
  const Table* facts = Facts();  // build the table outside the timing
  Engine& engine = EngineWith(selection_vectors, /*zone_maps=*/true);
  int64_t out = 0;
  for (auto _ : state) {
    PlanBuilder pb = PlanBuilder::Scan(
        facts, {"a", "b", "pay1", "pay2"});
    pb.Filter(And(CheapConjunct(pb), ExpensiveConjunct(pb)));
    pb.CollectResult();
    out = CountRows(engine, pb.Build());
  }
  benchmark::DoNotOptimize(out);
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["out_rows"] = static_cast<double>(out);
}

void BM_FilterChainSelVec(benchmark::State& s) {
  ConjunctChainBench(s, /*selection_vectors=*/true);
}
void BM_FilterChainEager(benchmark::State& s) {
  ConjunctChainBench(s, /*selection_vectors=*/false);
}

// --- zone-map morsel skipping ----------------------------------------------

void ZoneMapBench(benchmark::State& state, bool zone_maps, bool sorted) {
  const Table* facts = Facts();
  Engine& engine = EngineWith(/*selection_vectors=*/true, zone_maps);
  const char* date_col = sorted ? "date_sorted" : "date_shuffled";
  // ~5% of the key domain: with sorted dates and 16k-row morsels, zone
  // maps rule out ~95% of the morsels outright.
  const int32_t lo = static_cast<int32_t>(kRows / 8 / 2);
  const int32_t hi = lo + static_cast<int32_t>(kRows / 8 / 20);
  int64_t out = 0;
  for (auto _ : state) {
    PlanBuilder pb = PlanBuilder::Scan(facts, {date_col, "pay2"});
    pb.Filter(Between(pb.Col(date_col), ConstI32(lo), ConstI32(hi)));
    pb.CollectResult();
    out = CountRows(engine, pb.Build());
  }
  benchmark::DoNotOptimize(out);
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["out_rows"] = static_cast<double>(out);
}

void BM_ZoneMapSortedOn(benchmark::State& s) {
  ZoneMapBench(s, /*zone_maps=*/true, /*sorted=*/true);
}
void BM_ZoneMapSortedOff(benchmark::State& s) {
  ZoneMapBench(s, /*zone_maps=*/false, /*sorted=*/true);
}
void BM_ZoneMapShuffledOn(benchmark::State& s) {
  ZoneMapBench(s, /*zone_maps=*/true, /*sorted=*/false);
}
void BM_ZoneMapShuffledOff(benchmark::State& s) {
  ZoneMapBench(s, /*zone_maps=*/false, /*sorted=*/false);
}

// --- adaptive conjunct order vs static orders ------------------------------
//
// Static orders are expressed as two single-conjunct filters (a
// single-conjunct FilterOp has nothing to reorder); the adaptive arm is
// one FilterOp handed the conjunction in the WORST order and must learn
// the good one from its cost x selectivity counters within the first
// re-rank interval. Lowering merges adjacent Filter() nodes into one
// adaptive FilterOp (DESIGN.md §15), so the static arms put a
// pass-through projection between their two filters to keep them
// apart — and static.

enum class Order { kAdaptiveWorstFirst, kStaticBest, kStaticWorst };

// Filter(first) -> pass-through projection -> Filter(second).
void StaticChain(PlanBuilder& pb, ExprPtr (*first)(const PlanBuilder&),
                 ExprPtr (*second)(const PlanBuilder&)) {
  pb.Filter(first(pb));
  pb.Project(NE("a", pb.Col("a")), NE("b", pb.Col("b")));
  pb.Filter(second(pb));
}

void OrderBench(benchmark::State& state, Order order) {
  const Table* facts = Facts();  // build the table outside the timing
  Engine& engine = EngineWith(/*selection_vectors=*/true, /*zone_maps=*/true);
  int64_t out = 0;
  for (auto _ : state) {
    PlanBuilder pb = PlanBuilder::Scan(facts, {"a", "b"});
    switch (order) {
      case Order::kAdaptiveWorstFirst:
        pb.Filter(And(ExpensiveConjunct(pb), CheapConjunct(pb)));
        break;
      case Order::kStaticBest:
        StaticChain(pb, CheapConjunct, ExpensiveConjunct);
        break;
      case Order::kStaticWorst:
        StaticChain(pb, ExpensiveConjunct, CheapConjunct);
        break;
    }
    pb.CollectResult();
    out = CountRows(engine, pb.Build());
  }
  benchmark::DoNotOptimize(out);
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["out_rows"] = static_cast<double>(out);
}

void BM_ConjunctOrderAdaptive(benchmark::State& s) {
  OrderBench(s, Order::kAdaptiveWorstFirst);
}
void BM_ConjunctOrderStaticBest(benchmark::State& s) {
  OrderBench(s, Order::kStaticBest);
}
void BM_ConjunctOrderStaticWorst(benchmark::State& s) {
  OrderBench(s, Order::kStaticWorst);
}

// --- sel-aware probe chain vs compact-then-probe ---------------------------
//
// The acceptance shape for the §15 hot path: scan -> filter (~3.5%
// combined) -> hash probe -> global agg -> result. With selection
// vectors on, no operator between the scan and the result compacts a
// chunk; the eager arm evaluates every conjunct over every row and
// gather-compacts all four scan columns before the probe sees a chunk.

std::unique_ptr<Table> MakeDim() {
  Schema schema({{"dk", LogicalType::kInt64}, {"dv", LogicalType::kInt64}});
  auto t = std::make_unique<Table>("dim", schema, BenchTopo());
  for (int64_t i = 0; i < kARange; ++i) {
    int p = static_cast<int>(i % t->num_partitions());
    t->Int64Col(p, 0)->Append(i);
    t->Int64Col(p, 1)->Append(i * 7);
  }
  for (int p = 0; p < t->num_partitions(); ++p) t->SealPartition(p);
  return t;
}

const Table* Dim() {
  static Table* t = MakeDim().release();
  return t;
}

void ProbeChainBench(benchmark::State& state, bool selection_vectors) {
  const Table* facts = Facts();
  const Table* dim = Dim();
  Engine& engine = EngineWith(selection_vectors, /*zone_maps=*/true);
  int64_t out = 0;
  for (auto _ : state) {
    PlanBuilder d = PlanBuilder::Scan(dim, {"dk", "dv"});
    PlanBuilder pb = PlanBuilder::Scan(facts, {"a", "b", "pay1", "pay2"});
    pb.Filter(And(CheapConjunct(pb), ExpensiveConjunct(pb)));
    pb.HashJoin(std::move(d), {"a"}, {"dk"}, {"dv"}, JoinKind::kInner);
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    aggs.push_back({AggFunc::kSum, pb.Col("dv"), "sdv"});
    aggs.push_back({AggFunc::kSum, pb.Col("pay2"), "sp"});
    pb.GroupBy({}, std::move(aggs));
    pb.CollectResult();
    out = CountRows(engine, pb.Build());
  }
  benchmark::DoNotOptimize(out);
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["out_rows"] = static_cast<double>(out);
}

void BM_ProbeChainSelVec(benchmark::State& s) {
  ProbeChainBench(s, /*selection_vectors=*/true);
}
void BM_ProbeChainEager(benchmark::State& s) {
  ProbeChainBench(s, /*selection_vectors=*/false);
}

// UseRealTime: the engine parallelizes across worker threads, so the
// meaningful rate is wall-clock rows/s, not main-thread CPU.
BENCHMARK(BM_FilterChainSelVec)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_FilterChainEager)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ZoneMapSortedOn)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ZoneMapSortedOff)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ZoneMapShuffledOn)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ZoneMapShuffledOff)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ConjunctOrderAdaptive)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ConjunctOrderStaticBest)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ConjunctOrderStaticWorst)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ProbeChainSelVec)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ProbeChainEager)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace morsel

BENCHMARK_MAIN();
