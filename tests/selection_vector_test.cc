// Differential tests for selection-vector filter execution (DESIGN.md
// §10): with `selection_vectors` on, FilterOp narrows the chunk's `sel`
// conjunct by conjunct (AND short-circuit, adaptive reordering) and
// consumers read through it or compact on demand; with it off, the seed
// eager evaluate-everything, compact-per-filter path runs. Both must be
// row-for-row identical across join kinds, residuals, group-bys, sorts,
// string predicates, and multi-conjunct chains (adjacent Filter()
// nodes merge into one adaptive conjunct chain, DESIGN.md §15).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace morsel {
namespace {

using testutil::MakeKv;
using testutil::SmallTopo;
using testutil::SortedRows;

Engine& SelEngine() {
  static Engine* engine = [] {
    EngineOptions opts;
    opts.morsel_size = 512;
    opts.selection_vectors = true;
    return new Engine(SmallTopo(), opts);
  }();
  return *engine;
}

Engine& EagerEngine() {
  static Engine* engine = [] {
    EngineOptions opts;
    opts.morsel_size = 512;
    opts.selection_vectors = false;
    return new Engine(SmallTopo(), opts);
  }();
  return *engine;
}

// Runs the same plan factory on both engines and expects equal rows.
template <typename PlanFn>
void ExpectBothEqual(const PlanFn& make_plan, bool expect_nonempty = true) {
  LogicalPlan plan = make_plan();
  std::vector<std::string> sel =
      SortedRows(SelEngine().CreateQuery(plan)->Execute());
  std::vector<std::string> eager =
      SortedRows(EagerEngine().CreateQuery(plan)->Execute());
  if (expect_nonempty) {
    EXPECT_FALSE(sel.empty());
  }
  EXPECT_EQ(sel, eager);
}

std::vector<std::pair<int64_t, int64_t>> Numbers(int64_t n,
                                                 int64_t key_mod) {
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back({i % key_mod, i});
  return rows;
}

TEST(SelectionVectors, MultiConjunctChainMatchesEager) {
  auto t = MakeKv(SmallTopo(), Numbers(20000, 4000));
  // Four conjuncts of very different selectivity and cost, plus chunks
  // both fully passing and fully failing — exercises narrowing, dense
  // preservation, and the empty-selection early-out.
  ExpectBothEqual([&] {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    pb.Filter(And(Lt(pb.Col("k"), ConstI64(3000)),
                  Ge(pb.Col("v"), ConstI64(100)),
                  Eq(Arith(ArithOp::kSub, pb.Col("v"),
                           Mul(Div(pb.Col("v"), ConstI64(7)), ConstI64(7))),
                     ConstI64(3)),  // v % 7 == 3
                  Ne(pb.Col("k"), ConstI64(17))));
    pb.CollectResult();
    return pb.Build();
  });
}

TEST(SelectionVectors, StackedFiltersMatchEager) {
  auto t = MakeKv(SmallTopo(), Numbers(15000, 1000));
  ExpectBothEqual([&] {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    pb.Filter(Lt(pb.Col("k"), ConstI64(700)));
    pb.Filter(Ge(pb.Col("v"), ConstI64(50)));
    pb.Filter(InI64(pb.Col("k"), {1, 5, 9, 13, 400, 401, 699, 999}));
    pb.CollectResult();
    return pb.Build();
  });
}

TEST(SelectionVectors, JoinKindsWithResidualsMatchEager) {
  auto probe = MakeKv(SmallTopo(), Numbers(6000, 80), "pk", "pv");
  auto build = MakeKv(SmallTopo(), Numbers(200, 40), "bk", "bv");
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kSemi, JoinKind::kAnti,
                        JoinKind::kLeftOuter}) {
    for (bool with_residual : {false, true}) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " residual=" + std::to_string(with_residual));
      ExpectBothEqual(
          [&] {
            PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
            b.Filter(Lt(b.Col("bv"), ConstI64(150)));
            PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
            p.Filter(And(Ge(p.Col("pv"), ConstI64(10)),
                         Lt(p.Col("pk"), ConstI64(60))));
            std::vector<std::string> payload =
                (kind == JoinKind::kSemi || kind == JoinKind::kAnti)
                    ? std::vector<std::string>{}
                    : std::vector<std::string>{"bv"};
            std::function<ExprPtr(const ColScope&)> residual;
            if (with_residual) {
              residual = [kind](const ColScope& s) {
                return kind == JoinKind::kSemi || kind == JoinKind::kAnti
                           ? Lt(s.Col("pv"), ConstI64(5000))
                           : Ne(s.Col("bv"), s.Col("pv"));
              };
            }
            p.HashJoin(std::move(b), {"pk"}, {"bk"}, payload, kind,
                       residual);
            p.CollectResult();
            return p.Build();
          },
          kind != JoinKind::kAnti);
    }
  }
}

TEST(SelectionVectors, GroupByAndSortMatchEager) {
  auto t = MakeKv(SmallTopo(), Numbers(30000, 97));
  ExpectBothEqual([&] {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    pb.Filter(And(Lt(pb.Col("v"), ConstI64(25000)),
                  Ge(pb.Col("k"), ConstI64(5))));
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    aggs.push_back({AggFunc::kSum, pb.Col("v"), "sv"});
    aggs.push_back({AggFunc::kMin, pb.Col("v"), "mn"});
    pb.GroupBy({"k"}, std::move(aggs));
    pb.OrderBy({{"k", true}});
    return pb.Build();
  });
}

TEST(SelectionVectors, MergeJoinAndTopKMatchEager) {
  // Sorted inputs through a forced merge join (RunMaterializeSink reads
  // through the selection) ending in a top-k heap.
  std::vector<std::pair<int64_t, int64_t>> probe_rows, build_rows;
  for (int64_t i = 0; i < 9000; ++i) probe_rows.push_back({i / 2, i});
  for (int64_t i = 0; i < 5000; ++i) build_rows.push_back({i, 3 * i});
  auto probe = MakeKv(SmallTopo(), probe_rows, "pk", "pv");
  auto build = MakeKv(SmallTopo(), build_rows, "bk", "bv");
  ExpectBothEqual([&] {
    PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
    b.Filter(Lt(b.Col("bv"), ConstI64(9000)));
    PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
    p.Filter(Ge(p.Col("pv"), ConstI64(64)));
    p.MergeJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner);
    p.OrderBy({{"pv", true}}, /*limit=*/100);
    return p.Build();
  });
}

TEST(SelectionVectors, OrNotShortCircuitMatchesEager) {
  auto t = MakeKv(SmallTopo(), Numbers(12000, 500));
  ExpectBothEqual([&] {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    pb.Filter(Or(Lt(pb.Col("k"), ConstI64(10)),
                 And(Ge(pb.Col("k"), ConstI64(490)),
                     Not(Eq(pb.Col("v"), ConstI64(777)))),
                 Eq(pb.Col("v"), ConstI64(4242))));
    pb.CollectResult();
    return pb.Build();
  });
}

TEST(SelectionVectors, StringPredicatesThroughSelection) {
  // String column scanned + LIKE / IN conjuncts after a narrowing
  // integer conjunct: string vectors are read through `sel`.
  Schema schema({{"id", LogicalType::kInt64},
                 {"name", LogicalType::kString}});
  auto t = std::make_unique<Table>("strs", schema, SmallTopo());
  const char* kNames[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (int64_t i = 0; i < 8000; ++i) {
    int p = static_cast<int>(i % t->num_partitions());
    t->Int64Col(p, 0)->Append(i);
    t->StrCol(p, 1)->Append(std::string(kNames[i % 5]) +
                            std::to_string(i % 11));
  }
  for (int p = 0; p < t->num_partitions(); ++p) t->SealPartition(p);
  ExpectBothEqual([&] {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"id", "name"});
    pb.Filter(And(Lt(pb.Col("id"), ConstI64(4000)),
                  Like(pb.Col("name"), "%a%"),
                  Not(InStr(Substr(pb.Col("name"), 1, 4),
                            {"beta", "delt"}))));
    pb.CollectResult();
    return pb.Build();
  });
}

TEST(SelectionVectors, TwelveConjunctsDegradeToStaticOrder) {
  // More conjuncts than kMaxAdaptive (8): the chain must degrade to a
  // stable static evaluation order — the packed order word holds only 8
  // indices, so adaptive reordering is disabled outright rather than
  // aliasing ranks 8..11 onto low conjuncts' counters or order slots.
  // Enough rows/chunks that a (wrongly) active re-rank would have fired
  // dozens of times, differential across both filter execution modes.
  auto t = MakeKv(SmallTopo(), Numbers(200000, 10000));
  ExpectBothEqual([&] {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    std::vector<ExprPtr> conj;
    conj.push_back(Lt(pb.Col("k"), ConstI64(9000)));
    conj.push_back(Ge(pb.Col("k"), ConstI64(3)));
    conj.push_back(Ne(pb.Col("k"), ConstI64(17)));
    conj.push_back(Ne(pb.Col("k"), ConstI64(4444)));
    conj.push_back(Lt(pb.Col("v"), ConstI64(190000)));
    conj.push_back(Ge(pb.Col("v"), ConstI64(55)));
    conj.push_back(Ne(pb.Col("v"), ConstI64(100000)));
    conj.push_back(Lt(Mul(pb.Col("k"), ConstI64(2)), ConstI64(16000)));
    conj.push_back(Ne(pb.Col("v"), ConstI64(123457)));
    conj.push_back(Ge(Add(pb.Col("k"), pb.Col("v")), ConstI64(60)));
    conj.push_back(Ne(pb.Col("k"), ConstI64(8999)));
    conj.push_back(InI64(pb.Col("k"), {1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                       100, 200, 300, 400, 500, 7999}));
    pb.Filter(And(std::move(conj)));
    pb.CollectResult();
    return pb.Build();
  });
}

TEST(SelectionVectors, TwelveConjunctsMatchScalarReference) {
  // Same shape, checked against an independently computed oracle (not
  // just mode-vs-mode, which would miss a bug both modes share).
  const int64_t n = 50000, mod = 2000;
  auto t = MakeKv(SmallTopo(), Numbers(n, mod));
  std::vector<std::pair<int64_t, int64_t>> expect;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t k = i % mod, v = i;
    bool pass = k < 1500 && k >= 2 && k != 17 && k != 444 && v < 49000 &&
                v >= 55 && v != 10000 && k * 2 < 2900 && v != 12345 &&
                k + v >= 60 && k != 1499 && v % 3 == 0;
    if (pass) expect.push_back({k, v});
  }
  std::sort(expect.begin(), expect.end());
  ASSERT_FALSE(expect.empty());
  auto build_plan = [&] {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    std::vector<ExprPtr> conj;
    conj.push_back(Lt(pb.Col("k"), ConstI64(1500)));
    conj.push_back(Ge(pb.Col("k"), ConstI64(2)));
    conj.push_back(Ne(pb.Col("k"), ConstI64(17)));
    conj.push_back(Ne(pb.Col("k"), ConstI64(444)));
    conj.push_back(Lt(pb.Col("v"), ConstI64(49000)));
    conj.push_back(Ge(pb.Col("v"), ConstI64(55)));
    conj.push_back(Ne(pb.Col("v"), ConstI64(10000)));
    conj.push_back(Lt(Mul(pb.Col("k"), ConstI64(2)), ConstI64(2900)));
    conj.push_back(Ne(pb.Col("v"), ConstI64(12345)));
    conj.push_back(Ge(Add(pb.Col("k"), pb.Col("v")), ConstI64(60)));
    conj.push_back(Ne(pb.Col("k"), ConstI64(1499)));
    conj.push_back(Eq(Sub(pb.Col("v"),
                          Mul(Div(pb.Col("v"), ConstI64(3)), ConstI64(3))),
                      ConstI64(0)));  // v % 3 == 0
    pb.Filter(And(std::move(conj)));
    pb.CollectResult();
    return pb.Build();
  };
  for (Engine* engine : {&SelEngine(), &EagerEngine()}) {
    ResultSet r = engine->CreateQuery(build_plan())->Execute();
    std::vector<std::pair<int64_t, int64_t>> got;
    for (int64_t i = 0; i < r.num_rows(); ++i) {
      got.push_back({r.I64(i, 0), r.I64(i, 1)});
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(SelectionVectors, AdaptiveReorderStaysExactOverManyChunks) {
  // Enough chunks (>64 per worker) that the conjunct re-rank actually
  // fires, with the expensive conjunct deliberately written first: the
  // reorder must never change results.
  auto t = MakeKv(SmallTopo(), Numbers(200000, 10000));
  ExpectBothEqual([&] {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    ExprPtr expensive = Lt(
        Add(Mul(pb.Col("v"), pb.Col("v")),
            Mul(pb.Col("k"), ConstI64(3))),
        ConstI64(int64_t{1} << 62));  // nearly always true, costly
    ExprPtr cheap = Lt(pb.Col("k"), ConstI64(500));  // 5%, cheap
    pb.Filter(And(std::move(expensive), std::move(cheap)));
    pb.CollectResult();
    return pb.Build();
  });
}

TEST(SelectionVectors, ConstantFoldingPreservesSemantics) {
  auto t = MakeKv(SmallTopo(), Numbers(5000, 100));
  // Column-free subtrees everywhere: arithmetic on literals in filter
  // conjuncts and projections, a constant-true conjunct (dropped at
  // lowering), CASE over a constant condition.
  ExpectBothEqual([&] {
    PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
    pb.Filter(And(
        Gt(ConstI64(10), Add(ConstI64(4), ConstI64(5))),  // const true
        Lt(pb.Col("k"), Add(ConstI64(30), Mul(ConstI64(2), ConstI64(10))))));
    pb.Project(
        NE("k", pb.Col("k")),
        NE("c", Add(Mul(ConstI64(6), ConstI64(7)), ConstI64(0))),
        NE("s", CaseWhen(Gt(ConstI64(1), ConstI64(0)), ConstStr("yes"),
                         ConstStr("no"))),
        NE("vv", Add(pb.Col("v"), Sub(ConstI64(100), ConstI64(100)))));
    pb.CollectResult();
    return pb.Build();
  });
  // A constant-false conjunct filters everything, on both paths.
  ExpectBothEqual(
      [&] {
        PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
        pb.Filter(And(Lt(ConstI64(5), ConstI64(3)),
                      Lt(pb.Col("k"), ConstI64(50))));
        pb.CollectResult();
        return pb.Build();
      },
      /*expect_nonempty=*/false);
}

TEST(SelectionVectors, RandomizedPlansMatchEager) {
  // Randomized shapes over both engines; any mismatch reproduces from
  // the logged seed.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 7919);
    const int64_t rows = 2000 + static_cast<int64_t>(rng.Uniform(0, 20000));
    const int64_t keys = 1 + static_cast<int64_t>(rng.Uniform(0, 3000));
    std::vector<std::pair<int64_t, int64_t>> data;
    for (int64_t i = 0; i < rows; ++i) {
      data.push_back({rng.Uniform(0, keys), rng.Uniform(0, 100000)});
    }
    auto t = MakeKv(SmallTopo(), data);
    const int64_t cut_k = rng.Uniform(0, keys);
    const int64_t cut_v = rng.Uniform(0, 100000);
    const bool group = rng.Bernoulli(0.5);
    ExpectBothEqual(
        [&] {
          PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
          pb.Filter(And(Le(pb.Col("k"), ConstI64(cut_k)),
                        Gt(pb.Col("v"), ConstI64(cut_v))));
          if (group) {
            std::vector<AggItem> aggs;
            aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
            aggs.push_back({AggFunc::kSum, pb.Col("v"), "sv"});
            pb.GroupBy({"k"}, std::move(aggs));
          }
          pb.CollectResult();
          return pb.Build();
        },
        /*expect_nonempty=*/false);
  }
}

TEST(SelectionVectors, ZoneMapPartialMorselsMatchEager) {
  // v is the row index, ascending within each partition, so the
  // SARGable range conjunct lets zone maps skip, fully accept and
  // partially accept morsels — the sel filter chain must honor the
  // per-morsel accept mask exactly like the eager one. The stacked
  // second filter merges into the same conjunct chain.
  auto probe = MakeKv(SmallTopo(), Numbers(40000, 300), "pk", "pv");
  auto build = MakeKv(SmallTopo(), Numbers(500, 250), "bk", "bv");
  ExpectBothEqual([&] {
    PlanBuilder b = PlanBuilder::Scan(build.get(), {"bk", "bv"});
    PlanBuilder p = PlanBuilder::Scan(probe.get(), {"pk", "pv"});
    p.Filter(Between(p.Col("pv"), ConstI64(4000), ConstI64(30000)));
    p.Filter(Ne(p.Col("pk"), ConstI64(123)));
    p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, JoinKind::kInner);
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
    aggs.push_back({AggFunc::kSum, p.Col("bv"), "sb"});
    p.GroupBy({"pk"}, std::move(aggs));
    p.CollectResult();
    return p.Build();
  });
}

TEST(SelectionVectors, PreparedReExecutionStartsWithWarmConjunctOrder) {
  // DESIGN §15 conjunct-order persistence: the first execution learns
  // cheap-selective-first via the adaptive re-rank and publishes the
  // packed order to the plan-owned slot; the second lowering of the
  // same prepared plan adopts it and annotates the pipeline.
  auto t = MakeKv(SmallTopo(), Numbers(200000, 10000));
  PlanBuilder pb = PlanBuilder::Scan(t.get(), {"k", "v"});
  ExprPtr expensive = Lt(Add(Mul(pb.Col("v"), pb.Col("v")),
                             Mul(pb.Col("k"), ConstI64(3))),
                         ConstI64(int64_t{1} << 62));  // ~always true
  ExprPtr cheap = Lt(pb.Col("k"), ConstI64(500));      // 5%, cheap
  pb.Filter(And(std::move(expensive), std::move(cheap)));
  pb.CollectResult();
  PreparedQuery pq = SelEngine().Prepare(pb.Build());
  ASSERT_TRUE(pq.valid());

  auto q1 = pq.MakeQuery();
  EXPECT_EQ(q1->ExplainPlan().find("[warm-conjunct-order]"),
            std::string::npos)
      << "nothing learned yet on the first execution";
  std::vector<std::string> first = SortedRows(q1->Execute());
  ASSERT_FALSE(first.empty());

  auto q2 = pq.MakeQuery();
  EXPECT_NE(q2->ExplainPlan().find("[warm-conjunct-order]"),
            std::string::npos)
      << q2->ExplainPlan();
  EXPECT_EQ(SortedRows(q2->Execute()), first);
}

}  // namespace
}  // namespace morsel
