// Oracle tests for the staged, prefetch-pipelined hash-join probe
// (DESIGN.md §5): HashProbeOp must produce exactly the rows of a
// test-local nested-loop join over a std::multimap for every JoinKind,
// including hash collisions, duplicate-key chains, residual predicates,
// and chunks much larger than the in-flight prefetch window.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "exec/hash_join.h"
#include "test_util.h"

namespace morsel {
namespace {

using testutil::MakeKv;
using testutil::SmallEngine;
using testutil::SmallTopo;
using testutil::SortedRows;

using KvRows = std::vector<std::pair<int64_t, int64_t>>;

KvRows Numbers(int64_t n, int64_t key_mod) {
  KvRows rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back({i % key_mod, i});
  return rows;
}

bool IsSemiOrAnti(JoinKind kind) {
  return kind == JoinKind::kSemi || kind == JoinKind::kAnti;
}

// The residual each engine-level case attaches: semi/anti emit probe
// columns only, so theirs compares against the (non-emitted) build
// value; the other kinds filter on a probe column.
bool ResidualPasses(JoinKind kind, int64_t pv, int64_t bv) {
  return IsSemiOrAnti(kind) ? bv != pv : pv < 900;
}

// Joins one row's columns the way ResultSet::RowToString prints them.
std::string Row(std::initializer_list<int64_t> cols) {
  std::string out;
  for (int64_t c : cols) {
    if (!out.empty()) out += '\t';
    out += std::to_string(c);
  }
  return out;
}

// Nested-loop oracle: every probe row visits every build row with an
// equal key (a std::multimap range) — no hashing, tags or batching.
// Rows come back sorted, formatted like SortedRows().
std::vector<std::string> NestedLoopJoin(const KvRows& probe,
                                        const KvRows& build, JoinKind kind,
                                        bool with_residual) {
  std::multimap<int64_t, int64_t> by_key(build.begin(), build.end());
  std::vector<std::string> out;
  for (const auto& [pk, pv] : probe) {
    bool matched = false;
    auto [lo, hi] = by_key.equal_range(pk);
    for (auto it = lo; it != hi; ++it) {
      const int64_t bv = it->second;
      if (with_residual && !ResidualPasses(kind, pv, bv)) continue;
      matched = true;
      if (!IsSemiOrAnti(kind)) out.push_back(Row({pk, pv, bv}));
    }
    if (kind == JoinKind::kSemi && matched) out.push_back(Row({pk, pv}));
    if (kind == JoinKind::kAnti && !matched) out.push_back(Row({pk, pv}));
    if (kind == JoinKind::kLeftOuter && !matched) {
      out.push_back(Row({pk, pv, 0}));  // build payload padded
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Runs the join plan on `engine` and returns its rows, sorted.
std::vector<std::string> RunJoin(Engine& engine, const Table* probe,
                                 const Table* build, JoinKind kind,
                                 bool with_residual) {
  PlanBuilder b = PlanBuilder::Scan(build, {"bk", "bv"});
  PlanBuilder p = PlanBuilder::Scan(probe, {"pk", "pv"});
  std::vector<std::string> payload =
      IsSemiOrAnti(kind) ? std::vector<std::string>{}
                         : std::vector<std::string>{"bv"};
  if (with_residual) {
    // Residual over the combined row: semi/anti carry bv for the
    // residual only (it is not emitted).
    p.HashJoin(std::move(b), {"pk"}, {"bk"}, {"bv"}, kind,
               [kind](const ColScope& s) {
                 return IsSemiOrAnti(kind) ? Ne(s.Col("bv"), s.Col("pv"))
                                           : Lt(s.Col("pv"), ConstI64(900));
               });
  } else {
    p.HashJoin(std::move(b), {"pk"}, {"bk"}, payload, kind);
  }
  p.CollectResult();
  return SortedRows(engine.CreateQuery(p.Build())->Execute());
}

// Builds both tables from `probe_rows` / `build_rows`, runs the join
// on `engine` and expects the oracle's rows.
void ExpectMatchesOracle(Engine& engine, const KvRows& probe_rows,
                         const KvRows& build_rows, JoinKind kind,
                         bool with_residual) {
  SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
               " residual=" + std::to_string(with_residual));
  auto probe = MakeKv(SmallTopo(), probe_rows, "pk", "pv");
  auto build = MakeKv(SmallTopo(), build_rows, "bk", "bv");
  std::vector<std::string> expect =
      NestedLoopJoin(probe_rows, build_rows, kind, with_residual);
  EXPECT_EQ(RunJoin(engine, probe.get(), build.get(), kind, with_residual),
            expect);
}

TEST(BatchedProbe, MatchesOracleForAllKindsDuplicateChains) {
  // Probe: 1200 rows over 40 keys (chunks much larger than the 16-wide
  // in-flight window); build: keys 0..19, each 5 times (long duplicate
  // chains), so every probe chunk keeps many chains in flight at once.
  const KvRows probe = Numbers(1200, 40);
  const KvRows build = Numbers(100, 20);
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kSemi, JoinKind::kAnti,
                        JoinKind::kLeftOuter}) {
    EXPECT_FALSE(NestedLoopJoin(probe, build, kind, false).empty());
    ExpectMatchesOracle(SmallEngine(), probe, build, kind, false);
  }
}

TEST(BatchedProbe, MatchesOracleWithResiduals) {
  const KvRows probe = Numbers(1000, 25);
  const KvRows build = Numbers(75, 25);
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kSemi, JoinKind::kAnti,
                        JoinKind::kLeftOuter}) {
    ExpectMatchesOracle(SmallEngine(), probe, build, kind, true);
  }
}

TEST(BatchedProbe, MatchesOracleOnCollisionHeavyTable) {
  // Thousands of distinct keys force genuine slot collisions (distinct-key
  // chains) on top of duplicate-key chains; low hit rate also exercises
  // the bulk tag filter.
  const KvRows probe = Numbers(5000, 5000);
  const KvRows build = Numbers(3000, 1500);
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kSemi,
                        JoinKind::kAnti}) {
    ExpectMatchesOracle(SmallEngine(), probe, build, kind, false);
  }
}

TEST(BatchedProbe, MatchesOracleOnEmptyBuild) {
  const KvRows probe = Numbers(100, 10);
  EXPECT_TRUE(NestedLoopJoin(probe, {}, JoinKind::kInner, false).empty());
  ExpectMatchesOracle(SmallEngine(), probe, {}, JoinKind::kInner, false);
}

// Exec-level oracle check for kRightOuterMark: the probe must mark
// exactly the build tuples whose key some probe row carries, so the
// deferred unmatched flush yields the nested-loop join's complement.
TEST(BatchedProbe, RightOuterMarkMarksOracleTuples) {
  const Topology& topo = SmallTopo();
  JoinState state({LogicalType::kInt64, LogicalType::kInt64}, 1,
                  JoinKind::kRightOuterMark, 2);
  MemStatsRegistry stats(2);
  WorkerContext wctx;
  wctx.topo = &topo;
  wctx.traffic = stats.worker(0);
  ExecContext ctx;
  ctx.worker = &wctx;

  // Build: keys 0..199, each twice.
  constexpr int kBuild = 400;
  KvRows build_rows;
  {
    Chunk chunk;
    chunk.n = kBuild;
    static int64_t keys[kBuild], vals[kBuild];
    for (int i = 0; i < kBuild; ++i) {
      keys[i] = i / 2;
      vals[i] = i;
      build_rows.push_back({keys[i], vals[i]});
    }
    chunk.cols = {Vector{LogicalType::kInt64, keys},
                  Vector{LogicalType::kInt64, vals}};
    HashBuildSink sink(&state);
    sink.Consume(chunk, ctx);
    sink.Finalize(ctx);
  }
  for (int i = 0; i < kBuild; ++i) {
    uint8_t* row = state.buffer_by_index(0)->row(i);
    state.table()->Insert(row, TupleLayout::GetHash(row));
  }

  struct CollectSink : Sink {
    std::vector<std::string> rows;
    void Consume(Chunk& c, ExecContext&) override {
      for (int i = 0; i < c.n; ++i) {
        std::string s;
        for (const Vector& v : c.cols) {
          s += std::to_string(v.i64()[i]) + ",";
        }
        rows.push_back(std::move(s));
      }
    }
  };

  // Probe with every third key, chunked; marks those build tuples.
  std::vector<int64_t> probe_keys;
  for (int64_t k = 0; k < 200; k += 3) probe_keys.push_back(k);
  CollectSink probed;
  {
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<HashProbeOp>(
        &state, std::vector<int>{0}, std::vector<int>{1}, nullptr));
    Pipeline pipe(nullptr, std::move(ops), &probed);
    Chunk chunk;
    chunk.n = static_cast<int>(probe_keys.size());
    chunk.cols = {Vector{LogicalType::kInt64, probe_keys.data()}};
    pipe.Push(chunk, 0, ctx);
  }

  // Flush the unmatched build tuples.
  CollectSink unmatched;
  UnmatchedBuildSource source(&state);
  Pipeline flush(nullptr, {}, &unmatched);
  for (const MorselRange& r : source.MakeRanges(topo)) {
    Morsel m;
    m.partition = r.partition;
    m.begin = r.begin;
    m.end = r.end;
    m.socket = r.socket;
    source.RunMorsel(m, flush, ctx);
  }

  // Oracle: probed rows are (probe key, build value) per key match;
  // unmatched rows are the build rows no probe key reaches.
  std::multimap<int64_t, int64_t> by_key(build_rows.begin(),
                                         build_rows.end());
  std::vector<std::string> expect_probed, expect_unmatched;
  for (int64_t k : probe_keys) {
    auto [lo, hi] = by_key.equal_range(k);
    for (auto it = lo; it != hi; ++it) {
      expect_probed.push_back(std::to_string(k) + "," +
                              std::to_string(it->second) + ",");
    }
  }
  for (const auto& [k, v] : build_rows) {
    if (std::find(probe_keys.begin(), probe_keys.end(), k) ==
        probe_keys.end()) {
      expect_unmatched.push_back(std::to_string(k) + "," +
                                 std::to_string(v) + ",");
    }
  }
  std::sort(probed.rows.begin(), probed.rows.end());
  std::sort(unmatched.rows.begin(), unmatched.rows.end());
  std::sort(expect_probed.begin(), expect_probed.end());
  std::sort(expect_unmatched.begin(), expect_unmatched.end());
  // 67 probe keys x 2 build rows each.
  EXPECT_EQ(expect_probed.size(), 134u);
  EXPECT_EQ(expect_unmatched.size(), 400u - 134u);
  EXPECT_EQ(probed.rows, expect_probed);
  EXPECT_EQ(unmatched.rows, expect_unmatched);
}

// The ablation axes compose: batched probing without pointer tags must
// still match the oracle.
TEST(BatchedProbe, MatchesOracleWithTaggingDisabled) {
  static Engine* untagged = [] {
    EngineOptions opts;
    opts.morsel_size = 512;
    opts.tagging = false;
    return new Engine(SmallTopo(), opts);
  }();
  const KvRows probe = Numbers(2000, 100);
  const KvRows build = Numbers(120, 60);
  EXPECT_FALSE(NestedLoopJoin(probe, build, JoinKind::kInner, false).empty());
  ExpectMatchesOracle(*untagged, probe, build, JoinKind::kInner, false);
}

}  // namespace
}  // namespace morsel
