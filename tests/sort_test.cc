// Tests for the parallel merge sort (§4.5) and the top-k heap variant:
// multi-key ordering, descending keys, string keys, separator-based
// merge with many runs, limits, and topk == head(full sort).

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "test_util.h"

namespace morsel {
namespace {

using testutil::MakeKv;
using testutil::SmallEngine;
using testutil::SmallTopo;

std::vector<std::pair<int64_t, int64_t>> RandomRows(int64_t n,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({rng.Uniform(0, 1000000), i});
  }
  return rows;
}

TEST(Sort, FullSortAscending) {
  auto rows = RandomRows(50000, 1);
  auto table = MakeKv(SmallTopo(), rows);
  PlanBuilder pb = PlanBuilder::Scan(table.get(), {"k", "v"});
  pb.OrderBy({{"k", true}});
  auto q = SmallEngine().CreateQuery(pb.Build());
  ResultSet r = q->Execute();
  ASSERT_EQ(r.num_rows(), 50000);
  for (int64_t i = 1; i < r.num_rows(); ++i) {
    ASSERT_LE(r.I64(i - 1, 0), r.I64(i, 0));
  }
  // Same multiset of keys.
  std::vector<int64_t> expect;
  for (auto& [k, v] : rows) expect.push_back(k);
  std::sort(expect.begin(), expect.end());
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    ASSERT_EQ(r.I64(i, 0), expect[i]);
  }
}

TEST(Sort, DescendingAndSecondaryKey) {
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < 10000; ++i) rows.push_back({i % 100, i});
  auto table = MakeKv(SmallTopo(), rows);
  PlanBuilder pb = PlanBuilder::Scan(table.get(), {"k", "v"});
  pb.OrderBy({{"k", false}, {"v", true}});
  auto q = SmallEngine().CreateQuery(pb.Build());
  ResultSet r = q->Execute();
  ASSERT_EQ(r.num_rows(), 10000);
  for (int64_t i = 1; i < r.num_rows(); ++i) {
    int64_t pk = r.I64(i - 1, 0), ck = r.I64(i, 0);
    ASSERT_GE(pk, ck);
    if (pk == ck) {
      ASSERT_LT(r.I64(i - 1, 1), r.I64(i, 1));
    }
  }
}

TEST(Sort, StringKeys) {
  Schema schema({{"s", LogicalType::kString}});
  Table t("t", schema, SmallTopo());
  Rng rng(9);
  for (int64_t i = 0; i < 20000; ++i) {
    int p = static_cast<int>(i % t.num_partitions());
    std::string s;
    for (int c = 0; c < 8; ++c) {
      s += static_cast<char>('a' + rng.Uniform(0, 25));
    }
    t.StrCol(p, 0)->Append(s);
  }
  for (int p = 0; p < t.num_partitions(); ++p) t.SealPartition(p);
  PlanBuilder pb = PlanBuilder::Scan(&t, {"s"});
  pb.OrderBy({{"s", true}});
  auto q = SmallEngine().CreateQuery(pb.Build());
  ResultSet r = q->Execute();
  ASSERT_EQ(r.num_rows(), 20000);
  for (int64_t i = 1; i < r.num_rows(); ++i) {
    ASSERT_LE(r.Str(i - 1, 0), r.Str(i, 0));
  }
}

TEST(Sort, LimitLargerThanInput) {
  auto table = MakeKv(SmallTopo(), RandomRows(50, 2));
  PlanBuilder pb = PlanBuilder::Scan(table.get(), {"k", "v"});
  pb.OrderBy({{"k", true}}, 1000);
  auto q = SmallEngine().CreateQuery(pb.Build());
  EXPECT_EQ(q->Execute().num_rows(), 50);
}

TEST(Sort, EmptyInput) {
  auto table = MakeKv(SmallTopo(), {});
  PlanBuilder pb = PlanBuilder::Scan(table.get(), {"k", "v"});
  pb.OrderBy({{"k", true}});
  auto q = SmallEngine().CreateQuery(pb.Build());
  EXPECT_EQ(q->Execute().num_rows(), 0);
}

// Top-k must equal the head of the full sort for any k (unique keys make
// the order deterministic).
class TopKProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(TopKProperty, MatchesFullSortHead) {
  int64_t k = GetParam();
  std::vector<std::pair<int64_t, int64_t>> rows;
  Rng rng(33);
  // unique keys via random permutation of 0..n-1
  std::vector<int64_t> keys(30000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(0, i - 1)]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    rows.push_back({keys[i], static_cast<int64_t>(i)});
  }
  auto table = MakeKv(SmallTopo(), rows);

  auto run = [&](int64_t limit) {
    PlanBuilder pb = PlanBuilder::Scan(table.get(), {"k", "v"});
    pb.OrderBy({{"k", false}}, limit);  // descending exercises heap order
    return SmallEngine().CreateQuery(pb.Build())->Execute();
  };
  ResultSet topk = run(k);          // k <= 8192 -> heap path
  ResultSet full = run(-1);         // full merge path
  ASSERT_EQ(topk.num_rows(), std::min<int64_t>(k, 30000));
  for (int64_t i = 0; i < topk.num_rows(); ++i) {
    ASSERT_EQ(topk.I64(i, 0), full.I64(i, 0));
    ASSERT_EQ(topk.I64(i, 1), full.I64(i, 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKProperty,
                         ::testing::Values(1, 2, 10, 100, 1000, 8000));

TEST(Sort, ManyRunsSmallMorsels) {
  // Tiny morsels spread the materialization over all workers -> many
  // runs; exercises separator computation and the parallel merge.
  EngineOptions opts;
  opts.morsel_size = 64;
  Engine engine(SmallTopo(), opts);
  auto table = MakeKv(SmallTopo(), RandomRows(20000, 4));
  PlanBuilder pb = PlanBuilder::Scan(table.get(), {"k", "v"});
  pb.OrderBy({{"k", true}});
  auto q = engine.CreateQuery(pb.Build());
  ResultSet r = q->Execute();
  ASSERT_EQ(r.num_rows(), 20000);
  for (int64_t i = 1; i < r.num_rows(); ++i) {
    ASSERT_LE(r.I64(i - 1, 0), r.I64(i, 0));
  }
}

TEST(Sort, DuplicateKeysLoseNoRows) {
  // All-equal sort keys stress separator ties: every row must survive.
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < 30000; ++i) rows.push_back({42, i});
  auto table = MakeKv(SmallTopo(), rows);
  PlanBuilder pb = PlanBuilder::Scan(table.get(), {"k", "v"});
  pb.OrderBy({{"k", true}});
  auto q = SmallEngine().CreateQuery(pb.Build());
  ResultSet r = q->Execute();
  ASSERT_EQ(r.num_rows(), 30000);
  std::vector<char> seen(30000, 0);
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    int64_t v = r.I64(i, 1);
    ASSERT_EQ(seen[v], 0);
    seen[v] = 1;
  }
}

}  // namespace
}  // namespace morsel
