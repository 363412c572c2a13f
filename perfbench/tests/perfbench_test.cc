// Unit tests of the benchmark's own machinery: the result comparator and
// span self time.

#include <gtest/gtest.h>

#include "compare.h"
#include "spans.h"

namespace morsel::perfbench {
namespace {

CanonRow Row(std::vector<std::string> cells, std::vector<double> nums) {
  return CanonRow{std::move(cells), std::move(nums)};
}

// Output columns are the cells, then the doubles.
CanonResult Result(std::vector<CanonRow> rows) {
  CanonResult r{rows, {}};
  if (!rows.empty()) {
    r.num_col.assign(rows[0].cells.size(), false);
    r.num_col.resize(r.num_col.size() + rows[0].nums.size(), true);
  }
  return r;
}

const std::vector<int> kNoLimit = {};

// A small result ordered by revenue, descending: (orderkey, flag,
// revenue); the ORDER BY key is output column 2.
const std::vector<int> kRevenueKey = {2};
CanonResult Base() {
  return Result({Row({"1", "A"}, {100.5}), Row({"2", "B"}, {90.25}),
                 Row({"3", "A"}, {80.0}), Row({"4", "C"}, {70.0})});
}

TEST(Compare, AcceptsIdenticalAndReordered) {
  CanonResult want = Base();
  EXPECT_TRUE(SameResult(want, want));
  CanonResult got = Base();
  std::swap(got.rows[0], got.rows[3]);
  EXPECT_TRUE(SameResult(want, got, kNoLimit));
}

TEST(Compare, RejectsChangedRowCount) {
  CanonResult want = Base();
  CanonResult got = Base();
  got.rows.pop_back();
  std::string why;
  EXPECT_FALSE(SameResult(want, got, kNoLimit, &why));
  EXPECT_NE(why.find("row count"), std::string::npos);
  got = Base();
  got.rows.push_back(got.rows.back());
  EXPECT_FALSE(SameResult(want, got, kRevenueKey));
}

TEST(Compare, RejectsDoubleBeyondTolerance) {
  CanonResult want = Base();
  CanonResult got = Base();
  got.rows[1].nums[0] *= 1.0 + 1e-4;
  EXPECT_FALSE(SameResult(want, got, kNoLimit));
  EXPECT_FALSE(SameResult(want, got, kRevenueKey));
}

TEST(Compare, AcceptsParallelSummationJitter) {
  CanonResult want = Result({Row({"x"}, {1234567.891}), Row({"y"}, {0.1})});
  CanonResult got = want;
  got.rows[0].nums[0] = 1234567.891 * (1.0 + 3e-13);
  got.rows[1].nums[0] = 0.1 + 1e-15;
  EXPECT_TRUE(SameResult(want, got, kNoLimit));
}

TEST(Compare, RejectsChangedExactColumn) {
  CanonResult want = Base();
  CanonResult got = Base();
  got.rows[2].cells[1] = "Z";
  EXPECT_FALSE(SameResult(want, got, kNoLimit));
}

TEST(Compare, AcceptsTieAtLimitCutOnlyWithLimit) {
  // Rows 3 and 4 tie on revenue 70.0; the LIMIT 4 cut kept a different
  // one of the tied rows.
  CanonResult want = Result({Row({"1", "A"}, {100.5}), Row({"2", "B"}, {90.25}),
                             Row({"3", "A"}, {70.0}), Row({"4", "C"}, {70.0})});
  CanonResult got = want;
  got.rows[3] = Row({"9", "D"}, {70.0});
  EXPECT_TRUE(SameResult(want, got, kRevenueKey));
  EXPECT_FALSE(SameResult(want, got, kNoLimit));
}

TEST(Compare, RejectsNonTieDifferenceAtLimitCut) {
  CanonResult want = Base();
  // A different last row that does not tie with the block it replaces.
  CanonResult got = Base();
  got.rows[2] = Row({"7", "B"}, {75.0});
  EXPECT_FALSE(SameResult(want, got, kRevenueKey));
  // The same row with a changed value at the cut is not a tie either.
  got = Base();
  got.rows[3].nums[0] = 71.0;
  EXPECT_FALSE(SameResult(want, got, kRevenueKey));
}

TEST(Compare, RejectsWrongRowsAtLimitCutThatTieOnANonKeyColumn) {
  // (orderkey, shippriority, revenue) ordered by revenue: shippriority
  // is constant, as o_shippriority is in TPC-H Q3, but not the key.
  CanonResult want = Result({Row({"1", "0"}, {100.5}), Row({"2", "0"}, {90.25}),
                             Row({"3", "0"}, {80.0}), Row({"4", "0"}, {70.0})});
  CanonResult got = want;
  got.rows[2] = Row({"7", "0"}, {60.0});
  got.rows[3] = Row({"8", "0"}, {50.0});
  std::string why;
  EXPECT_FALSE(SameResult(want, got, kRevenueKey, &why));
  EXPECT_NE(why.find("not a tie"), std::string::npos);
  // A one-row tail that matches the cut on a non-key column only.
  got = want;
  got.rows[3] = Row({"9", "0"}, {65.0});
  EXPECT_FALSE(SameResult(want, got, kRevenueKey));
  // The same rows tie on the key when it is the constant column.
  EXPECT_TRUE(SameResult(want, got, {1}));
}

TEST(Compare, TieAtLimitCutNeedsEveryKeyColumn) {
  // ORDER BY revenue, orderdate: rows tie on revenue at the cut but not
  // on the date, so a different row there is a wrong result.
  CanonResult want = Result({Row({"1", "1995-01-02"}, {90.0}),
                             Row({"2", "1995-01-03"}, {70.0})});
  CanonResult got = want;
  got.rows[1] = Row({"3", "1995-01-04"}, {70.0});
  EXPECT_FALSE(SameResult(want, got, {2, 1}));
  got.rows[1] = Row({"3", "1995-01-03"}, {70.0});
  EXPECT_TRUE(SameResult(want, got, {2, 1}));
}

TEST(Compare, DuplicateKeysMatchInAnyOrder) {
  CanonResult want = Result({Row({"k"}, {1.0}), Row({"k"}, {2.0})});
  CanonResult got = Result({Row({"k"}, {2.0}), Row({"k"}, {1.0})});
  EXPECT_TRUE(SameResult(want, got, kNoLimit));
}

Span MakeSpan(int64_t start, int64_t end) {
  Span s;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(SelfMicros(MakeSpan(10, 110), {}), 100);
}

TEST(SelfTime, SubtractsDisjointChildren) {
  EXPECT_EQ(SelfMicros(MakeSpan(0, 100), {MakeSpan(10, 20), MakeSpan(50, 80)}),
            60);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {

  EXPECT_EQ(SelfMicros(MakeSpan(0, 100), {MakeSpan(10, 40), MakeSpan(30, 60),
                                          MakeSpan(20, 50), MakeSpan(70, 90)}),
            30);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  EXPECT_EQ(SelfMicros(MakeSpan(100, 200), {MakeSpan(50, 150), MakeSpan(190, 400),
                                            MakeSpan(300, 400)}),
            40);
}

TEST(SelfTime, SyntheticTree) {
  // request [0, 100): conn_wait [0, 5), execute [5, 30), fetch [30, 95).
  // fetch's own children: two overlapping morsels [40, 70) and [60, 90).
  SpanRecorder rec(true);
  Span req = MakeSpan(0, 100);
  req.name = "request";
  req.id = rec.Add(req);
  std::vector<Span> kids = {MakeSpan(0, 5), MakeSpan(5, 30), MakeSpan(30, 95)};
  for (Span& k : kids) {
    k.parent = req.id;
    k.id = rec.Add(k);
  }
  TraceEvent a{0, 1, 0, 40, 70, false};
  TraceEvent b{1, 1, 0, 60, 90, true};
  TraceEvent outside{2, 1, 0, 96, 99, false};
  rec.AttachMorsels(kids[2], {a, b, outside});
  std::vector<Span> all = rec.Snapshot();
  std::vector<Span> req_kids, fetch_kids;
  for (const Span& s : all) {
    if (s.parent == req.id) req_kids.push_back(s);
    if (s.parent == kids[2].id) fetch_kids.push_back(s);
  }
  ASSERT_EQ(fetch_kids.size(), 2u);  // the event outside fetch is dropped
  EXPECT_EQ(SelfMicros(req, req_kids), 5);
  EXPECT_EQ(SelfMicros(kids[2], fetch_kids), 15);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder rec(false);
  EXPECT_EQ(rec.Add(MakeSpan(0, 1)), -1);
  EXPECT_TRUE(rec.Snapshot().empty());
}

}  // namespace
}  // namespace morsel::perfbench
