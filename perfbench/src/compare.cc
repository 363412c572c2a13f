#include "compare.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace morsel::perfbench {

CanonResult Canon(const ResultSet& r) {
  CanonResult out;
  out.rows.resize(static_cast<size_t>(r.num_rows()));
  for (int c = 0; c < r.num_cols(); ++c) {
    out.num_col.push_back(r.type(c) == LogicalType::kDouble);
  }
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    CanonRow& row = out.rows[static_cast<size_t>(i)];
    for (int c = 0; c < r.num_cols(); ++c) {
      switch (r.type(c)) {
        case LogicalType::kInt32:
          row.cells.push_back(std::to_string(r.I32(i, c)));
          break;
        case LogicalType::kInt64:
          row.cells.push_back(std::to_string(r.I64(i, c)));
          break;
        case LogicalType::kString:
          row.cells.push_back(r.Str(i, c));
          break;
        case LogicalType::kDouble:
          row.nums.push_back(r.F64(i, c));
          break;
      }
    }
  }
  return out;
}

CanonResult Canon(const server::Client::RowBatch& b) {
  CanonResult out;
  out.rows.resize(static_cast<size_t>(b.num_rows));
  for (const server::Client::Column& col : b.cols) {
    out.num_col.push_back(col.type == LogicalType::kDouble);
    for (size_t i = 0; i < out.rows.size(); ++i) {
      CanonRow& row = out.rows[i];
      switch (col.type) {
        case LogicalType::kInt32:
        case LogicalType::kInt64:
          row.cells.push_back(std::to_string(col.ints[i]));
          break;
        case LogicalType::kString:
          row.cells.push_back(col.strings[i]);
          break;
        case LogicalType::kDouble:
          row.nums.push_back(col.doubles[i]);
          break;
      }
    }
  }
  return out;
}

bool NearlyEqual(double a, double b) {
  if (a == b) return true;
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= kRelTolerance * scale;
}

namespace {

// Orders rows by exact cells, then by doubles; rows that compare equal
// here within tolerance are the same row.
int CompareRows(const CanonRow& a, const CanonRow& b) {
  if (a.cells != b.cells) return a.cells < b.cells ? -1 : 1;
  for (size_t k = 0; k < a.nums.size() && k < b.nums.size(); ++k) {
    if (!NearlyEqual(a.nums[k], b.nums[k])) {
      return a.nums[k] < b.nums[k] ? -1 : 1;
    }
  }
  return 0;
}

std::vector<size_t> SortedOrder(const CanonResult& r) {
  std::vector<size_t> idx(r.rows.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::sort(idx.begin(), idx.end(), [&](size_t x, size_t y) {
    const CanonRow& a = r.rows[x];
    const CanonRow& b = r.rows[y];
    if (a.cells != b.cells) return a.cells < b.cells;
    return a.nums < b.nums;
  });
  return idx;
}

std::string Render(const CanonRow& row) {
  std::string s;
  for (const std::string& c : row.cells) s += c + "|";
  for (double d : row.nums) s += std::to_string(d) + "|";
  return s;
}

// True when `row` holds `ref`'s value on every output column in `key`.
bool SameKey(const CanonResult& r, const CanonRow& row, const CanonRow& ref,
             const std::vector<int>& key) {
  for (int c : key) {
    // The column's place among the cells or among the doubles.
    const bool num = r.num_col[static_cast<size_t>(c)];
    size_t slot = 0;
    for (int k = 0; k < c; ++k) slot += r.num_col[static_cast<size_t>(k)] == num;
    if (num ? !NearlyEqual(row.nums[slot], ref.nums[slot])
            : row.cells[slot] != ref.cells[slot]) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool SameResult(const CanonResult& want, const CanonResult& got,
                const std::vector<int>& limit_key, std::string* why) {
  auto fail = [&](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  if (want.rows.size() != got.rows.size()) {
    return fail("row count " + std::to_string(got.rows.size()) +
                ", expected " + std::to_string(want.rows.size()));
  }
  if (want.rows.empty()) return true;
  if (want.num_col != got.num_col) return fail("column types differ");
  const size_t nnums = static_cast<size_t>(
      std::count(want.num_col.begin(), want.num_col.end(), true));
  const size_t ncells = want.num_col.size() - nnums;
  for (const CanonResult* r : {&want, &got}) {
    for (const CanonRow& row : r->rows) {
      if (row.cells.size() != ncells || row.nums.size() != nnums) {
        return fail("column shape differs");
      }
    }
  }
  for (int c : limit_key) {
    if (c < 0 || static_cast<size_t>(c) >= want.num_col.size()) {
      return fail("LIMIT key column " + std::to_string(c) + " out of range");
    }
  }

  // Multiset difference by a merge over both sorted orders.
  const std::vector<size_t> ws = SortedOrder(want);
  const std::vector<size_t> gs = SortedOrder(got);
  std::vector<size_t> miss_want, miss_got;  // output positions
  size_t i = 0, j = 0;
  while (i < ws.size() || j < gs.size()) {
    int cmp = i == ws.size()   ? 1
              : j == gs.size() ? -1
                               : CompareRows(want.rows[ws[i]], got.rows[gs[j]]);
    if (cmp == 0) {
      ++i, ++j;
    } else if (cmp < 0) {
      miss_want.push_back(ws[i++]);
    } else {
      miss_got.push_back(gs[j++]);
    }
  }
  if (miss_want.empty() && miss_got.empty()) return true;

  const std::string first =
      miss_want.empty() ? "unexpected row " + Render(got.rows[miss_got[0]])
                        : "missing row " + Render(want.rows[miss_want[0]]);
  if (limit_key.empty()) return fail(first);

  // Tie at the LIMIT cut: every unmatched row holds the cut's key.
  const CanonRow& cut = want.rows.back();
  auto tied = [&](const CanonResult& r, const std::vector<size_t>& miss) {
    return std::all_of(miss.begin(), miss.end(), [&](size_t p) {
      return SameKey(r, r.rows[p], cut, limit_key);
    });
  };
  if (!tied(want, miss_want) || !tied(got, miss_got)) {
    return fail(first + " (not a tie at the LIMIT cut)");
  }
  for (size_t w : miss_want) {
    for (size_t g : miss_got) {
      if (want.rows[w].cells == got.rows[g].cells) {
        return fail("changed row " + Render(got.rows[g]) + ", expected " +
                    Render(want.rows[w]));
      }
    }
  }
  return true;
}

}  // namespace morsel::perfbench
