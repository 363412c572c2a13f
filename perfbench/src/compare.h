#ifndef MORSELDB_PERFBENCH_COMPARE_H_
#define MORSELDB_PERFBENCH_COMPARE_H_

// Result oracle of the benchmark: canonicalised rows compared against a
// reference computed at set-up. A row is its exact part (integer and
// string columns, rendered as text) plus its double columns, which
// match at a relative tolerance because parallel summation order varies
// between runs and engines.

#include <string>
#include <vector>

#include "exec/result.h"
#include "server/client.h"

namespace morsel::perfbench {

struct CanonRow {
  std::vector<std::string> cells;  // the int and string columns, as text
  std::vector<double> nums;        // the double columns, in column order
};

// Rows in output order, as the engine or the wire delivered them.
struct CanonResult {
  std::vector<CanonRow> rows;
  // Per output column: true for a double (kept in CanonRow::nums), false
  // for an int or string (kept in CanonRow::cells).
  std::vector<bool> num_col;
};

CanonResult Canon(const ResultSet& r);
CanonResult Canon(const server::Client::RowBatch& b);

inline constexpr double kRelTolerance = 1e-6;

// |a - b| <= kRelTolerance * max(1, |a|, |b|).
bool NearlyEqual(double a, double b);

// True when `got` holds the same rows as `want`, ignoring row order,
// with doubles at relative `kRelTolerance`.
//
// `limit_key` is empty unless the query ends in ORDER BY ... LIMIT; then
// it lists the output columns of the ORDER BY key. The cut may fall
// inside a run of rows tied on that key, where engines legitimately
// keep different rows. That is accepted when the rows that do not match
//  - all hold, on every `limit_key` column, the value of the last row of
//    `want` (the reference's cut), in both results, and
//  - are different rows: no unmatched row of `got` has the integer and
//    string columns of an unmatched row of `want`, so a changed value
//    in a kept row is still a mismatch.
// `why`, if given, receives the first difference found.
bool SameResult(const CanonResult& want, const CanonResult& got,
                const std::vector<int>& limit_key = {},
                std::string* why = nullptr);

}  // namespace morsel::perfbench

#endif  // MORSELDB_PERFBENCH_COMPARE_H_
