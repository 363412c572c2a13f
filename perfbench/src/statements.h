#ifndef MORSELDB_PERFBENCH_STATEMENTS_H_
#define MORSELDB_PERFBENCH_STATEMENTS_H_

// The five serving statements of the `serve` workload: the statement
// set of bench/serve_mixed.cc, rebuilt here because that bench is a
// program of its own. Short TPC-H / SSB shaped plans over small data.

#include <vector>

#include "engine/logical_plan.h"
#include "ssb/ssb.h"
#include "tpch/tpch.h"

namespace morsel::perfbench {

inline constexpr int kNumStatements = 5;
inline constexpr const char* kStatementNames[kNumStatements] = {
    "tpch_q6", "tpch_q1", "tpch_top", "ssb_q11", "ssb_group"};

// Plan of statement `index` (into kStatementNames).
LogicalPlan StatementPlan(int index, const TpchData& tpch, const SsbData& ssb);

// Output columns of the ORDER BY key of the statements ending in
// ORDER BY ... LIMIT: tpch_top's o_totalprice. Empty for the others.
inline std::vector<int> StatementLimitKey(int index) {
  return index == 2 ? std::vector<int>{2} : std::vector<int>{};
}

}  // namespace morsel::perfbench

#endif  // MORSELDB_PERFBENCH_STATEMENTS_H_
