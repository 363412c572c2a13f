#include "statements.h"

#include <vector>

namespace morsel::perfbench {
namespace {

LogicalPlan TpchQ6Shape(const TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(),
      {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"});
  li.Filter(And(Ge(li.Col("l_shipdate"), ConstDate("1994-01-01")),
                Lt(li.Col("l_shipdate"), ConstDate("1995-01-01")),
                Ge(li.Col("l_discount"), ConstF64(0.05)),
                Le(li.Col("l_discount"), ConstF64(0.07)),
                Lt(li.Col("l_quantity"), ConstF64(24.0))));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum,
                  Mul(li.Col("l_extendedprice"), li.Col("l_discount")),
                  "revenue"});
  li.GroupBy({}, std::move(aggs));
  li.CollectResult();
  return li.Build();
}

LogicalPlan TpchQ1Shape(const TpchData& db) {
  PlanBuilder li = PlanBuilder::Scan(
      db.lineitem.get(), {"l_returnflag", "l_linestatus", "l_quantity",
                          "l_extendedprice", "l_shipdate"});
  li.Filter(Le(li.Col("l_shipdate"), ConstDate("1998-09-02")));
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, li.Col("l_quantity"), "sum_qty"});
  aggs.push_back({AggFunc::kSum, li.Col("l_extendedprice"), "sum_price"});
  aggs.push_back({AggFunc::kCount, nullptr, "count_order"});
  li.GroupBy({"l_returnflag", "l_linestatus"}, std::move(aggs));
  li.CollectResult();
  return li.Build();
}

LogicalPlan TpchOrdersTopShape(const TpchData& db) {
  PlanBuilder o = PlanBuilder::Scan(
      db.orders.get(), {"o_orderkey", "o_orderdate", "o_totalprice"});
  o.Filter(And(Ge(o.Col("o_orderdate"), ConstDate("1995-01-01")),
               Lt(o.Col("o_orderdate"), ConstDate("1996-01-01"))));
  o.OrderBy({{"o_totalprice", /*ascending=*/false}}, /*limit=*/10);
  return o.Build();
}

LogicalPlan SsbQ11Shape(const SsbData& db) {
  PlanBuilder d =
      PlanBuilder::Scan(db.date_dim.get(), {"d_datekey", "d_year"});
  d.Filter(Eq(d.Col("d_year"), ConstI64(1993)));
  PlanBuilder lo = PlanBuilder::Scan(
      db.lineorder.get(), {"lo_orderdate", "lo_discount", "lo_quantity",
                           "lo_extendedprice", "lo_revenue"});
  lo.Filter(And(Ge(lo.Col("lo_discount"), ConstI64(1)),
                Le(lo.Col("lo_discount"), ConstI64(3)),
                Lt(lo.Col("lo_quantity"), ConstI64(25))));
  lo.Join(std::move(d), {"lo_orderdate"}, {"d_datekey"}, {},
          JoinKind::kInner);
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, lo.Col("lo_revenue"), "revenue"});
  lo.GroupBy({}, std::move(aggs));
  lo.CollectResult();
  return lo.Build();
}

LogicalPlan SsbGroupShape(const SsbData& db) {
  PlanBuilder lo = PlanBuilder::Scan(
      db.lineorder.get(), {"lo_discount", "lo_quantity", "lo_revenue"});
  std::vector<AggItem> aggs;
  aggs.push_back({AggFunc::kSum, lo.Col("lo_revenue"), "revenue"});
  aggs.push_back({AggFunc::kCount, nullptr, "n"});
  lo.GroupBy({"lo_discount"}, std::move(aggs));
  lo.CollectResult();
  return lo.Build();
}

}  // namespace

LogicalPlan StatementPlan(int index, const TpchData& tpch, const SsbData& ssb) {
  switch (index) {
    case 0:
      return TpchQ6Shape(tpch);
    case 1:
      return TpchQ1Shape(tpch);
    case 2:
      return TpchOrdersTopShape(tpch);
    case 3:
      return SsbQ11Shape(ssb);
    default:
      return SsbGroupShape(ssb);
  }
}

}  // namespace morsel::perfbench
