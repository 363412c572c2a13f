#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "ssb/ssb_queries.h"
#include "statements.h"
#include "tpch/tpch_queries.h"
#include "workload.h"

namespace morsel::perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},     {"peak_rss_mb", "MB"}, {"geomean_ms", "ms"},
      {"total_s", "s"},     {"p50_ms", "ms"},      {"p99_ms", "ms"},
      {"qps", "1/s"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d;
    for (int q = 1; q <= kNumTpchQueries; ++q) {
      if (q == kTpchSkipped) continue;
      char name[32];
      std::snprintf(name, sizeof(name), "tpch.q%02d_ms", q);
      d.push_back({name, "ms"});
    }
    for (int q = 0; q < kNumSsbQueries; ++q) {
      d.push_back({std::string("ssb.q") + SsbQueryName(q) + "_ms", "ms"});
    }
    for (const char* stmt : kStatementNames) {
      d.push_back({std::string("serve.") + stmt + "_ms", "ms"});
    }
    const std::vector<MetricDef> rest = {
        {"tpch.gen_s", "s"},
        {"ssb.gen_s", "s"},
        {"core.busy_frac", "ratio"},
        {"core.imbalance", "ratio"},
        {"core.morsels", "count"},
        {"core.stolen_frac", "ratio"},
        {"core.morsel_us_p50", "us"},
        {"core.gap_us", "us"},
        {"core.speedup_1w", "ratio"},
        {"volcano.ratio", "ratio"},
        {"numa.read_mb", "MB"},
        {"numa.written_mb", "MB"},
        {"numa.remote_pct", "%"},
        {"numa.max_link_pct", "%"},
        {"engine.self_pct", "%"},
        {"engine.lower_us", "us"},
        {"engine.exec_us", "us"},
        {"engine.result_us", "us"},
        {"engine.peak_mem_kb", "KB"},
        {"server.execute_us.p50", "us"},
        {"server.execute_us.p99", "us"},
        {"server.fetch_us.p50", "us"},
        {"server.fetch_us.p99", "us"},
        {"server.overhead_us", "us"},
        {"server.conn_wait_ms.p50", "ms"},
        {"server.conn_wait_ms.p99", "ms"},
        {"server.stmt_cache_hit_ratio", "ratio"},
        {"server.admission_queued_frac", "ratio"},
        {"server.admission_rejected", "count"},
        {"trace.overhead_pct", "%"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return kDefs;
}

double MetricValues::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricValues& values,
                       const std::vector<MetricDef>& defs) {
  std::set<std::string> known;
  for (const MetricDef& d : defs) known.insert(d.name);
  for (const auto& [name, v] : values.values()) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s is not declared\n",
                   name.c_str());
      std::abort();
    }
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    double v = values.Get(defs[i].name);
    if (!std::isfinite(v)) v = 0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.12g", v);
    out += (i == 0 ? "\"" : ", \"") + defs[i].name + "\": {\"value\": " +
           num + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

double Sum(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace morsel::perfbench
