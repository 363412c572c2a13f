#ifndef MORSELDB_PERFBENCH_METRICS_H_
#define MORSELDB_PERFBENCH_METRICS_H_

// Metric names and units the benchmark prints (they must match
// BENCHMARK.json; run.py checks every printed result), the statistics
// the workloads reduce their samples with, and the result line.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace morsel::perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

// Untraced run: every one of these is printed, on every workload.
const std::vector<MetricDef>& EndToEndMetrics();
// Traced run: every one of these is printed, on every workload; a layer
// the workload does not exercise reads 0 (see README.md).
const std::vector<MetricDef>& PerLayerMetrics();

// Collects a run's metric values by name.
class MetricValues {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

// The last line of the run: {"correct", "attempted", "failed",
// "metrics"}, restricted to `defs`; unset metrics print as 0. Aborts if
// `values` holds a name outside `defs` (a misspelt metric).
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricValues& values,
                       const std::vector<MetricDef>& defs);

// --- sample statistics ---------------------------------------------------
// Linear interpolation between order statistics; 0 for no samples.
double Percentile(std::vector<double> xs, double p);
inline double Median(std::vector<double> xs) {
  return Percentile(std::move(xs), 0.5);
}
double GeoMean(const std::vector<double>& xs);
double Sum(const std::vector<double>& xs);

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

}  // namespace morsel::perfbench

#endif  // MORSELDB_PERFBENCH_METRICS_H_
