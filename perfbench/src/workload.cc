#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/timer.h"
#include "engine/engine.h"

namespace morsel::perfbench {

EngineMark MarkEngine(Engine& engine) {
  EngineMark m;
  m.wall_us = WallTimer::NowMicros();
  for (int w = 0; w < engine.num_workers(); ++w) {
    m.busy_us.push_back(engine.pool()->WorkerBusyMicros(w));
  }
  if (const TraceRecorder* t = engine.trace()) {
    for (int s = 0; s < t->num_workers(); ++s) {
      m.trace_events.push_back(t->worker_events(s).size());
    }
  }
  return m;
}

std::vector<TraceEvent> EventsSince(Engine& engine, const EngineMark& since) {
  std::vector<TraceEvent> out;
  const TraceRecorder* t = engine.trace();
  if (t == nullptr) return out;
  for (int s = 0; s < t->num_workers(); ++s) {
    const std::vector<TraceEvent>& ev = t->worker_events(s);
    const size_t from = s < static_cast<int>(since.trace_events.size())
                            ? since.trace_events[s]
                            : 0;
    out.insert(out.end(), ev.begin() + static_cast<long>(from), ev.end());
  }
  return out;
}

void LayerSamples::AddWindow(Engine& engine, const EngineMark& from,
                             const EngineMark& to,
                             const std::vector<TraceEvent>& events) {
  const double wall = static_cast<double>(to.wall_us - from.wall_us);
  int64_t total = 0, most = 0, least = -1;
  for (size_t w = 0; w < to.busy_us.size(); ++w) {
    const int64_t d = to.busy_us[w] - from.busy_us[w];
    total += d;
    most = std::max(most, d);
    least = least < 0 ? d : std::min(least, d);
  }
  if (wall > 0) {
    busy_frac.push_back(static_cast<double>(total) /
                        (static_cast<double>(to.busy_us.size()) * wall));
  }
  if (least > 0) {
    imbalance.push_back(static_cast<double>(most) /
                        static_cast<double>(least));
  }

  int64_t stolen = 0;
  // A worker's gap between consecutive morsels of the same query: the
  // time it spent in the dispatcher (or idle) while that query ran.
  std::map<int, const TraceEvent*> last_by_worker;
  std::vector<TraceEvent> sorted = events;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  for (const TraceEvent& e : sorted) {
    if (e.stolen) ++stolen;
    morsel_us.push_back(static_cast<double>(e.end_us - e.start_us));
    auto it = last_by_worker.find(e.worker);
    if (it != last_by_worker.end() && it->second->query == e.query) {
      gap_us.push_back(static_cast<double>(e.start_us - it->second->end_us));
    }
    last_by_worker[e.worker] = &e;
  }
  morsels.push_back(static_cast<double>(events.size()));
  if (!events.empty()) {
    stolen_frac.push_back(static_cast<double>(stolen) /
                          static_cast<double>(events.size()));
  }

  const TrafficSnapshot t = engine.stats()->Aggregate();
  read_mb.push_back(static_cast<double>(t.bytes_read()) / 1e6);
  written_mb.push_back(static_cast<double>(t.bytes_written()) / 1e6);
  remote_pct.push_back(t.RemotePercent());
  max_link_pct.push_back(t.MaxLinkPercent());
}

void LayerSamples::Report(MetricValues* m) const {
  m->Set("core.busy_frac", Median(busy_frac));
  m->Set("core.imbalance", Median(imbalance));
  m->Set("core.morsels", Median(morsels));
  m->Set("core.stolen_frac", Median(stolen_frac));
  m->Set("core.morsel_us_p50", Median(morsel_us));
  m->Set("core.gap_us", Median(gap_us));
  m->Set("numa.read_mb", Median(read_mb));
  m->Set("numa.written_mb", Median(written_mb));
  m->Set("numa.remote_pct", Median(remote_pct));
  m->Set("numa.max_link_pct", Median(max_link_pct));
}

void WriteSpans(const RunConfig& cfg, const SpanRecorder& spans) {
  const std::string path = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".spans.jsonl";
  if (spans.WriteJsonLines(path)) {
    std::printf("spans: %zu written to %s\n", spans.Snapshot().size(),
                path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace morsel::perfbench
