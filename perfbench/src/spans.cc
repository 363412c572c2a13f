#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace morsel::perfbench {

int64_t SelfMicros(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (const Span& c : children) {
    int64_t a = std::max(c.start_us, span.start_us);
    int64_t b = std::min(c.end_us, span.end_us);
    if (a < b) cover.emplace_back(a, b);
  }
  std::sort(cover.begin(), cover.end());
  int64_t covered = 0, run_start = 0, run_end = -1;
  for (const auto& [a, b] : cover) {
    if (run_end < a) {
      if (run_end > run_start) covered += run_end - run_start;
      run_start = a;
      run_end = b;
    } else {
      run_end = std::max(run_end, b);
    }
  }
  if (run_end > run_start) covered += run_end - run_start;
  return (span.end_us - span.start_us) - covered;
}

int64_t SpanRecorder::NextId() {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

int64_t SpanRecorder::Add(Span span) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  if (span.id < 0) span.id = next_id_++;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::AddChild(const Span& parent, const char* name,
                            int64_t start_us, int64_t end_us) {
  Span s;
  s.parent = parent.id;
  s.request = parent.request;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  Add(std::move(s));
}

std::vector<Span> SpanRecorder::AttachMorsels(
    const Span& parent, const std::vector<TraceEvent>& events) {
  std::vector<Span> kids;
  if (!enabled_) return kids;
  std::lock_guard<std::mutex> lock(mu_);
  for (const TraceEvent& e : events) {
    if (e.start_us < parent.start_us || e.start_us >= parent.end_us) continue;
    Span s;
    s.id = next_id_++;
    s.parent = parent.id;
    s.request = parent.request;
    s.name = "morsel";
    s.start_us = e.start_us;
    s.end_us = e.end_us;
    s.worker = e.worker;
    s.stolen = e.stolen;
    spans_.push_back(s);
    kids.push_back(std::move(s));
  }
  return kids;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::unordered_map<int64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(s);
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static const std::vector<Span> kNone;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    const int64_t self = SelfMicros(s, it == children.end() ? kNone : it->second);
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"request\":%lld,"
                 "\"name\":\"%s\",\"start_us\":%lld,\"end_us\":%lld,"
                 "\"self_us\":%lld,\"worker\":%d,\"stolen\":%s}\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us),
                 static_cast<long long>(self), s.worker,
                 s.stolen ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

}  // namespace morsel::perfbench
