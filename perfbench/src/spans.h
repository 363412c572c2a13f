#ifndef MORSELDB_PERFBENCH_SPANS_H_
#define MORSELDB_PERFBENCH_SPANS_H_

// The benchmark's own trace: one span per call into a layer's public
// functions, recorded from outside the program. Spans are kept in
// memory and written out once, when the run ends.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/trace.h"

namespace morsel::perfbench {

struct Span {
  int64_t id = -1;       // -1: SpanRecorder::Add assigns one
  int64_t parent = -1;   // -1: a root span
  int64_t request = -1;  // spans of one request share this id
  std::string name;
  int64_t start_us = 0;  // WallTimer::NowMicros() clock
  int64_t end_us = 0;
  int worker = -1;       // engine morsel events: the worker that ran it
  bool stolen = false;
};

// Microseconds of [span.start_us, span.end_us) that no child covers.
// Children may overlap each other (morsels run on several workers at
// once); overlapping coverage counts once.
int64_t SelfMicros(const Span& span, const std::vector<Span>& children);

// Thread-safe append-only span store. Disabled recorders make every
// call a no-op, so untraced runs pay nothing beyond a branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Records a finished span and returns its id (-1 when disabled).
  int64_t Add(Span span);
  // Reserves an id for a span whose children are recorded before it.
  int64_t NextId();

  // Records a child of `parent` named `name` over [start_us, end_us).
  void AddChild(const Span& parent, const char* name, int64_t start_us,
                int64_t end_us);

  // Attaches the engine's per-morsel events to the span `parent` that
  // encloses them: every event of `events` starting in
  // [parent.start_us, parent.end_us) becomes a "morsel" child. Returns
  // the children it recorded.
  std::vector<Span> AttachMorsels(const Span& parent,
                                  const std::vector<TraceEvent>& events);

  std::vector<Span> Snapshot() const;

  // Writes one JSON object per line with self time filled in; returns
  // false if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  int64_t next_id_ = 0;
};

}  // namespace morsel::perfbench

#endif  // MORSELDB_PERFBENCH_SPANS_H_
