#ifndef MORSELDB_CORE_QUERY_CONTEXT_H_
#define MORSELDB_CORE_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/fault_injector.h"
#include "common/memory_tracker.h"
#include "common/query_status.h"

namespace morsel {

// Per-query state shared by the dispatcher, workers and the QEP object.
//
// Elasticity (§3.1): `max_workers` caps the number of workers
// concurrently running this query's morsels and may be changed at any
// time — the change takes effect at the next morsel boundary. `priority`
// weights the dispatcher's fair-share choice between concurrent queries.
//
// Cancellation (§3.2): setting `cancelled` makes the dispatcher stop
// handing out this query's morsels; in-flight morsels finish normally
// ("the marker is checked whenever a morsel of that query is finished"),
// letting every worker clean up instead of being killed — and long jobs
// additionally poll ExecContext::CheckInterrupt() at chunk granularity
// so a cancel lands within a chunk, not a whole partition-sized morsel.
//
// Errors are structured (QueryStatus, first-wins) and *imply* Cancel:
// once any worker errors, the dispatcher stops handing out the query's
// morsels immediately and the QEP drains.
class QueryContext {
 public:
  explicit QueryContext(int id, double priority = 1.0)
      : id_(id), priority_(priority) {}

  int id() const { return id_; }
  // Priority may be re-weighted mid-execution (§3.1) while workers read
  // it in the fair-share pick; relaxed atomics make the torn-read free.
  double priority() const {
    return priority_.load(std::memory_order_relaxed);
  }
  void set_priority(double p) {
    priority_.store(p, std::memory_order_relaxed);
  }

  int max_workers() const {
    return max_workers_.load(std::memory_order_relaxed);
  }
  void set_max_workers(int n) {
    max_workers_.store(n, std::memory_order_relaxed);
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  // Workers currently executing a morsel of this query.
  std::atomic<int>& active_workers() { return active_workers_; }

  // Worker-local state slots each pipeline job allocates (pool size + 1
  // for the submitting thread). Set by the engine before execution.
  int num_worker_slots() const { return num_worker_slots_; }
  void set_num_worker_slots(int n) { num_worker_slots_ = n; }

  // --- completion signalling -------------------------------------------
  void MarkDone() {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
  }

  // Bounded wait; true iff the query finished within `timeout`.
  template <typename Rep, typename Period>
  bool WaitFor(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return done_; });
  }

  bool done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

  // --- structured errors (fail-fast) -----------------------------------
  // First non-ok status wins; setting it cancels the query so the
  // dispatcher stops handing out its morsels at the next pick.
  void SetError(QueryStatus status) {
    if (status.ok()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (status_.ok()) status_ = std::move(status);
    }
    errored_.store(true, std::memory_order_relaxed);
    Cancel();
  }
  void SetError(const std::string& msg) {
    SetError(QueryStatus::Internal(msg));
  }
  QueryStatus status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }
  // Lock-free probe for the hot completion paths: true iff SetError ran.
  bool has_error() const {
    return errored_.load(std::memory_order_relaxed);
  }
  // Legacy accessor: the status message ("" when ok).
  std::string error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return status_.message;
  }

  // --- deadline ---------------------------------------------------------
  // Absolute steady-clock deadline in ns (0 = none). Enforced by the
  // dispatcher at morsel hand-out and by CheckInterrupt inside long jobs.
  void SetDeadline(std::chrono::steady_clock::time_point tp) {
    deadline_ns_.store(tp.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }
  bool DeadlineExpired() const {
    int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    return d != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= d;
  }

  // --- resource governance ---------------------------------------------
  MemoryTracker& memory_tracker() { return memory_tracker_; }
  const MemoryTracker& memory_tracker() const { return memory_tracker_; }
  // Must be set before Start (workers read the budget unsynchronized).
  void set_memory_budget(int64_t bytes) {
    memory_tracker_.set_budget(bytes);
  }

  FaultInjector* fault_injector() { return fault_injector_.get(); }
  void set_fault_injector(std::unique_ptr<FaultInjector> fi) {
    fault_injector_ = std::move(fi);
  }

  // --- aggregated per-query scheduling stats ---------------------------
  std::atomic<uint64_t> morsels_run{0};
  std::atomic<uint64_t> morsels_stolen{0};

 private:
  int id_;
  std::atomic<double> priority_;
  std::atomic<int> max_workers_{std::numeric_limits<int>::max()};
  std::atomic<bool> cancelled_{false};
  std::atomic<int> active_workers_{0};
  int num_worker_slots_ = 1;
  std::atomic<int64_t> deadline_ns_{0};
  MemoryTracker memory_tracker_{0};
  std::unique_ptr<FaultInjector> fault_injector_;

  std::atomic<bool> errored_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  QueryStatus status_;
};

}  // namespace morsel

#endif  // MORSELDB_CORE_QUERY_CONTEXT_H_
