#ifndef MORSELDB_EXEC_PIPELINE_H_
#define MORSELDB_EXEC_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/morsel.h"
#include "core/pipeline_job.h"
#include "exec/chunk.h"
#include "exec/exec_context.h"
#include "numa/topology.h"

namespace morsel {

class Pipeline;

// Produces the chunks of one morsel and pushes them through the pipeline.
// Also declares the morsel ranges the scheduler cuts work from
// ("storage area boundaries ... segmented into morsels on demand", §3.2).
class Source {
 public:
  virtual ~Source() = default;
  virtual std::vector<MorselRange> MakeRanges(const Topology& topo) = 0;
  virtual void RunMorsel(const Morsel& m, Pipeline& pipeline,
                         ExecContext& ctx) = 0;
  // Optional runtime annotation for ExplainPlan, read once by the
  // job's Finalize (e.g. the scan's zone-map skip tally). Empty = none.
  virtual std::string RuntimeInfo() const { return std::string(); }
};

// An intra-pipeline operator. Receives an input chunk and pushes zero or
// more output chunks to the remainder of the pipeline via
// pipeline.Push(out, self_index + 1, ctx) — the push interface lets
// expanding operators (hash-join probe) emit multiple chunks per input.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual void Process(Chunk& chunk, ExecContext& ctx, Pipeline& pipeline,
                       int self_index) = 0;
};

// Terminal consumer of a pipeline — the pipeline breaker's materializing
// side (hash-table build, pre-aggregation, sort run, result buffer).
// Consume() runs concurrently; implementations keep worker-local state
// indexed by ctx.worker->worker_id and need no locking.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void Consume(Chunk& chunk, ExecContext& ctx) = 0;
  // Single-threaded post-pass after the last morsel of the pipeline.
  virtual void Finalize(ExecContext& ctx) { (void)ctx; }
  // Cardinality this breaker stage hands its downstream consumer, when
  // the sink knows better than "rows consumed" (e.g. the
  // pre-aggregation sink reports its group estimate instead of its
  // input rows). -1 = no override; the job then publishes the consumed
  // row count. Called once, after Finalize.
  virtual int64_t RowsProduced() const { return -1; }
  // Optional runtime annotation for ExplainPlan, read once by the job's
  // Finalize after the sink finalized — the sink-side mirror of
  // Source::RuntimeInfo (e.g. the phase-1 aggregation's adaptive-mode
  // report). Empty = none.
  virtual std::string RuntimeInfo() const { return std::string(); }
};

// Source -> ops -> sink. The executable form of one of the paper's
// pipeline segments: each chunk runs op by op through one tight push
// chain (DESIGN §15), and every chunk a source pushes passes one
// interrupt checkpoint (DESIGN §11).
class Pipeline {
 public:
  Pipeline(std::unique_ptr<Source> source,
           std::vector<std::unique_ptr<Operator>> ops, Sink* sink)
      : source_(std::move(source)), ops_(std::move(ops)), sink_(sink) {}

  Source* source() const { return source_.get(); }
  Sink* sink() const { return sink_; }

  // Pushes a chunk through ops [from_op ..] and finally the sink.
  void Push(Chunk& chunk, size_t from_op, ExecContext& ctx) {
    if (chunk.ActiveRows() == 0) return;
    if (from_op == 0) ctx.CheckInterrupt();
    if (from_op == ops_.size()) {
      ctx.rows_to_sink += chunk.ActiveRows();
      sink_->Consume(chunk, ctx);
      return;
    }
    ops_[from_op]->Process(chunk, ctx, *this, static_cast<int>(from_op));
  }

 private:
  std::unique_ptr<Source> source_;
  std::vector<std::unique_ptr<Operator>> ops_;
  Sink* sink_;
};

// PipelineJob binding a Pipeline to the scheduler: builds the morsel
// queue from the source's ranges, runs the pipeline per morsel with a
// per-worker ExecContext, and finalizes the sink.
class ExecPipelineJob : public PipelineJob {
 public:
  ExecPipelineJob(QueryContext* query, std::string name,
                  std::unique_ptr<Pipeline> pipeline,
                  MorselQueue::Options queue_opts, bool use_tagging,
                  int static_division_workers = 0,
                  bool selection_vectors = true);

  void Prepare(const Topology& topo) override;
  void RunMorsel(const Morsel& m, WorkerContext& wctx) override;
  void Finalize(WorkerContext& wctx) override;

  Pipeline* pipeline() const { return pipeline_.get(); }

 private:
  ExecContext& LocalContext(WorkerContext& wctx);

  std::unique_ptr<Pipeline> pipeline_;
  MorselQueue::Options queue_opts_;
  bool use_tagging_;
  bool selection_vectors_;
  // Volcano emulation (§5.4): morsel size forced to ceil(n / workers).
  int static_division_workers_;
  std::vector<std::unique_ptr<ExecContext>> contexts_;
};

}  // namespace morsel

#endif  // MORSELDB_EXEC_PIPELINE_H_
