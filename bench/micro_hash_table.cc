// Supporting micro benchmarks for §4.2: the lock-free tagged hash table.
//
//  - insert throughput, single- and multi-threaded (CAS scalability)
//  - probe cost with and without pointer tags at varying selectivity
//    (tags should make misses ~free)
//  - ablation: two-phase perfectly-sized build vs a dynamically grown
//    chaining table (the design §4.1 argues against)
//  - probe-pipeline throughput of the full, staged batched+prefetched
//    HashProbeOp (DESIGN.md §5), on a build side that far exceeds LLC
//    size
//  - sel-aware probe vs compact-then-probe (DESIGN.md §10/§15): chunks
//    arriving with a sparse selection (~6% of rows survive an upstream
//    filter), probed in place through the selection vs gather-compacted
//    first. The sel arm must win: compaction touches every payload
//    column for rows the probe is about to consume anyway.

#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "exec/hash_join.h"
#include "exec/tagged_hash_table.h"
#include "exec/tuple.h"
#include "numa/mem_stats.h"
#include "numa/topology.h"

namespace morsel {
namespace {

constexpr int64_t kBuildSize = 1 << 18;  // 256k tuples

struct BuildSide {
  TupleLayout layout;
  RowBuffer rows;
  BuildSide()
      : layout({LogicalType::kInt64}, false), rows(&layout, 0) {
    for (int64_t i = 0; i < kBuildSize; ++i) {
      uint8_t* r = rows.AppendRow();
      TupleLayout::SetNext(r, nullptr);
      TupleLayout::SetHash(r, Hash64(static_cast<uint64_t>(i)));
      layout.SetI64(r, 0, i);
    }
  }
};

BuildSide& SharedBuild() {
  static BuildSide* b = new BuildSide();
  return *b;
}

void BM_InsertSingleThread(benchmark::State& state) {
  BuildSide& b = SharedBuild();
  for (auto _ : state) {
    TaggedHashTable ht(kBuildSize);
    for (int64_t i = 0; i < kBuildSize; ++i) {
      uint8_t* r = b.rows.row(i);
      ht.Insert(r, TupleLayout::GetHash(r));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBuildSize);
}
BENCHMARK(BM_InsertSingleThread)->Unit(benchmark::kMillisecond);

void BM_InsertParallel(benchmark::State& state) {
  BuildSide& b = SharedBuild();
  int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TaggedHashTable ht(kBuildSize);
    std::vector<std::thread> ts;
    int64_t per = kBuildSize / threads;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        int64_t begin = t * per;
        int64_t end = t == threads - 1 ? kBuildSize : begin + per;
        for (int64_t i = begin; i < end; ++i) {
          uint8_t* r = b.rows.row(i);
          ht.Insert(r, TupleLayout::GetHash(r));
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  state.SetItemsProcessed(state.iterations() * kBuildSize);
}
BENCHMARK(BM_InsertParallel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Probe with a given hit rate; tags should short-circuit the misses.
void ProbeBench(benchmark::State& state, bool use_tagging) {
  BuildSide& b = SharedBuild();
  static TaggedHashTable* ht = [] {
    BuildSide& bs = SharedBuild();
    auto* t = new TaggedHashTable(kBuildSize);
    for (int64_t i = 0; i < kBuildSize; ++i) {
      uint8_t* r = bs.rows.row(i);
      t->Insert(r, TupleLayout::GetHash(r));
    }
    return t;
  }();
  double hit_rate = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(7);
  std::vector<uint64_t> probes;
  for (int i = 0; i < 1 << 16; ++i) {
    int64_t key = rng.Bernoulli(hit_rate)
                      ? rng.Uniform(0, kBuildSize - 1)
                      : kBuildSize + rng.Uniform(0, 1 << 20);
    probes.push_back(Hash64(static_cast<uint64_t>(key)));
  }
  int64_t found = 0;
  for (auto _ : state) {
    for (uint64_t h : probes) {
      uint8_t* t = ht->LookupHead(h, use_tagging);
      while (t != nullptr) {
        if (TupleLayout::GetHash(t) == h) {
          ++found;
          break;
        }
        t = TupleLayout::GetNext(t);
      }
    }
  }
  benchmark::DoNotOptimize(found);
  benchmark::DoNotOptimize(b);
  state.SetItemsProcessed(state.iterations() * probes.size());
}
void BM_ProbeTagged(benchmark::State& state) { ProbeBench(state, true); }
void BM_ProbeUntagged(benchmark::State& state) { ProbeBench(state, false); }
BENCHMARK(BM_ProbeTagged)->Arg(100)->Arg(50)->Arg(10)->Arg(1);
BENCHMARK(BM_ProbeUntagged)->Arg(100)->Arg(50)->Arg(10)->Arg(1);

// Ablation: the §4.2 alternative — a separate Bloom filter in front of an
// untagged table. "A Bloom filter is an additional data structure that
// incurs multiple reads ... the Bloom filter size must be proportional to
// the hash table size to be effective." The tag rides in the pointer word
// instead and costs nothing extra.
class BloomFilter {
 public:
  explicit BloomFilter(uint64_t n) {
    uint64_t want = n * 16;  // ~16 bits/key
    bits_ = 1024;
    while (bits_ < want) bits_ <<= 1;
    words_.assign(bits_ / 64, 0);
  }
  void Add(uint64_t h) {
    words_[(h >> 6) & (words_.size() - 1)] |= 1ull << (h & 63);
    uint64_t h2 = h * 0x9e3779b97f4a7c15ULL;
    words_[(h2 >> 6) & (words_.size() - 1)] |= 1ull << (h2 & 63);
  }
  bool MayContain(uint64_t h) const {
    if (!(words_[(h >> 6) & (words_.size() - 1)] & (1ull << (h & 63)))) {
      return false;
    }
    uint64_t h2 = h * 0x9e3779b97f4a7c15ULL;
    return words_[(h2 >> 6) & (words_.size() - 1)] & (1ull << (h2 & 63));
  }

 private:
  uint64_t bits_;
  std::vector<uint64_t> words_;
};

void BM_ProbeBloomFiltered(benchmark::State& state) {
  BuildSide& b = SharedBuild();
  static TaggedHashTable* ht = nullptr;
  static BloomFilter* bloom = nullptr;
  if (ht == nullptr) {
    ht = new TaggedHashTable(kBuildSize);
    bloom = new BloomFilter(kBuildSize);
    for (int64_t i = 0; i < kBuildSize; ++i) {
      uint8_t* r = b.rows.row(i);
      ht->Insert(r, TupleLayout::GetHash(r));
      bloom->Add(TupleLayout::GetHash(r));
    }
  }
  double hit_rate = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(7);
  std::vector<uint64_t> probes;
  for (int i = 0; i < 1 << 16; ++i) {
    int64_t key = rng.Bernoulli(hit_rate)
                      ? rng.Uniform(0, kBuildSize - 1)
                      : kBuildSize + rng.Uniform(0, 1 << 20);
    probes.push_back(Hash64(static_cast<uint64_t>(key)));
  }
  int64_t found = 0;
  for (auto _ : state) {
    for (uint64_t h : probes) {
      if (!bloom->MayContain(h)) continue;  // extra structure, extra reads
      uint8_t* t = ht->LookupHead(h, /*use_tagging=*/false);
      while (t != nullptr) {
        if (TupleLayout::GetHash(t) == h) {
          ++found;
          break;
        }
        t = TupleLayout::GetNext(t);
      }
    }
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations() * probes.size());
}
BENCHMARK(BM_ProbeBloomFiltered)->Arg(100)->Arg(50)->Arg(10)->Arg(1);

// --- probe-pipeline throughput: scalar vs batched ---------------------------
//
// Exercises the real HashProbeOp (key compare, candidate flush, payload
// gather, traffic accounting) against a build side far larger than any
// LLC, so every chain step is a memory access. This is the acceptance
// benchmark for the staged probe pipeline: batched must beat scalar.

constexpr int64_t kBigBuild = 1 << 23;  // 8M tuples, ~384 MB + 128 MB table

struct ProbePipelineFixture {
  Topology topo{1, 1, InterconnectKind::kFullyConnected};
  MemStatsRegistry stats{1};
  WorkerContext wctx;
  JoinState state{{LogicalType::kInt64, LogicalType::kInt64}, 1,
                  JoinKind::kInner, 1};
  std::vector<int64_t> probe_keys;

  ProbePipelineFixture() {
    wctx.topo = &topo;
    wctx.traffic = stats.worker(0);
    ExecContext ctx;
    ctx.worker = &wctx;

    HashBuildSink sink(&state);
    std::vector<int64_t> keys(kChunkCapacity), vals(kChunkCapacity);
    for (int64_t base = 0; base < kBigBuild; base += kChunkCapacity) {
      Chunk chunk;
      chunk.n = static_cast<int>(
          std::min<int64_t>(kChunkCapacity, kBigBuild - base));
      for (int i = 0; i < chunk.n; ++i) {
        keys[i] = base + i;
        vals[i] = (base + i) * 3;
      }
      chunk.cols = {Vector{LogicalType::kInt64, keys.data()},
                    Vector{LogicalType::kInt64, vals.data()}};
      sink.Consume(chunk, ctx);
    }
    sink.Finalize(ctx);
    RowBuffer* buf = state.buffer_by_index(0);
    for (int64_t i = 0; i < kBigBuild; ++i) {
      uint8_t* r = buf->row(i);
      state.table()->Insert(r, TupleLayout::GetHash(r));
    }

    // Probe keys shuffled across the whole key space at 50% hit rate:
    // cache-hostile, half the probes survive the tag filter.
    Rng rng(42);
    probe_keys.resize(1 << 18);
    for (auto& k : probe_keys) {
      k = rng.Bernoulli(0.5) ? rng.Uniform(0, kBigBuild - 1)
                             : kBigBuild + rng.Uniform(0, 1 << 24);
    }
  }
};

ProbePipelineFixture& SharedProbeFixture() {
  static ProbePipelineFixture* f = new ProbePipelineFixture();
  return *f;
}

struct CountRowsSink : Sink {
  int64_t rows = 0;
  void Consume(Chunk& c, ExecContext&) override { rows += c.n; }
};

void BM_ProbePipelineBatched(benchmark::State& state) {
  ProbePipelineFixture& f = SharedProbeFixture();
  ExecContext ctx;
  ctx.worker = &f.wctx;

  CountRowsSink sink;
  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(std::make_unique<HashProbeOp>(
      &f.state, std::vector<int>{0}, std::vector<int>{1}, nullptr));
  Pipeline pipe(nullptr, std::move(ops), &sink);

  const int64_t n = static_cast<int64_t>(f.probe_keys.size());
  for (auto _ : state) {
    for (int64_t base = 0; base < n; base += kChunkCapacity) {
      Chunk chunk;
      chunk.n = static_cast<int>(
          std::min<int64_t>(kChunkCapacity, n - base));
      chunk.cols = {Vector{LogicalType::kInt64, f.probe_keys.data() + base}};
      pipe.Push(chunk, 0, ctx);
      ctx.arena.Reset();  // morsel boundary
    }
  }
  benchmark::DoNotOptimize(sink.rows);
  state.SetItemsProcessed(state.iterations() * n);
}

BENCHMARK(BM_ProbePipelineBatched)->Unit(benchmark::kMillisecond);

// --- sel-aware probe vs compact-then-probe ----------------------------------
//
// An upstream filter has narrowed each chunk to every 16th row (~6%,
// the <=10% selectivity regime of the acceptance target). The sel arm
// hands HashProbeOp the chunk as is, so it hashes and probes only the
// selected rows in place; the compact arm models the pre-§15 hot path —
// gather-compact the key plus all four payload columns into the arena
// (GatherChunk), then probe dense. The build side is small enough to stay cache-resident so
// the per-chunk compaction cost is not hidden behind memory-bound chain
// walks (which is exactly where the eager engine was losing time).

constexpr int64_t kSmallBuild = 1 << 16;  // 64k tuples, LLC-resident

struct SelProbeFixture {
  Topology topo{1, 1, InterconnectKind::kFullyConnected};
  MemStatsRegistry stats{1};
  WorkerContext wctx;
  JoinState state{{LogicalType::kInt64, LogicalType::kInt64}, 1,
                  JoinKind::kInner, 1};
  std::vector<int64_t> keys;              // probe keys, 50% hit rate
  std::vector<std::vector<int64_t>> pay;  // 4 pass-through payload columns
  std::vector<int32_t> sel;               // every 16th physical index

  SelProbeFixture() {
    wctx.topo = &topo;
    wctx.traffic = stats.worker(0);
    ExecContext ctx;
    ctx.worker = &wctx;

    HashBuildSink sink(&state);
    std::vector<int64_t> bk(kChunkCapacity), bv(kChunkCapacity);
    for (int64_t base = 0; base < kSmallBuild; base += kChunkCapacity) {
      Chunk chunk;
      chunk.n = static_cast<int>(
          std::min<int64_t>(kChunkCapacity, kSmallBuild - base));
      for (int i = 0; i < chunk.n; ++i) {
        bk[i] = base + i;
        bv[i] = (base + i) * 3;
      }
      chunk.cols = {Vector{LogicalType::kInt64, bk.data()},
                    Vector{LogicalType::kInt64, bv.data()}};
      sink.Consume(chunk, ctx);
    }
    sink.Finalize(ctx);
    RowBuffer* buf = state.buffer_by_index(0);
    for (int64_t i = 0; i < kSmallBuild; ++i) {
      uint8_t* r = buf->row(i);
      state.table()->Insert(r, TupleLayout::GetHash(r));
    }

    Rng rng(9);
    keys.resize(1 << 18);  // multiple of kChunkCapacity: full chunks only
    for (auto& k : keys) {
      k = rng.Bernoulli(0.5) ? rng.Uniform(0, kSmallBuild - 1)
                             : kSmallBuild + rng.Uniform(0, 1 << 20);
    }
    pay.assign(4, std::vector<int64_t>(keys.size()));
    for (int c = 0; c < 4; ++c) {
      for (size_t i = 0; i < keys.size(); ++i) pay[c][i] = keys[i] * (c + 2);
    }
    for (int i = 0; i < kChunkCapacity; i += 16) {
      sel.push_back(i);
    }
  }
};

SelProbeFixture& SharedSelProbeFixture() {
  static SelProbeFixture* f = new SelProbeFixture();
  return *f;
}

void SelProbeBench(benchmark::State& state, bool compact_first) {
  SelProbeFixture& f = SharedSelProbeFixture();
  ExecContext ctx;
  ctx.worker = &f.wctx;

  CountRowsSink sink;
  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(std::make_unique<HashProbeOp>(
      &f.state, std::vector<int>{0}, std::vector<int>{1}, nullptr));
  Pipeline pipe(nullptr, std::move(ops), &sink);

  const int64_t n = static_cast<int64_t>(f.keys.size());
  for (auto _ : state) {
    for (int64_t base = 0; base < n; base += kChunkCapacity) {
      Chunk chunk;
      chunk.n = kChunkCapacity;
      chunk.cols = {Vector{LogicalType::kInt64, f.keys.data() + base},
                    Vector{LogicalType::kInt64, f.pay[0].data() + base},
                    Vector{LogicalType::kInt64, f.pay[1].data() + base},
                    Vector{LogicalType::kInt64, f.pay[2].data() + base},
                    Vector{LogicalType::kInt64, f.pay[3].data() + base}};
      chunk.sel = f.sel.data();
      chunk.sel_n = static_cast<int>(f.sel.size());
      if (compact_first) {
        Chunk dense;
        GatherChunk(chunk, chunk.sel, chunk.sel_n, &ctx.arena, &dense);
        pipe.Push(dense, 0, ctx);
      } else {
        pipe.Push(chunk, 0, ctx);
      }
      ctx.arena.Reset();  // morsel boundary
    }
  }
  benchmark::DoNotOptimize(sink.rows);
  // Rows the probe actually consumes, not the pre-filter chunk width.
  state.SetItemsProcessed(state.iterations() * (n / 16));
}

void BM_ProbePipelineSelChain(benchmark::State& state) {
  SelProbeBench(state, /*compact_first=*/false);
}
void BM_ProbePipelineCompactChain(benchmark::State& state) {
  SelProbeBench(state, /*compact_first=*/true);
}
BENCHMARK(BM_ProbePipelineSelChain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProbePipelineCompactChain)->Unit(benchmark::kMillisecond);

// Ablation: growing a standard chaining map while inserting, vs. the
// two-phase materialize-then-perfect-size build above.
void BM_DynamicGrowBaseline(benchmark::State& state) {
  for (auto _ : state) {
    std::unordered_map<uint64_t, int64_t> map;
    for (int64_t i = 0; i < kBuildSize; ++i) {
      map.emplace(Hash64(static_cast<uint64_t>(i)), i);
    }
    benchmark::DoNotOptimize(map);
  }
  state.SetItemsProcessed(state.iterations() * kBuildSize);
}
BENCHMARK(BM_DynamicGrowBaseline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace morsel

BENCHMARK_MAIN();
