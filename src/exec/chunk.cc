#include "exec/chunk.h"

#include "numa/allocator.h"

namespace morsel {

Arena::~Arena() {
  for (Block& b : blocks_) NumaFree(b.data, b.size);
}

void* Arena::Alloc(size_t bytes) {
  bytes = (bytes + 15) & ~size_t{15};  // 16-byte alignment for all types
  while (true) {
    if (current_ < blocks_.size()) {
      Block& b = blocks_[current_];
      if (offset_ + bytes <= b.size) {
        void* p = b.data + offset_;
        offset_ += bytes;
        used_ += bytes;
        return p;
      }
      ++current_;
      offset_ = 0;
      continue;
    }
    size_t size = bytes > kBlockSize ? bytes : kBlockSize;
    blocks_.push_back(
        Block{static_cast<char*>(NumaAlloc(size, 0)), size});
    // Loop retries with the fresh block as `current_`.
  }
}

void Arena::Reset() {
  current_ = 0;
  offset_ = 0;
  used_ = 0;
}

Vector GatherVector(const Vector& v, const int32_t* idx, int count,
                    Arena* arena) {
  Vector out;
  out.type = v.type;
  switch (v.type) {
    case LogicalType::kInt32: {
      int32_t* d = arena->AllocArray<int32_t>(count);
      const int32_t* s = v.i32();
      for (int i = 0; i < count; ++i) d[i] = s[idx[i]];
      out.data = d;
      break;
    }
    case LogicalType::kInt64: {
      int64_t* d = arena->AllocArray<int64_t>(count);
      const int64_t* s = v.i64();
      for (int i = 0; i < count; ++i) d[i] = s[idx[i]];
      out.data = d;
      break;
    }
    case LogicalType::kDouble: {
      double* d = arena->AllocArray<double>(count);
      const double* s = v.f64();
      for (int i = 0; i < count; ++i) d[i] = s[idx[i]];
      out.data = d;
      break;
    }
    case LogicalType::kString: {
      auto* d = arena->AllocArray<std::string_view>(count);
      const std::string_view* s = v.str();
      for (int i = 0; i < count; ++i) d[i] = s[idx[i]];
      out.data = d;
      break;
    }
  }
  return out;
}

void GatherChunk(const Chunk& in, const int32_t* idx, int count,
                 Arena* arena, Chunk* out) {
  out->n = count;
  out->sel = nullptr;
  out->sel_n = 0;
  out->cols.resize(in.cols.size());
  for (size_t c = 0; c < in.cols.size(); ++c) {
    out->cols[c] = GatherVector(in.cols[c], idx, count, arena);
  }
}

}  // namespace morsel
