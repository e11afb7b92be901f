#ifndef NERGLOB_COMMON_SCRATCH_ARENA_H_
#define NERGLOB_COMMON_SCRATCH_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "tensor/matrix.h"

// Header-only on purpose: ScratchArena hands out Matrix slots, and the
// tensor library already links against nerglob_common — a scratch_arena.cc
// inside nerglob_common would invert that dependency.

namespace nerglob::common {

/// A bump allocator of reusable Matrix slots for inference: it backs
/// ag::NoGradScope and the pipeline stages' own scratch matrices.
///
/// Ownership rules (see DESIGN.md "Scratch arena"):
///   * One arena per thread (use ThreadLocal()); arenas are not
///     thread-safe and never shared across threads.
///   * Matrices returned by Get() are owned by the arena and valid until
///     the enclosing ScratchFrame is destroyed (frames restore the bump
///     mark, so nested calls compose like a stack). Never retain an arena
///     matrix past the frame — copy into a caller-owned Matrix for
///     anything that outlives the call (sentence embeddings, mention
///     embeddings, model outputs).
///   * Get() contents are unspecified; every kernel writing into a slot
///     must cover the full extent (all *Into kernels do).
///
/// Steady-state behaviour: each slot keeps its high-water buffer, so once
/// a stream has exercised its peak shapes every Get() is a pointer bump
/// plus a capacity-satisfied Reshape — zero heap allocations. Growth
/// events (new slots or capacity growth) are counted per arena and
/// published to the metrics registry:
///   arena.heap_allocs_total   counter, allocation events across arenas
///   arena.high_water_bytes    gauge, peak bytes reserved by one arena
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// A rows x cols matrix backed by the next slot. Contents unspecified.
  Matrix* Get(size_t rows, size_t cols) {
    if (used_ == slots_.size()) {
      slots_.emplace_back(std::make_unique<Matrix>());
      RecordAlloc(0);
    }
    Matrix* m = slots_[used_++].get();
    const size_t before = m->capacity();
    m->Reshape(rows, cols);
    if (m->capacity() > before) {
      RecordAlloc((m->capacity() - before) * sizeof(float));
    }
    return m;
  }

  /// Get() followed by zero-fill (for kernels that accumulate).
  Matrix* GetZero(size_t rows, size_t cols) {
    Matrix* m = Get(rows, cols);
    m->Zero();
    return m;
  }

  /// Number of slots currently handed out (the bump mark).
  size_t depth() const { return used_; }

  /// Releases every outstanding slot (capacity is kept). Prefer
  /// ScratchFrame, which restores the mark on scope exit.
  void Reset() { used_ = 0; }

  /// Allocation events this arena has performed (slot creations plus
  /// buffer growths). Flat at steady state — the "0 heap allocations per
  /// message" acceptance metric is a zero delta of this counter.
  uint64_t heap_allocs() const { return heap_allocs_; }

  /// Bytes currently reserved across all slots of this arena.
  size_t reserved_bytes() const { return reserved_bytes_; }

  /// The calling thread's arena (created on first use).
  static ScratchArena& ThreadLocal() {
    thread_local ScratchArena arena;
    return arena;
  }

 private:
  friend class ScratchFrame;

  void RecordAlloc(size_t grown_bytes) {
    ++heap_allocs_;
    reserved_bytes_ += grown_bytes;
    if (!metrics::Enabled()) return;
    // Handles resolve once per process; the hot path above touches them
    // only on growth events, which stop once the stream reaches its peak
    // shapes.
    static metrics::Counter* const allocs =
        metrics::MetricsRegistry::Global().GetCounter("arena.heap_allocs_total");
    static metrics::Gauge* const high_water =
        metrics::MetricsRegistry::Global().GetGauge("arena.high_water_bytes");
    allocs->Increment();
    high_water->SetMax(static_cast<double>(reserved_bytes_));
  }

  std::vector<std::unique_ptr<Matrix>> slots_;
  size_t used_ = 0;
  uint64_t heap_allocs_ = 0;
  size_t reserved_bytes_ = 0;
};

/// RAII bump mark: slots acquired through (or after) the frame are
/// released when it goes out of scope. Frames nest like a call stack.
class ScratchFrame {
 public:
  explicit ScratchFrame(ScratchArena* arena)
      : arena_(arena), mark_(arena->used_) {}
  ScratchFrame(const ScratchFrame&) = delete;
  ScratchFrame& operator=(const ScratchFrame&) = delete;
  ~ScratchFrame() { arena_->used_ = mark_; }

  Matrix* Get(size_t rows, size_t cols) { return arena_->Get(rows, cols); }
  Matrix* GetZero(size_t rows, size_t cols) { return arena_->GetZero(rows, cols); }
  ScratchArena* arena() const { return arena_; }

 private:
  ScratchArena* arena_;
  size_t mark_;
};

}  // namespace nerglob::common

#endif  // NERGLOB_COMMON_SCRATCH_ARENA_H_
