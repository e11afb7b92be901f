#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "tensor/kernels.h"

namespace nerglob {

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    NERGLOB_CHECK_EQ(rows[r].size(), m.cols_) << "ragged rows in FromRows";
    std::copy(rows[r].begin(), rows[r].end(), m.Row(r));
  }
  return m;
}

Matrix Matrix::RowVector(const std::vector<float>& values) {
  Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data());
  return m;
}

Matrix Matrix::Randn(size_t rows, size_t cols, float stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = stddev * static_cast<float>(rng->NextGaussian());
  return m;
}

Matrix Matrix::RandUniform(size_t rows, size_t cols, float limit, Rng* rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng->NextFloat(-limit, limit);
  return m;
}

void Matrix::Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::AddInPlace(const Matrix& other) {
  NERGLOB_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  kern::Active().add_inplace(data_.data(), other.data_.data(), data_.size());
}

void Matrix::Axpy(float alpha, const Matrix& other) {
  NERGLOB_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  kern::Active().axpy(alpha, other.data_.data(), data_.data(), data_.size());
}

void Matrix::Scale(float alpha) {
  kern::Active().scale(data_.data(), alpha, data_.size());
}

void Matrix::Apply(const std::function<float(float)>& fn) {
  for (auto& v : data_) v = fn(v);
}

float Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float Matrix::Sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

namespace {

/// Cache-blocked transpose: 32x32 tiles keep both the source rows and the
/// destination rows resident while a tile is copied, instead of streaming
/// the whole destination once per source row. Pure data movement — no
/// floating-point — so blocking cannot change results.
constexpr size_t kTransposeTile = 32;

void TransposeBlocked(const float* src, size_t rows, size_t cols, float* dst) {
  for (size_t rb = 0; rb < rows; rb += kTransposeTile) {
    const size_t rend = std::min(rows, rb + kTransposeTile);
    for (size_t cb = 0; cb < cols; cb += kTransposeTile) {
      const size_t cend = std::min(cols, cb + kTransposeTile);
      for (size_t r = rb; r < rend; ++r) {
        const float* srow = src + r * cols;
        for (size_t c = cb; c < cend; ++c) dst[c * rows + r] = srow[c];
      }
    }
  }
}

}  // namespace

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  TransposeBlocked(data_.data(), rows_, cols_, out.data());
  return out;
}

Matrix Matrix::SliceRows(size_t begin, size_t count) const {
  NERGLOB_CHECK_LE(begin + count, rows_);
  Matrix out(count, cols_);
  std::copy(Row(begin), Row(begin) + count * cols_, out.data());
  return out;
}

std::string Matrix::DebugString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")[";
  for (size_t r = 0; r < rows_ && r < static_cast<size_t>(max_rows); ++r) {
    os << (r == 0 ? "[" : " [");
    for (size_t c = 0; c < cols_ && c < static_cast<size_t>(max_cols); ++c) {
      if (c > 0) os << ", ";
      os << At(r, c);
    }
    if (cols_ > static_cast<size_t>(max_cols)) os << ", ...";
    os << "]";
  }
  if (rows_ > static_cast<size_t>(max_rows)) os << " ...";
  os << "]";
  return os.str();
}

namespace {

/// Minimum m*n*k before MatMul splits rows over the thread pool. Below
/// this the dispatch overhead dominates; above it each task amortizes.
constexpr size_t kGemmParallelFlops = size_t{1} << 21;

/// GEMM observability slots, resolved once. Multiply-add counts as two
/// flops (the convention Table IV-style throughput numbers expect).
struct GemmMetrics {
  metrics::Counter* calls;
  metrics::Counter* parallel_calls;
  metrics::Counter* flops;
  metrics::Histogram* wall;

  static const GemmMetrics& Get() {
    static const GemmMetrics m = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      return GemmMetrics{registry.GetCounter("gemm.calls_total"),
                         registry.GetCounter("gemm.parallel_calls_total"),
                         registry.GetCounter("gemm.flops_total"),
                         registry.GetHistogram("gemm.wall_seconds")};
    }();
    return m;
  }
};

/// Shared instrumented GEMM entry: both the allocating wrappers and the
/// *Into variants land here, so gemm.* metrics stay complete regardless of
/// which surface a caller uses. Row panels run through the dispatched
/// kernel table (tensor/kernels.h); the per-element ascending-k
/// accumulation makes any row partition and any SIMD tier bit-identical.
void GemmInto(const Matrix& a, const Matrix& b, const float* bias,
              Matrix* out) {
  NERGLOB_CHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch";
  out->Reshape(a.rows(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  const size_t flops = m * k * n;
  const kern::KernelTable& kt = kern::Active();
  // One relaxed flag load when disabled; the clock reads only happen when
  // metrics are on (small GEMMs run in ~1us, so an unconditional steady
  // clock read would be measurable).
  const bool record = metrics::Enabled();
  MonotonicClock::time_point start;
  if (record) start = MonotonicClock::now();
  const bool parallel = m >= 2 && flops >= kGemmParallelFlops && Parallelism() > 1;
  const float* adata = a.data();
  const float* bdata = b.data();
  float* odata = out->data();
  if (parallel) {
    const size_t per_row = std::max<size_t>(k * n, 1);
    const size_t grain = std::max<size_t>(1, kGemmParallelFlops / per_row);
    ParallelForRange(0, m, grain, [&](size_t begin, size_t end) {
      kt.gemm_rows(adata, k, bdata, n, bias, odata, n, begin, end, k, n);
    });
  } else {
    kt.gemm_rows(adata, k, bdata, n, bias, odata, n, 0, m, k, n);
  }
  if (record) {
    const GemmMetrics& gm = GemmMetrics::Get();
    gm.calls->Increment();
    if (parallel) gm.parallel_calls->Increment();
    gm.flops->Increment(2 * flops);
    gm.wall->Observe(
        std::chrono::duration<double>(MonotonicClock::now() - start).count());
  }
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  GemmInto(a, b, /*bias=*/nullptr, &out);
  return out;
}

Matrix MatMulAddBias(const Matrix& a, const Matrix& b, const Matrix& bias) {
  NERGLOB_CHECK_EQ(bias.rows(), 1u);
  NERGLOB_CHECK_EQ(bias.cols(), b.cols());
  Matrix out;
  GemmInto(a, b, bias.Row(0), &out);
  return out;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  GemmInto(a, b, /*bias=*/nullptr, out);
}

void MatMulAddBiasInto(const Matrix& a, const Matrix& b, const Matrix& bias,
                       Matrix* out) {
  NERGLOB_CHECK_EQ(bias.rows(), 1u);
  NERGLOB_CHECK_EQ(bias.cols(), b.cols());
  GemmInto(a, b, bias.Row(0), out);
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  NERGLOB_CHECK_EQ(a.rows(), b.rows()) << "MatMulTransA shape mismatch";
  Matrix out(a.cols(), b.cols());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (size_t p = 0; p < k; ++p) {
    const float* arow = a.Row(p);
    const float* brow = b.Row(p);
    for (size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* orow = out.Row(i);
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  NERGLOB_CHECK_EQ(a.cols(), b.cols()) << "MatMulTransB shape mismatch";
  Matrix out(a.rows(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.Row(i);
    float* orow = out.Row(i);
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b.Row(j);
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) acc += static_cast<double>(arow[p]) * brow[p];
      orow[j] = static_cast<float>(acc);
    }
  }
  return out;
}

Matrix Mul(const Matrix& a, const Matrix& b) {
  NERGLOB_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] * b.data()[i];
  return out;
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& bias) {
  NERGLOB_CHECK_EQ(bias.rows(), 1u);
  NERGLOB_CHECK_EQ(bias.cols(), a.cols());
  Matrix out = a;
  for (size_t r = 0; r < a.rows(); ++r) {
    float* row = out.Row(r);
    const float* b = bias.Row(0);
    for (size_t c = 0; c < a.cols(); ++c) row[c] += b[c];
  }
  return out;
}

Matrix SoftmaxRows(const Matrix& a) {
  Matrix out;
  SoftmaxRowsInto(a, &out);
  return out;
}

Matrix LogSoftmaxRows(const Matrix& a) {
  Matrix out;
  LogSoftmaxRowsInto(a, &out);
  return out;
}

void SoftmaxRowsInto(const Matrix& a, Matrix* out) {
  const kern::KernelTable& kt = kern::Active();
  const size_t rows = a.rows(), cols = a.cols();
  if (out != &a) out->Reshape(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    kt.softmax_row(a.Row(r), out->Row(r), cols);
  }
}

void LogSoftmaxRowsInto(const Matrix& a, Matrix* out) {
  const kern::KernelTable& kt = kern::Active();
  const size_t rows = a.rows(), cols = a.cols();
  if (out != &a) out->Reshape(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    kt.logsoftmax_row(a.Row(r), out->Row(r), cols);
  }
}

Matrix RowL2Norms(const Matrix& a) {
  Matrix out(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* row = a.Row(r);
    double acc = 0.0;
    for (size_t c = 0; c < a.cols(); ++c) acc += static_cast<double>(row[c]) * row[c];
    out.At(r, 0) = static_cast<float>(std::sqrt(acc));
  }
  return out;
}

float VecDot(const Matrix& a, const Matrix& b) {
  NERGLOB_CHECK_EQ(a.size(), b.size());
  // 4-lane-striped double accumulation (see kern::KernelTable::dot_f64):
  // the striping is part of the numeric contract, identical in every
  // dispatch tier.
  return static_cast<float>(kern::Active().dot_f64(a.data(), b.data(), a.size()));
}

float CosineSimilarity(const Matrix& a, const Matrix& b) {
  NERGLOB_CHECK_EQ(a.size(), b.size());
  const kern::KernelTable& kt = kern::Active();
  const double dot = kt.dot_f64(a.data(), b.data(), a.size());
  const double na = kt.dot_f64(a.data(), a.data(), a.size());
  const double nb = kt.dot_f64(b.data(), b.data(), b.size());
  const double denom = std::sqrt(na) * std::sqrt(nb);
  if (denom < 1e-12) return 0.0f;
  return static_cast<float>(static_cast<float>(dot) / denom);
}

float CosineDistance(const Matrix& a, const Matrix& b) {
  return 1.0f - CosineSimilarity(a, b);
}

Matrix MeanRows(const Matrix& a) {
  Matrix out;
  MeanRowsInto(a, 0, a.rows(), &out);
  return out;
}

void MeanRowsInto(const Matrix& a, size_t row_begin, size_t row_end,
                  Matrix* out) {
  NERGLOB_CHECK_LT(row_begin, row_end);
  NERGLOB_CHECK_LE(row_end, a.rows());
  const kern::KernelTable& kt = kern::Active();
  const size_t cols = a.cols();
  out->Reshape(1, cols);
  out->Zero();
  // Float accumulation in ascending row order, then one scale — the same
  // order MeanRows has always used, so slicing a row range here is
  // bit-identical to MeanRows(a.SliceRows(...)) without the copy.
  float* acc = out->Row(0);
  for (size_t r = row_begin; r < row_end; ++r) {
    kt.add_inplace(acc, a.Row(r), cols);
  }
  kt.scale(acc, 1.0f / static_cast<float>(row_end - row_begin), cols);
}

void AddInto(const Matrix& a, const Matrix& b, Matrix* out) {
  NERGLOB_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  out->Reshape(a.rows(), a.cols());
  kern::Active().add(a.data(), b.data(), out->data(), a.size());
}

void LayerNormRowsInto(const Matrix& a, const Matrix& gamma,
                       const Matrix& beta, float eps, Matrix* out) {
  NERGLOB_CHECK_EQ(gamma.rows(), 1u);
  NERGLOB_CHECK_EQ(gamma.cols(), a.cols());
  NERGLOB_CHECK_EQ(beta.rows(), 1u);
  NERGLOB_CHECK_EQ(beta.cols(), a.cols());
  const kern::KernelTable& kt = kern::Active();
  const size_t rows = a.rows(), cols = a.cols();
  if (out != &a) out->Reshape(rows, cols);
  const float* g = gamma.Row(0);
  const float* bt = beta.Row(0);
  for (size_t r = 0; r < rows; ++r) {
    kt.layernorm_row(a.Row(r), g, bt, eps, out->Row(r), cols);
  }
}

void TransposeInto(const Matrix& a, Matrix* out) {
  NERGLOB_CHECK(out != &a) << "TransposeInto cannot alias its input";
  out->Reshape(a.cols(), a.rows());
  TransposeBlocked(a.data(), a.rows(), a.cols(), out->data());
}

void SliceColsInto(const Matrix& a, size_t begin, size_t count, Matrix* out) {
  NERGLOB_CHECK_LE(begin + count, a.cols());
  out->Reshape(a.rows(), count);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* src = a.Row(r) + begin;
    std::copy(src, src + count, out->Row(r));
  }
}

void ReluInPlace(Matrix* m) {
  kern::Active().relu(m->data(), m->size());
}

void WriteMatrix(std::ostream& os, const Matrix& m) {
  const uint64_t rows = m.rows(), cols = m.cols();
  os.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  os.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
}

Matrix ReadMatrix(std::istream& is) {
  uint64_t rows = 0, cols = 0;
  is.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  is.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  Matrix m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  return m;
}

}  // namespace nerglob
