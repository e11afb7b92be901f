#ifndef NERGLOB_TENSOR_MATRIX_H_
#define NERGLOB_TENSOR_MATRIX_H_

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace nerglob {

/// Dense row-major float matrix. This is the single numeric container used
/// throughout the library (vectors are 1xN or Nx1 matrices). Kernels are
/// BLAS-free but cache-blocked (register-tiled i-k-j gemm with B-panel
/// reuse) and, for large outputs, row-split over the shared thread pool
/// (see common/thread_pool.h); results are bit-identical for any
/// NERGLOB_THREADS setting.
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// A rows x cols matrix, zero-initialized.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// A rows x cols matrix filled with `value`.
  Matrix(size_t rows, size_t cols, float value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// Builds from nested initializer data, e.g. FromRows({{1,2},{3,4}}).
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// A 1 x n row vector from values.
  static Matrix RowVector(const std::vector<float>& values);

  /// Gaussian init with the given standard deviation.
  static Matrix Randn(size_t rows, size_t cols, float stddev, Rng* rng);

  /// Uniform init in [-limit, limit] (Glorot-style when
  /// limit = sqrt(6/(fan_in+fan_out))).
  static Matrix RandUniform(size_t rows, size_t cols, float limit, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Re-dimensions the matrix to rows x cols, reusing the existing buffer
  /// capacity when it suffices (no heap traffic in that case — this is
  /// what makes scratch-arena matrices allocation-free at steady state).
  /// Element values after a reshape are unspecified; callers are expected
  /// to overwrite the full extent (every *Into kernel does).
  void Reshape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Allocated element capacity of the underlying buffer (>= size()).
  size_t capacity() const { return data_.capacity(); }

  float& At(size_t r, size_t c) {
    NERGLOB_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    NERGLOB_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* Row(size_t r) {
    NERGLOB_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const float* Row(size_t r) const {
    NERGLOB_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Sets every element to zero.
  void Zero() { Fill(0.0f); }

  /// this += other (same shape).
  void AddInPlace(const Matrix& other);

  /// this += alpha * other (same shape).
  void Axpy(float alpha, const Matrix& other);

  /// this *= alpha.
  void Scale(float alpha);

  /// Elementwise map (in place).
  ///
  /// Deprecated on inference hot paths: the std::function indirection
  /// defeats vectorization and inlining, so per-message kernels should use
  /// the static-dispatch elementwise kernels instead (ReluInPlace below,
  /// or kern::Active() directly). Retained for tests, training-time code
  /// and one-off transforms where convenience beats throughput.
  void Apply(const std::function<float(float)>& fn);

  /// Frobenius norm.
  float FrobeniusNorm() const;

  /// Sum of all elements.
  float Sum() const;

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Extracts rows [begin, begin+count) as a new matrix.
  Matrix SliceRows(size_t begin, size_t count) const;

  /// Exact equality (used in tests; floats compared bitwise-ish).
  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

  /// Human-readable dump (small matrices; tests and debugging).
  std::string DebugString(int max_rows = 8, int max_cols = 8) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// out = a * b. Shapes: (m,k) x (k,n) -> (m,n).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// Fused out = a * b + bias with `bias` (1 x n) broadcast over rows: one
/// pass over the output instead of MatMul followed by AddRowBroadcast.
/// The bias is added after the full k accumulation, so results match the
/// unfused pair bit-for-bit.
Matrix MatMulAddBias(const Matrix& a, const Matrix& b, const Matrix& bias);

/// out = a^T * b. Shapes: (k,m) x (k,n) -> (m,n).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// out = a * b^T. Shapes: (m,k) x (n,k) -> (m,n).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// Elementwise a * b (same shape).
Matrix Mul(const Matrix& a, const Matrix& b);

/// Adds row vector `bias` (1 x n) to every row of `a` (m x n).
Matrix AddRowBroadcast(const Matrix& a, const Matrix& bias);

/// Row-wise softmax.
Matrix SoftmaxRows(const Matrix& a);

/// Row-wise log-softmax (numerically stable).
Matrix LogSoftmaxRows(const Matrix& a);

/// L2 norm of each row; returns m x 1.
Matrix RowL2Norms(const Matrix& a);

/// Dot product of two equal-length vectors given as 1xN or Nx1 matrices.
float VecDot(const Matrix& a, const Matrix& b);

/// Cosine similarity between two vectors (1xN matrices); 0 if either is ~0.
float CosineSimilarity(const Matrix& a, const Matrix& b);

/// Cosine distance = 1 - cosine similarity.
float CosineDistance(const Matrix& a, const Matrix& b);

/// Mean of all rows: (m,n) -> (1,n).
Matrix MeanRows(const Matrix& a);

/// Out-parameter kernel variants. Each reshapes `out` via Matrix::Reshape
/// (reusing its buffer capacity — zero heap traffic at steady state when
/// `out` is a scratch-arena slot) and overwrites its full extent. Unless
/// noted, `out` must not alias an input. All of them dispatch through the
/// runtime-selected SIMD kernel table (see tensor/kernels.h) and, where an
/// allocating counterpart above exists, return bit-identical results to it
/// for any NERGLOB_SIMD tier and any thread count.

/// out = a * b.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b + bias (1 x n, broadcast over rows; added after the full k
/// accumulation, matching the unfused pair bit-for-bit).
void MatMulAddBiasInto(const Matrix& a, const Matrix& b, const Matrix& bias,
                       Matrix* out);

/// out = a + b (elementwise, same shape).
void AddInto(const Matrix& a, const Matrix& b, Matrix* out);

/// Row-wise softmax. `out == &a` is allowed (in-place).
void SoftmaxRowsInto(const Matrix& a, Matrix* out);

/// Row-wise log-softmax. `out == &a` is allowed (in-place).
void LogSoftmaxRowsInto(const Matrix& a, Matrix* out);

/// Row-wise layer norm with gain/bias (1 x n each):
/// out_r = gamma * (a_r - mean_r) / sqrt(var_r + eps) + beta.
/// Matches ag::LayerNormRows (double statistics) bit-for-bit.
void LayerNormRowsInto(const Matrix& a, const Matrix& gamma,
                       const Matrix& beta, float eps, Matrix* out);

/// out = mean of rows [row_begin, row_end) of a: (1, n). Same accumulation
/// order as MeanRows over the equivalent slice (no intermediate copy).
void MeanRowsInto(const Matrix& a, size_t row_begin, size_t row_end,
                  Matrix* out);

/// out = a^T (blocked copy; must not alias).
void TransposeInto(const Matrix& a, Matrix* out);

/// out = columns [begin, begin+count) of a (memcpy per row).
void SliceColsInto(const Matrix& a, size_t begin, size_t count, Matrix* out);

/// m = relu(m) elementwise via the static-dispatch kernel (NaN and -0 map
/// to +0, like ag::Relu's `x > 0 ? x : 0`).
void ReluInPlace(Matrix* m);

/// Writes/reads a matrix in a simple binary format (shape + floats).
void WriteMatrix(std::ostream& os, const Matrix& m);
Matrix ReadMatrix(std::istream& is);

}  // namespace nerglob

#endif  // NERGLOB_TENSOR_MATRIX_H_
