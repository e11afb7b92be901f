#ifndef NERGLOB_AUTOGRAD_VARIABLE_H_
#define NERGLOB_AUTOGRAD_VARIABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/scratch_arena.h"
#include "tensor/matrix.h"

namespace nerglob::ag {

class Node;
using NodePtr = std::shared_ptr<Node>;

/// A node in the dynamically-built computation graph. Users never touch
/// Node directly; they hold Var handles.
class Node {
 public:
  Node(Matrix value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad), order_(next_order_++) {}

  Matrix value_;
  /// Gradient of the final scalar loss w.r.t. this node; lazily allocated.
  Matrix grad_;
  bool requires_grad_;
  /// Creation order; Backward() processes nodes in decreasing order, which
  /// is a valid reverse-topological order for a tape built forward. The
  /// counter is atomic so eval-mode forwards may build disjoint tapes from
  /// multiple threads (ParallelFor over sentences); every tape walked by
  /// Backward() is still built on one thread, so relative order within a
  /// tape stays topological.
  uint64_t order_;
  std::vector<NodePtr> parents_;
  /// Propagates grad_ into parents_ (accumulating). Empty for leaves.
  std::function<void(Node&)> backward_fn_;

  void EnsureGrad() {
    if (grad_.rows() != value_.rows() || grad_.cols() != value_.cols()) {
      grad_ = Matrix(value_.rows(), value_.cols());
    }
  }

 private:
  static std::atomic<uint64_t> next_order_;
};

/// A handle to a value in the autograd graph. Cheap to copy (shared_ptr).
/// Under a NoGradScope ops return borrowed handles: no node, the value in
/// a slot of the scope's arena.
///
/// Typical use:
///   Var w(Matrix::Randn(4, 4, 0.1f, &rng), /*requires_grad=*/true);
///   Var y = MatMul(x, w);
///   Var loss = MeanAll(y);
///   loss.Backward();
///   // w.grad() now holds dloss/dw.
class Var {
 public:
  /// An empty (null) variable.
  Var() = default;

  /// Wraps a value as a graph leaf.
  explicit Var(Matrix value, bool requires_grad = false)
      : Var(std::make_shared<Node>(std::move(value), requires_grad)) {}

  /// Internal: wraps an existing node (used by ops).
  explicit Var(NodePtr node)
      : node_(std::move(node)), value_(node_ ? &node_->value_ : nullptr) {}

  /// Internal: a borrowed value with no node (ops under a NoGradScope).
  /// Never requires grad and must not reach an op outside the scope.
  static Var Borrowed(const Matrix* value) {
    Var v;
    v.value_ = value;
    return v;
  }

  bool defined() const { return value_ != nullptr; }

  const Matrix& value() const { return *value_; }
  /// Mutable access to the underlying value; used by optimizers to update
  /// leaf parameters in place.
  Matrix& mutable_value() { return node_->value_; }

  /// Accumulated gradient; zero-shaped until Backward touches this node.
  const Matrix& grad() const { return node_->grad_; }

  /// Mutable gradient access (e.g. for gradient clipping).
  Matrix& mutable_grad() { return node_->grad_; }

  bool requires_grad() const {
    return node_ != nullptr && node_->requires_grad_;
  }

  size_t rows() const { return value_->rows(); }
  size_t cols() const { return value_->cols(); }

  /// Runs reverse-mode accumulation from this (scalar, 1x1) variable.
  /// Gradients accumulate into every reachable node with requires_grad.
  void Backward() const;

  /// Clears this node's gradient (optimizers call this per parameter).
  void ZeroGrad() const;

  /// Null for a borrowed value.
  NodePtr node() const { return node_; }

 private:
  NodePtr node_;
  const Matrix* value_ = nullptr;  // node_->value_, or the borrowed slot
};

/// Inference without a tape (cf. torch::NoGradGuard). While a scope is
/// alive on a thread, every ag:: op on that thread computes its value with
/// the tape's kernel into a slot of `arena`, records no node, and returns
/// a borrowed Var; a warm arena makes that allocation-free. The slots are
/// released when the scope ends, so copy out what must outlive it. Scopes
/// nest; ParallelFor lanes on other threads open their own.
class NoGradScope {
 public:
  explicit NoGradScope(common::ScratchArena* arena)
      : frame_(arena), outer_(current_) {
    current_ = this;
  }
  ~NoGradScope() { current_ = outer_; }
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

  /// The calling thread's innermost scope, or null when ops build the tape.
  static NoGradScope* Current() { return current_; }

  /// A rows x cols slot of the scope's arena; contents unspecified.
  Matrix* Slot(size_t rows, size_t cols) { return frame_.Get(rows, cols); }

 private:
  static inline thread_local NoGradScope* current_ = nullptr;
  common::ScratchFrame frame_;
  NoGradScope* outer_;
};

/// Creates a non-differentiable constant.
Var Constant(Matrix value);

/// Creates a 1x1 constant.
Var Scalar(float value);

}  // namespace nerglob::ag

#endif  // NERGLOB_AUTOGRAD_VARIABLE_H_
