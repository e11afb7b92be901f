#ifndef NERGLOB_AUTOGRAD_OPS_H_
#define NERGLOB_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"

namespace nerglob::ag {

/// Ops build graph nodes; gradients flow to inputs with requires_grad.
/// Under a NoGradScope (variable.h) they compute the same values into the
/// scope's arena and build nothing. Shapes follow the tensor/matrix.h
/// conventions (row-major, vectors are 1xN rows unless noted).

/// A constant holding `value`. Under a NoGradScope it borrows `value`,
/// which must outlive the scope's use of it; otherwise it copies it into a
/// leaf.
Var ConstantRef(const Matrix& value);

/// (m,k) x (k,n) -> (m,n).
Var MatMul(const Var& a, const Var& b);

/// Fused dense layer: x (m,in) * w (in,out) + bias (1,out) -> (m,out).
/// One graph node and one output pass instead of MatMul + AddRowBroadcast;
/// values and gradients match the unfused pair bit-for-bit.
Var LinearForward(const Var& x, const Var& w, const Var& bias);

/// Elementwise a + b (same shape).
Var Add(const Var& a, const Var& b);

/// Elementwise a - b (same shape).
Var Sub(const Var& a, const Var& b);

/// Elementwise a * b (same shape).
Var Mul(const Var& a, const Var& b);

/// Adds a 1xN bias row to every row of a (m,n).
Var AddRowBroadcast(const Var& a, const Var& bias);

/// a * c for scalar constant c.
Var ScalarMul(const Var& a, float c);

/// a + c elementwise for scalar constant c.
Var AddScalar(const Var& a, float c);

Var Neg(const Var& a);
Var Relu(const Var& a);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);
Var Exp(const Var& a);

/// log(a + eps), elementwise.
Var Log(const Var& a, float eps = 0.0f);

Var Transpose(const Var& a);

/// Row-wise softmax.
Var SoftmaxRows(const Var& a);

/// (m,n) -> (1,n) mean across rows.
Var MeanRows(const Var& a);

/// (m,n) -> (m,1) sum across columns of each row.
Var RowSum(const Var& a);

/// (m,n) -> (1,1).
Var SumAll(const Var& a);
Var MeanAll(const Var& a);

/// Vertically stacks parts (equal cols).
Var ConcatRows(const std::vector<Var>& parts);

/// Horizontally concatenates parts (equal rows).
Var ConcatCols(const std::vector<Var>& parts);

/// Rows [begin, begin+count).
Var SliceRows(const Var& a, size_t begin, size_t count);

/// Columns [begin, begin+count).
Var SliceCols(const Var& a, size_t begin, size_t count);

/// out[i, :] = a[indices[i], :]; gradient scatters (embedding lookup).
Var GatherRows(const Var& a, const std::vector<int>& indices);

/// Mean of bags of gathered rows (an embedding bag): out[t, :] is the mean
/// of a's rows indices[bag_ends[t-1] .. bag_ends[t]) (from 0 for t = 0);
/// every bag is non-empty and bag_ends.back() == indices.size(). Value and
/// gradient bytes equal ConcatRows of MeanRows(GatherRows(a, bag)) per
/// bag, with one node and one (bags, cols) output.
Var GatherMeanRows(const Var& a, const std::vector<int>& indices,
                   const std::vector<size_t>& bag_ends);

/// (m,n) -> (1,n): column-wise max with argmax gradient routing
/// (max-pooling for the char-CNN).
Var MaxOverRows(const Var& a);

/// Row-wise L2 normalization: y_r = x_r / (||x_r|| + eps).
Var L2NormalizeRows(const Var& a, float eps = 1e-8f);

/// Row-wise layer normalization with learned gain/bias (1xN each).
Var LayerNormRows(const Var& a, const Var& gamma, const Var& beta,
                  float eps = 1e-5f);

/// Inverted dropout. Identity when !training or p <= 0.
Var Dropout(const Var& a, float p, bool training, Rng* rng);

/// Mean negative log-likelihood of integer targets under row logits.
/// logits: (m, L), targets: m ints in [0, L). Returns 1x1.
Var CrossEntropyWithLogits(const Var& logits, const std::vector<int>& targets);

/// Pairwise row cosine distance between a (1,d) and b (1,d): 1x1 value of
/// 1 - cos(a,b). Differentiable through both.
Var CosineDistanceRows(const Var& a, const Var& b, float eps = 1e-8f);

/// Escape hatch for ops with hand-written gradients (e.g. the CRF
/// negative log-likelihood). `backward` receives the op node; read
/// n.grad_ and accumulate into n.parents_[i] via AccumulateGrad.
Var CustomOp(Matrix value, const std::vector<Var>& inputs,
             std::function<void(Node&)> backward);

/// Accumulates `delta` into a parent node's gradient (allocating it on
/// first touch). For use inside CustomOp backward functions.
void AccumulateGrad(Node& parent, const Matrix& delta);

}  // namespace nerglob::ag

#endif  // NERGLOB_AUTOGRAD_OPS_H_
