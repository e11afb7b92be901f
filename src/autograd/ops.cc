#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/check.h"
#include "tensor/kernels.h"

namespace nerglob::ag {

namespace {

/// A leaf that nothing will read a gradient from.
bool IsConstantLeaf(const Node& n) {
  return !n.requires_grad_ && n.backward_fn_ == nullptr && n.parents_.empty();
}

/// Where an op writes its value: under a NoGradScope a slot of the scope's
/// arena, otherwise a fresh matrix that becomes a tape node. Ops compute
/// into get() with the same kernels either way, so both modes produce the
/// same bytes.
class Output {
 public:
  Output(size_t rows, size_t cols) {
    if (NoGradScope* scope = NoGradScope::Current()) {
      slot_ = scope->Slot(rows, cols);
    } else {
      owned_ = Matrix(rows, cols);
    }
  }
  /// A copy of `a`, for ops that then transform it in place.
  explicit Output(const Matrix& a) : Output(a.rows(), a.cols()) {
    std::copy(a.data(), a.data() + a.size(), get()->data());
  }
  Matrix* get() { return slot_ != nullptr ? slot_ : &owned_; }
  bool taped() const { return slot_ == nullptr; }

  /// The op's Var: the borrowed slot under a scope, else a node whose
  /// parents are `inputs`, keeping `backward` (read n.grad_, accumulate
  /// into n.parents_[i]) only if one of them requires grad. Inputs are
  /// taken by reference: copying a parameter's Var would touch its shared
  /// reference count on every op.
  template <typename Backward>
  Var Finish(std::initializer_list<std::reference_wrapper<const Var>> inputs,
             Backward&& backward) {
    return Finish(inputs.begin(), inputs.end(), backward);
  }
  template <typename Backward>
  Var Finish(const std::vector<Var>& inputs, Backward&& backward) {
    return Finish(inputs.begin(), inputs.end(), backward);
  }

 private:
  template <typename It, typename Backward>
  Var Finish(It begin, It end, Backward& backward) {
    if (!taped()) return Var::Borrowed(slot_);
    auto node = std::make_shared<Node>(std::move(owned_), false);
    for (It it = begin; it != end; ++it) {
      const Var& v = *it;
      NERGLOB_CHECK(v.node() != nullptr)
          << "a NoGradScope value was used after its scope ended";
      node->requires_grad_ = node->requires_grad_ || v.requires_grad();
      node->parents_.push_back(v.node());
    }
    if (node->requires_grad_) node->backward_fn_ = std::move(backward);
    return Var(std::move(node));
  }

  Matrix* slot_ = nullptr;  // the scope's slot; null on the tape
  Matrix owned_;
};

void Accumulate(Node& parent, const Matrix& delta) {
  if (IsConstantLeaf(parent)) return;
  parent.EnsureGrad();
  parent.grad_.AddInPlace(delta);
}

/// (m,n) -> (1,n): a bias's gradient.
Matrix ColumnSums(const Matrix& g) {
  Matrix sums(1, g.cols());
  for (size_t r = 0; r < g.rows(); ++r) {
    const float* row = g.Row(r);
    for (size_t c = 0; c < g.cols(); ++c) sums.At(0, c) += row[c];
  }
  return sums;
}

/// Adds into the gathered rows of `parent` only. Each index's rows
/// grad_row(i), i in [begin, end), are summed from +0 in order and the sum
/// added once. That equals adding a dense (rows x cols) dx summed the same
/// way, since its +0 rows leave an Accumulate-built gradient (never -0)
/// as it is.
template <typename GradRow>
void ScatterAddRows(Node& parent, const std::vector<int>& indices,
                    size_t begin, size_t end, const GradRow& grad_row) {
  if (IsConstantLeaf(parent)) return;
  parent.EnsureGrad();
  const size_t cols = parent.value_.cols();
  std::vector<size_t> order(end - begin);
  std::iota(order.begin(), order.end(), begin);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return indices[x] < indices[y];
  });
  std::vector<float> sum(cols);
  for (size_t i = 0; i < order.size();) {
    const int row = indices[order[i]];
    std::fill(sum.begin(), sum.end(), 0.0f);
    for (; i < order.size() && indices[order[i]] == row; ++i) {
      const float* g = grad_row(order[i]);
      for (size_t c = 0; c < cols; ++c) sum[c] += g[c];
    }
    kern::Active().add_inplace(parent.grad_.Row(static_cast<size_t>(row)),
                               sum.data(), cols);
  }
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  Output out(a.rows(), b.cols());
  MatMulInto(a.value(), b.value(), out.get());
  return out.Finish({a, b}, [](Node& n) {
    Node& pa = *n.parents_[0];
    Node& pb = *n.parents_[1];
    Accumulate(pa, MatMulTransB(n.grad_, pb.value_));
    Accumulate(pb, MatMulTransA(pa.value_, n.grad_));
  });
}

Var LinearForward(const Var& x, const Var& w, const Var& bias) {
  NERGLOB_CHECK_EQ(bias.rows(), 1u);
  NERGLOB_CHECK_EQ(bias.cols(), w.cols());
  Output out(x.rows(), w.cols());
  MatMulAddBiasInto(x.value(), w.value(), bias.value(), out.get());
  return out.Finish({x, w, bias}, [](Node& n) {
    Node& px = *n.parents_[0];
    Node& pw = *n.parents_[1];
    Node& pb = *n.parents_[2];
    Accumulate(px, MatMulTransB(n.grad_, pw.value_));
    Accumulate(pw, MatMulTransA(px.value_, n.grad_));
    Accumulate(pb, ColumnSums(n.grad_));
  });
}

Var Add(const Var& a, const Var& b) {
  Output out(a.rows(), a.cols());
  AddInto(a.value(), b.value(), out.get());
  return out.Finish({a, b}, [](Node& n) {
    Accumulate(*n.parents_[0], n.grad_);
    Accumulate(*n.parents_[1], n.grad_);
  });
}

Var Sub(const Var& a, const Var& b) {
  Output out(a.value());
  out.get()->Axpy(-1.0f, b.value());
  return out.Finish({a, b}, [](Node& n) {
    Accumulate(*n.parents_[0], n.grad_);
    Matrix neg = n.grad_;
    neg.Scale(-1.0f);
    Accumulate(*n.parents_[1], neg);
  });
}

Var Mul(const Var& a, const Var& b) {
  NERGLOB_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Output out(a.rows(), a.cols());
  const float* av = a.value().data();
  const float* bv = b.value().data();
  float* o = out.get()->data();
  for (size_t i = 0; i < a.value().size(); ++i) o[i] = av[i] * bv[i];
  return out.Finish({a, b}, [](Node& n) {
    Accumulate(*n.parents_[0], nerglob::Mul(n.grad_, n.parents_[1]->value_));
    Accumulate(*n.parents_[1], nerglob::Mul(n.grad_, n.parents_[0]->value_));
  });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  NERGLOB_CHECK_EQ(bias.rows(), 1u);
  NERGLOB_CHECK_EQ(bias.cols(), a.cols());
  Output out(a.value());
  Matrix& y = *out.get();
  for (size_t r = 0; r < a.rows(); ++r) {
    float* row = y.Row(r);
    const float* b = bias.value().Row(0);
    for (size_t c = 0; c < a.cols(); ++c) row[c] += b[c];
  }
  return out.Finish({a, bias}, [](Node& n) {
    Accumulate(*n.parents_[0], n.grad_);
    Accumulate(*n.parents_[1], ColumnSums(n.grad_));
  });
}

Var ScalarMul(const Var& a, float c) {
  Output out(a.value());
  out.get()->Scale(c);
  return out.Finish({a}, [c](Node& n) {
    Matrix g = n.grad_;
    g.Scale(c);
    Accumulate(*n.parents_[0], g);
  });
}

Var AddScalar(const Var& a, float c) {
  Output out(a.value());
  out.get()->Apply([c](float x) { return x + c; });
  return out.Finish({a},
                    [](Node& n) { Accumulate(*n.parents_[0], n.grad_); });
}

Var Neg(const Var& a) { return ScalarMul(a, -1.0f); }

Var Relu(const Var& a) {
  Output out(a.value());
  ReluInPlace(out.get());  // `x > 0 ? x : 0`, NaN and -0 to +0
  return out.Finish({a}, [](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix g = n.grad_;
    for (size_t i = 0; i < g.size(); ++i) {
      if (x.data()[i] <= 0.0f) g.data()[i] = 0.0f;
    }
    Accumulate(*n.parents_[0], g);
  });
}

Var Tanh(const Var& a) {
  Output out(a.value());
  out.get()->Apply([](float x) { return std::tanh(x); });
  return out.Finish({a}, [](Node& n) {
    Matrix g = n.grad_;
    const Matrix& y = n.value_;
    for (size_t i = 0; i < g.size(); ++i) {
      g.data()[i] *= 1.0f - y.data()[i] * y.data()[i];
    }
    Accumulate(*n.parents_[0], g);
  });
}

Var Sigmoid(const Var& a) {
  Output out(a.value());
  out.get()->Apply([](float x) { return 1.0f / (1.0f + std::exp(-x)); });
  return out.Finish({a}, [](Node& n) {
    Matrix g = n.grad_;
    const Matrix& y = n.value_;
    for (size_t i = 0; i < g.size(); ++i) {
      g.data()[i] *= y.data()[i] * (1.0f - y.data()[i]);
    }
    Accumulate(*n.parents_[0], g);
  });
}

Var Exp(const Var& a) {
  Output out(a.value());
  out.get()->Apply([](float x) { return std::exp(x); });
  return out.Finish({a}, [](Node& n) {
    Accumulate(*n.parents_[0], nerglob::Mul(n.grad_, n.value_));
  });
}

Var Log(const Var& a, float eps) {
  Output out(a.value());
  out.get()->Apply([eps](float x) { return std::log(x + eps); });
  return out.Finish({a}, [eps](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix g = n.grad_;
    for (size_t i = 0; i < g.size(); ++i) g.data()[i] /= (x.data()[i] + eps);
    Accumulate(*n.parents_[0], g);
  });
}

Var Transpose(const Var& a) {
  Output out(a.cols(), a.rows());
  TransposeInto(a.value(), out.get());
  return out.Finish({a}, [](Node& n) {
    Accumulate(*n.parents_[0], n.grad_.Transposed());
  });
}

Var SoftmaxRows(const Var& a) {
  Output out(a.rows(), a.cols());
  SoftmaxRowsInto(a.value(), out.get());
  return out.Finish({a}, [](Node& n) {
    const Matrix& y = n.value_;
    Matrix dx(y.rows(), y.cols());
    for (size_t r = 0; r < y.rows(); ++r) {
      const float* yr = y.Row(r);
      const float* gr = n.grad_.Row(r);
      double dot = 0.0;
      for (size_t c = 0; c < y.cols(); ++c) dot += static_cast<double>(gr[c]) * yr[c];
      float* dr = dx.Row(r);
      for (size_t c = 0; c < y.cols(); ++c) {
        dr[c] = yr[c] * (gr[c] - static_cast<float>(dot));
      }
    }
    Accumulate(*n.parents_[0], dx);
  });
}

Var MeanRows(const Var& a) {
  Output out(1, a.cols());
  MeanRowsInto(a.value(), 0, a.rows(), out.get());
  return out.Finish({a}, [](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    const float inv = 1.0f / static_cast<float>(x.rows());
    Matrix dx(x.rows(), x.cols());
    const float* g = n.grad_.Row(0);
    for (size_t r = 0; r < x.rows(); ++r) {
      float* dr = dx.Row(r);
      for (size_t c = 0; c < x.cols(); ++c) dr[c] = g[c] * inv;
    }
    Accumulate(*n.parents_[0], dx);
  });
}

Var RowSum(const Var& a) {
  Output out(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* row = a.value().Row(r);
    double acc = 0.0;
    for (size_t c = 0; c < a.cols(); ++c) acc += row[c];
    out.get()->At(r, 0) = static_cast<float>(acc);
  }
  return out.Finish({a}, [](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix dx(x.rows(), x.cols());
    for (size_t r = 0; r < x.rows(); ++r) {
      const float g = n.grad_.At(r, 0);
      float* dr = dx.Row(r);
      for (size_t c = 0; c < x.cols(); ++c) dr[c] = g;
    }
    Accumulate(*n.parents_[0], dx);
  });
}

Var SumAll(const Var& a) {
  Output out(1, 1);
  out.get()->At(0, 0) = a.value().Sum();
  return out.Finish({a}, [](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix dx(x.rows(), x.cols(), n.grad_.At(0, 0));
    Accumulate(*n.parents_[0], dx);
  });
}

Var MeanAll(const Var& a) {
  return ScalarMul(SumAll(a), 1.0f / static_cast<float>(a.rows() * a.cols()));
}

Var ConcatRows(const std::vector<Var>& parts) {
  NERGLOB_CHECK(!parts.empty());
  const size_t cols = parts[0].cols();
  size_t rows = 0;
  for (const Var& p : parts) {
    NERGLOB_CHECK_EQ(p.cols(), cols);
    rows += p.rows();
  }
  Output out(rows, cols);
  float* dst = out.get()->data();
  for (const Var& p : parts) {
    dst = std::copy(p.value().data(), p.value().data() + p.value().size(), dst);
  }
  return out.Finish(parts, [](Node& n) {
    size_t r = 0;
    for (auto& parent : n.parents_) {
      const size_t pr = parent->value_.rows();
      Accumulate(*parent, n.grad_.SliceRows(r, pr));
      r += pr;
    }
  });
}

Var ConcatCols(const std::vector<Var>& parts) {
  NERGLOB_CHECK(!parts.empty());
  const size_t rows = parts[0].rows();
  size_t cols = 0;
  for (const Var& p : parts) {
    NERGLOB_CHECK_EQ(p.rows(), rows);
    cols += p.cols();
  }
  Output out(rows, cols);
  size_t off = 0;
  for (const Var& p : parts) {
    for (size_t r = 0; r < rows; ++r) {
      const float* src = p.value().Row(r);
      std::copy(src, src + p.cols(), out.get()->Row(r) + off);
    }
    off += p.cols();
  }
  return out.Finish(parts, [](Node& n) {
    size_t off = 0;
    for (auto& parent : n.parents_) {
      const size_t pc = parent->value_.cols();
      Matrix dg(parent->value_.rows(), pc);
      for (size_t r = 0; r < dg.rows(); ++r) {
        const float* g = n.grad_.Row(r) + off;
        std::copy(g, g + pc, dg.Row(r));
      }
      Accumulate(*parent, dg);
      off += pc;
    }
  });
}

Var SliceRows(const Var& a, size_t begin, size_t count) {
  NERGLOB_CHECK_LE(begin + count, a.rows());
  Output out(count, a.cols());
  const float* src = a.value().Row(begin);
  std::copy(src, src + count * a.cols(), out.get()->data());
  return out.Finish({a}, [begin](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix dx(x.rows(), x.cols());
    for (size_t r = 0; r < n.grad_.rows(); ++r) {
      const float* g = n.grad_.Row(r);
      std::copy(g, g + x.cols(), dx.Row(begin + r));
    }
    Accumulate(*n.parents_[0], dx);
  });
}

Var SliceCols(const Var& a, size_t begin, size_t count) {
  Output out(a.rows(), count);
  SliceColsInto(a.value(), begin, count, out.get());
  return out.Finish({a}, [begin, count](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix dx(x.rows(), x.cols());
    for (size_t r = 0; r < x.rows(); ++r) {
      const float* g = n.grad_.Row(r);
      std::copy(g, g + count, dx.Row(r) + begin);
    }
    Accumulate(*n.parents_[0], dx);
  });
}

Var GatherRows(const Var& a, const std::vector<int>& indices) {
  Output out(indices.size(), a.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    NERGLOB_CHECK(indices[i] >= 0 && static_cast<size_t>(indices[i]) < a.rows());
    const float* src = a.value().Row(static_cast<size_t>(indices[i]));
    std::copy(src, src + a.cols(), out.get()->Row(i));
  }
  // Checked before the backward lambda copies `indices`.
  if (!out.taped()) return Var::Borrowed(out.get());
  return out.Finish({a}, [indices](Node& n) {
    ScatterAddRows(*n.parents_[0], indices, 0, indices.size(),
                   [&](size_t i) { return n.grad_.Row(i); });
  });
}

Var GatherMeanRows(const Var& a, const std::vector<int>& indices,
                   const std::vector<size_t>& bag_ends) {
  NERGLOB_CHECK(!bag_ends.empty() && bag_ends.back() == indices.size());
  const size_t cols = a.cols();
  Output out(bag_ends.size(), cols);
  const kern::KernelTable& kt = kern::Active();
  size_t begin = 0;
  for (size_t t = 0; t < bag_ends.size(); ++t) {
    NERGLOB_CHECK_LT(begin, bag_ends[t]);
    // MeanRowsInto's order: +0, then each row in bag order, then one scale.
    float* row = out.get()->Row(t);
    std::fill(row, row + cols, 0.0f);
    for (size_t i = begin; i < bag_ends[t]; ++i) {
      NERGLOB_CHECK(indices[i] >= 0 && static_cast<size_t>(indices[i]) < a.rows());
      kt.add_inplace(row, a.value().Row(static_cast<size_t>(indices[i])), cols);
    }
    kt.scale(row, 1.0f / static_cast<float>(bag_ends[t] - begin), cols);
    begin = bag_ends[t];
  }
  // Checked before the backward lambda copies the index vectors.
  if (!out.taped()) return Var::Borrowed(out.get());
  return out.Finish({a}, [indices, bag_ends](Node& n) {
    // Bit for bit the per-bag composition ConcatRows(MeanRows(GatherRows(
    // a, bag))...), whose tape runs the bags' backwards last bag first,
    // each leaving 0 + (0 + g) * inv in every gathered row's gradient.
    const size_t cols = n.grad_.cols();
    std::vector<float> row_grad(cols);
    for (size_t t = bag_ends.size(); t-- > 0;) {
      const size_t begin = t == 0 ? 0 : bag_ends[t - 1];
      const float inv = 1.0f / static_cast<float>(bag_ends[t] - begin);
      const float* g = n.grad_.Row(t);
      for (size_t c = 0; c < cols; ++c) {
        row_grad[c] = 0.0f + (0.0f + g[c]) * inv;
      }
      ScatterAddRows(*n.parents_[0], indices, begin, bag_ends[t],
                     [&](size_t) { return row_grad.data(); });
    }
  });
}

Var MaxOverRows(const Var& a) {
  NERGLOB_CHECK_GT(a.rows(), 0u);
  Output out(1, a.cols());
  std::vector<size_t> argmax(a.cols(), 0);
  for (size_t c = 0; c < a.cols(); ++c) {
    float best = a.value().At(0, c);
    for (size_t r = 1; r < a.rows(); ++r) {
      if (a.value().At(r, c) > best) {
        best = a.value().At(r, c);
        argmax[c] = r;
      }
    }
    out.get()->At(0, c) = best;
  }
  return out.Finish({a}, [argmax](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix dx(x.rows(), x.cols());
    for (size_t c = 0; c < x.cols(); ++c) {
      dx.At(argmax[c], c) = n.grad_.At(0, c);
    }
    Accumulate(*n.parents_[0], dx);
  });
}

Var L2NormalizeRows(const Var& a, float eps) {
  const Matrix& x = a.value();
  Output out(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.Row(r);
    double s = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) s += static_cast<double>(row[c]) * row[c];
    const float norm = static_cast<float>(std::sqrt(s)) + eps;
    float* o = out.get()->Row(r);
    for (size_t c = 0; c < x.cols(); ++c) o[c] = row[c] / norm;
  }
  return out.Finish({a}, [eps](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix dx(x.rows(), x.cols());
    for (size_t r = 0; r < x.rows(); ++r) {
      const float* row = x.Row(r);
      const float* g = n.grad_.Row(r);
      double s = 0.0;
      double gdotx = 0.0;
      for (size_t c = 0; c < x.cols(); ++c) {
        s += static_cast<double>(row[c]) * row[c];
        gdotx += static_cast<double>(g[c]) * row[c];
      }
      const double sq = std::sqrt(std::max(s, 1e-24));
      const double norm = sq + eps;
      float* d = dx.Row(r);
      for (size_t c = 0; c < x.cols(); ++c) {
        d[c] = static_cast<float>(g[c] / norm - gdotx * row[c] / (sq * norm * norm));
      }
    }
    Accumulate(*n.parents_[0], dx);
  });
}

Var LayerNormRows(const Var& a, const Var& gamma, const Var& beta, float eps) {
  NERGLOB_CHECK_EQ(gamma.rows(), 1u);
  NERGLOB_CHECK_EQ(gamma.cols(), a.cols());
  NERGLOB_CHECK_EQ(beta.rows(), 1u);
  NERGLOB_CHECK_EQ(beta.cols(), a.cols());
  Output out(a.rows(), a.cols());
  LayerNormRowsInto(a.value(), gamma.value(), beta.value(), eps, out.get());
  return out.Finish({a, gamma, beta}, [eps](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    const Matrix& gm = n.parents_[1]->value_;
    const size_t cols = x.cols();
    Matrix dx(x.rows(), cols);
    Matrix dgamma(1, cols);
    Matrix dbeta(1, cols);
    for (size_t r = 0; r < x.rows(); ++r) {
      const float* row = x.Row(r);
      const float* g = n.grad_.Row(r);
      double mean = 0.0;
      for (size_t c = 0; c < cols; ++c) mean += row[c];
      mean /= cols;
      double var = 0.0;
      for (size_t c = 0; c < cols; ++c) {
        const double d = row[c] - mean;
        var += d * d;
      }
      var /= cols;
      const double inv_std = 1.0 / std::sqrt(var + eps);
      // dL/dxhat_c = g_c * gamma_c; standard layernorm backward.
      double sum_dxhat = 0.0;
      double sum_dxhat_xhat = 0.0;
      std::vector<double> xhat(cols), dxhat(cols);
      for (size_t c = 0; c < cols; ++c) {
        xhat[c] = (row[c] - mean) * inv_std;
        dxhat[c] = static_cast<double>(g[c]) * gm.At(0, c);
        sum_dxhat += dxhat[c];
        sum_dxhat_xhat += dxhat[c] * xhat[c];
        dgamma.At(0, c) += static_cast<float>(g[c] * xhat[c]);
        dbeta.At(0, c) += g[c];
      }
      float* d = dx.Row(r);
      for (size_t c = 0; c < cols; ++c) {
        d[c] = static_cast<float>(
            inv_std * (dxhat[c] - sum_dxhat / cols - xhat[c] * sum_dxhat_xhat / cols));
      }
    }
    Accumulate(*n.parents_[0], dx);
    Accumulate(*n.parents_[1], dgamma);
    Accumulate(*n.parents_[2], dbeta);
  });
}

Var ConstantRef(const Matrix& value) {
  if (NoGradScope::Current() != nullptr) return Var::Borrowed(&value);
  return Constant(value);
}

Var Dropout(const Var& a, float p, bool training, Rng* rng) {
  if (!training || p <= 0.0f) return a;
  NERGLOB_CHECK_LT(p, 1.0f);
  Matrix mask(a.rows(), a.cols());
  const float keep_inv = 1.0f / (1.0f - p);
  for (size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng->NextBernoulli(p) ? 0.0f : keep_inv;
  }
  Var mask_var = Constant(std::move(mask));
  return Mul(a, mask_var);
}

Var CrossEntropyWithLogits(const Var& logits, const std::vector<int>& targets) {
  NERGLOB_CHECK_EQ(logits.rows(), targets.size());
  const Matrix logp = nerglob::LogSoftmaxRows(logits.value());
  Output out(1, 1);
  double nll = 0.0;
  for (size_t r = 0; r < targets.size(); ++r) {
    NERGLOB_CHECK(targets[r] >= 0 && static_cast<size_t>(targets[r]) < logits.cols());
    nll -= logp.At(r, static_cast<size_t>(targets[r]));
  }
  out.get()->At(0, 0) = static_cast<float>(nll / targets.size());
  return out.Finish({logits}, [targets, logp](Node& n) {
    const float g = n.grad_.At(0, 0) / static_cast<float>(targets.size());
    Matrix dx(logp.rows(), logp.cols());
    for (size_t r = 0; r < logp.rows(); ++r) {
      const float* lp = logp.Row(r);
      float* d = dx.Row(r);
      for (size_t c = 0; c < logp.cols(); ++c) d[c] = g * std::exp(lp[c]);
      d[static_cast<size_t>(targets[r])] -= g;
    }
    Accumulate(*n.parents_[0], dx);
  });
}

Var CustomOp(Matrix value, const std::vector<Var>& inputs,
             std::function<void(Node&)> backward) {
  Output out(value);
  return out.Finish(inputs, backward);
}

void AccumulateGrad(Node& parent, const Matrix& delta) {
  Accumulate(parent, delta);
}

Var CosineDistanceRows(const Var& a, const Var& b, float eps) {
  NERGLOB_CHECK_EQ(a.rows(), 1u);
  NERGLOB_CHECK_EQ(b.rows(), 1u);
  Var an = L2NormalizeRows(a, eps);
  Var bn = L2NormalizeRows(b, eps);
  Var dot = RowSum(Mul(an, bn));  // 1x1
  return AddScalar(Neg(dot), 1.0f);
}

}  // namespace nerglob::ag
