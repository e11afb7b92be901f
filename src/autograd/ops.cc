#include "autograd/ops.h"

#include <cmath>

#include "common/check.h"

namespace nerglob::ag {

namespace {

bool AnyRequiresGrad(const std::vector<Var>& inputs) {
  for (const Var& v : inputs) {
    if (v.requires_grad()) return true;
  }
  return false;
}

/// Builds an op node. `backward` receives the op node; read n.grad_ and
/// accumulate into n.parents_[i]->grad_ (after EnsureGrad()).
Var MakeOp(Matrix value, const std::vector<Var>& inputs,
           std::function<void(Node&)> backward) {
  const bool req = AnyRequiresGrad(inputs);
  auto node = std::make_shared<Node>(std::move(value), req);
  for (const Var& v : inputs) node->parents_.push_back(v.node());
  if (req) node->backward_fn_ = std::move(backward);
  return Var(std::move(node));
}

void Accumulate(Node& parent, const Matrix& delta) {
  if (!parent.requires_grad_ && parent.backward_fn_ == nullptr &&
      parent.parents_.empty()) {
    // Pure constant leaf: no one will read its grad.
    return;
  }
  parent.EnsureGrad();
  parent.grad_.AddInPlace(delta);
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  Matrix out = nerglob::MatMul(a.value(), b.value());
  return MakeOp(std::move(out), {a, b}, [](Node& n) {
    Node& pa = *n.parents_[0];
    Node& pb = *n.parents_[1];
    Accumulate(pa, MatMulTransB(n.grad_, pb.value_));
    Accumulate(pb, MatMulTransA(pa.value_, n.grad_));
  });
}

Var LinearForward(const Var& x, const Var& w, const Var& bias) {
  NERGLOB_CHECK_EQ(bias.rows(), 1u);
  NERGLOB_CHECK_EQ(bias.cols(), w.cols());
  Matrix out = nerglob::MatMulAddBias(x.value(), w.value(), bias.value());
  return MakeOp(std::move(out), {x, w, bias}, [](Node& n) {
    Node& px = *n.parents_[0];
    Node& pw = *n.parents_[1];
    Node& pb = *n.parents_[2];
    Accumulate(px, MatMulTransB(n.grad_, pw.value_));
    Accumulate(pw, MatMulTransA(px.value_, n.grad_));
    Matrix db(1, n.grad_.cols());
    for (size_t r = 0; r < n.grad_.rows(); ++r) {
      const float* row = n.grad_.Row(r);
      for (size_t c = 0; c < n.grad_.cols(); ++c) db.At(0, c) += row[c];
    }
    Accumulate(pb, db);
  });
}

Var Add(const Var& a, const Var& b) {
  return MakeOp(nerglob::Add(a.value(), b.value()), {a, b}, [](Node& n) {
    Accumulate(*n.parents_[0], n.grad_);
    Accumulate(*n.parents_[1], n.grad_);
  });
}

Var Sub(const Var& a, const Var& b) {
  return MakeOp(nerglob::Sub(a.value(), b.value()), {a, b}, [](Node& n) {
    Accumulate(*n.parents_[0], n.grad_);
    Matrix neg = n.grad_;
    neg.Scale(-1.0f);
    Accumulate(*n.parents_[1], neg);
  });
}

Var Mul(const Var& a, const Var& b) {
  return MakeOp(nerglob::Mul(a.value(), b.value()), {a, b}, [](Node& n) {
    Accumulate(*n.parents_[0], nerglob::Mul(n.grad_, n.parents_[1]->value_));
    Accumulate(*n.parents_[1], nerglob::Mul(n.grad_, n.parents_[0]->value_));
  });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  return MakeOp(nerglob::AddRowBroadcast(a.value(), bias.value()), {a, bias},
                [](Node& n) {
                  Accumulate(*n.parents_[0], n.grad_);
                  Matrix db(1, n.grad_.cols());
                  for (size_t r = 0; r < n.grad_.rows(); ++r) {
                    const float* row = n.grad_.Row(r);
                    for (size_t c = 0; c < n.grad_.cols(); ++c) db.At(0, c) += row[c];
                  }
                  Accumulate(*n.parents_[1], db);
                });
}

Var MulColBroadcast(const Var& a, const Var& scale) {
  NERGLOB_CHECK_EQ(scale.cols(), 1u);
  NERGLOB_CHECK_EQ(scale.rows(), a.rows());
  Matrix out = a.value();
  for (size_t r = 0; r < out.rows(); ++r) {
    const float s = scale.value().At(r, 0);
    float* row = out.Row(r);
    for (size_t c = 0; c < out.cols(); ++c) row[c] *= s;
  }
  return MakeOp(std::move(out), {a, scale}, [](Node& n) {
    const Matrix& av = n.parents_[0]->value_;
    const Matrix& sv = n.parents_[1]->value_;
    Matrix da(av.rows(), av.cols());
    Matrix ds(sv.rows(), 1);
    for (size_t r = 0; r < av.rows(); ++r) {
      const float s = sv.At(r, 0);
      const float* g = n.grad_.Row(r);
      const float* arow = av.Row(r);
      float* drow = da.Row(r);
      double acc = 0.0;
      for (size_t c = 0; c < av.cols(); ++c) {
        drow[c] = g[c] * s;
        acc += static_cast<double>(g[c]) * arow[c];
      }
      ds.At(r, 0) = static_cast<float>(acc);
    }
    Accumulate(*n.parents_[0], da);
    Accumulate(*n.parents_[1], ds);
  });
}

Var ScalarMul(const Var& a, float c) {
  Matrix out = a.value();
  out.Scale(c);
  return MakeOp(std::move(out), {a}, [c](Node& n) {
    Matrix g = n.grad_;
    g.Scale(c);
    Accumulate(*n.parents_[0], g);
  });
}

Var AddScalar(const Var& a, float c) {
  Matrix out = a.value();
  out.Apply([c](float x) { return x + c; });
  return MakeOp(std::move(out), {a},
                [](Node& n) { Accumulate(*n.parents_[0], n.grad_); });
}

Var Neg(const Var& a) { return ScalarMul(a, -1.0f); }

Var Relu(const Var& a) {
  Matrix out = a.value();
  out.Apply([](float x) { return x > 0.0f ? x : 0.0f; });
  return MakeOp(std::move(out), {a}, [](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix g = n.grad_;
    for (size_t i = 0; i < g.size(); ++i) {
      if (x.data()[i] <= 0.0f) g.data()[i] = 0.0f;
    }
    Accumulate(*n.parents_[0], g);
  });
}

Var Tanh(const Var& a) {
  Matrix out = a.value();
  out.Apply([](float x) { return std::tanh(x); });
  return MakeOp(std::move(out), {a}, [](Node& n) {
    Matrix g = n.grad_;
    const Matrix& y = n.value_;
    for (size_t i = 0; i < g.size(); ++i) {
      g.data()[i] *= 1.0f - y.data()[i] * y.data()[i];
    }
    Accumulate(*n.parents_[0], g);
  });
}

Var Sigmoid(const Var& a) {
  Matrix out = a.value();
  out.Apply([](float x) { return 1.0f / (1.0f + std::exp(-x)); });
  return MakeOp(std::move(out), {a}, [](Node& n) {
    Matrix g = n.grad_;
    const Matrix& y = n.value_;
    for (size_t i = 0; i < g.size(); ++i) {
      g.data()[i] *= y.data()[i] * (1.0f - y.data()[i]);
    }
    Accumulate(*n.parents_[0], g);
  });
}

Var Exp(const Var& a) {
  Matrix out = a.value();
  out.Apply([](float x) { return std::exp(x); });
  return MakeOp(std::move(out), {a}, [](Node& n) {
    Accumulate(*n.parents_[0], nerglob::Mul(n.grad_, n.value_));
  });
}

Var Log(const Var& a, float eps) {
  Matrix out = a.value();
  out.Apply([eps](float x) { return std::log(x + eps); });
  return MakeOp(std::move(out), {a}, [eps](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix g = n.grad_;
    for (size_t i = 0; i < g.size(); ++i) g.data()[i] /= (x.data()[i] + eps);
    Accumulate(*n.parents_[0], g);
  });
}

Var Transpose(const Var& a) {
  return MakeOp(a.value().Transposed(), {a}, [](Node& n) {
    Accumulate(*n.parents_[0], n.grad_.Transposed());
  });
}

Var SoftmaxRows(const Var& a) {
  return MakeOp(nerglob::SoftmaxRows(a.value()), {a}, [](Node& n) {
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

Var LogSoftmaxRows(const Var& a) {
  return MakeOp(nerglob::LogSoftmaxRows(a.value()), {a}, [](Node& n) {
    const Matrix& logp = n.value_;
    Matrix dx(logp.rows(), logp.cols());
    for (size_t r = 0; r < logp.rows(); ++r) {
      const float* lr = logp.Row(r);
      const float* gr = n.grad_.Row(r);
      double gsum = 0.0;
      for (size_t c = 0; c < logp.cols(); ++c) gsum += gr[c];
      float* dr = dx.Row(r);
      for (size_t c = 0; c < logp.cols(); ++c) {
        dr[c] = gr[c] - static_cast<float>(gsum) * std::exp(lr[c]);
      }
    }
    Accumulate(*n.parents_[0], dx);
  });
}

Var MeanRows(const Var& a) {
  return MakeOp(nerglob::MeanRows(a.value()), {a}, [](Node& n) {
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
  Matrix out(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* row = a.value().Row(r);
    double acc = 0.0;
    for (size_t c = 0; c < a.cols(); ++c) acc += row[c];
    out.At(r, 0) = static_cast<float>(acc);
  }
  return MakeOp(std::move(out), {a}, [](Node& n) {
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
  Matrix out(1, 1);
  out.At(0, 0) = a.value().Sum();
  return MakeOp(std::move(out), {a}, [](Node& n) {
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
  std::vector<Matrix> values;
  values.reserve(parts.size());
  for (const Var& p : parts) values.push_back(p.value());
  return MakeOp(VStack(values), parts, [](Node& n) {
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
  std::vector<Matrix> values;
  values.reserve(parts.size());
  for (const Var& p : parts) values.push_back(p.value());
  return MakeOp(HStack(values), parts, [](Node& n) {
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
  return MakeOp(a.value().SliceRows(begin, count), {a}, [begin](Node& n) {
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
  NERGLOB_CHECK_LE(begin + count, a.cols());
  Matrix out(a.rows(), count);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* src = a.value().Row(r) + begin;
    std::copy(src, src + count, out.Row(r));
  }
  return MakeOp(std::move(out), {a}, [begin, count](Node& n) {
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
  Matrix out(indices.size(), a.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    NERGLOB_CHECK(indices[i] >= 0 && static_cast<size_t>(indices[i]) < a.rows());
    const float* src = a.value().Row(static_cast<size_t>(indices[i]));
    std::copy(src, src + a.cols(), out.Row(i));
  }
  return MakeOp(std::move(out), {a}, [indices](Node& n) {
    const Matrix& x = n.parents_[0]->value_;
    Matrix dx(x.rows(), x.cols());
    for (size_t i = 0; i < indices.size(); ++i) {
      const float* g = n.grad_.Row(i);
      float* d = dx.Row(static_cast<size_t>(indices[i]));
      for (size_t c = 0; c < x.cols(); ++c) d[c] += g[c];
    }
    Accumulate(*n.parents_[0], dx);
  });
}

Var MaxOverRows(const Var& a) {
  NERGLOB_CHECK_GT(a.rows(), 0u);
  Matrix out(1, a.cols());
  std::vector<size_t> argmax(a.cols(), 0);
  for (size_t c = 0; c < a.cols(); ++c) {
    float best = a.value().At(0, c);
    for (size_t r = 1; r < a.rows(); ++r) {
      if (a.value().At(r, c) > best) {
        best = a.value().At(r, c);
        argmax[c] = r;
      }
    }
    out.At(0, c) = best;
  }
  return MakeOp(std::move(out), {a}, [argmax](Node& n) {
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
  Matrix out(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.Row(r);
    double s = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) s += static_cast<double>(row[c]) * row[c];
    const float norm = static_cast<float>(std::sqrt(s)) + eps;
    float* o = out.Row(r);
    for (size_t c = 0; c < x.cols(); ++c) o[c] = row[c] / norm;
  }
  return MakeOp(std::move(out), {a}, [eps](Node& n) {
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
  const Matrix& x = a.value();
  const size_t n_cols = x.cols();
  Matrix out(x.rows(), n_cols);
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.Row(r);
    double mean = 0.0;
    for (size_t c = 0; c < n_cols; ++c) mean += row[c];
    mean /= n_cols;
    double var = 0.0;
    for (size_t c = 0; c < n_cols; ++c) {
      const double d = row[c] - mean;
      var += d * d;
    }
    var /= n_cols;
    const double inv_std = 1.0 / std::sqrt(var + eps);
    float* o = out.Row(r);
    for (size_t c = 0; c < n_cols; ++c) {
      const float xhat = static_cast<float>((row[c] - mean) * inv_std);
      o[c] = gamma.value().At(0, c) * xhat + beta.value().At(0, c);
    }
  }
  return MakeOp(std::move(out), {a, gamma, beta}, [eps](Node& n) {
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
  Matrix out(1, 1);
  double nll = 0.0;
  for (size_t r = 0; r < targets.size(); ++r) {
    NERGLOB_CHECK(targets[r] >= 0 && static_cast<size_t>(targets[r]) < logits.cols());
    nll -= logp.At(r, static_cast<size_t>(targets[r]));
  }
  out.At(0, 0) = static_cast<float>(nll / targets.size());
  return MakeOp(std::move(out), {logits}, [targets, logp](Node& n) {
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
  return MakeOp(std::move(value), inputs, std::move(backward));
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
