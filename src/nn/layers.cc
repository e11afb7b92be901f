#include "nn/layers.h"

#include <cmath>
#include <fstream>

#include "common/check.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "io/tensor_io.h"

namespace nerglob::nn {

Linear::Linear(size_t in_features, size_t out_features, Rng* rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight_ = ag::Var(
      rng != nullptr
          ? Matrix::RandUniform(in_features, out_features, limit, rng)
          : Matrix(in_features, out_features),
      /*requires_grad=*/true);
  bias_ = ag::Var(Matrix(1, out_features), /*requires_grad=*/true);
}

ag::Var Linear::Forward(const ag::Var& x) const {
  return ag::LinearForward(x, weight_, bias_);
}

void Linear::ApplyInto(const Matrix& x, Matrix* out) const {
  const Matrix& w = weight_.value();
  const Matrix& b = bias_.value();
  NERGLOB_CHECK_EQ(x.cols(), w.rows());
  if (metrics::Enabled()) {
    // Distinguishes graph-free inference forwards from autograd Forward()
    // calls in pipeline snapshots.
    static metrics::Counter* const applies =
        metrics::MetricsRegistry::Global().GetCounter("nn.linear_apply_total");
    applies->Increment();
  }
  // Single gemm path for every shape. The old m==1 dot-product special
  // case over W^T was bit-identical to the gemm by construction but
  // scalar-serial per output; the SIMD kernel vectorizes over the output
  // columns, which wins even for one-row inputs.
  MatMulAddBiasInto(x, w, b, out);
}

Embedding::Embedding(size_t vocab_size, size_t dim, Rng* rng) {
  table_ = ag::Var(rng != nullptr ? Matrix::Randn(vocab_size, dim, 0.1f, rng)
                                   : Matrix(vocab_size, dim),
                   /*requires_grad=*/true);
}

ag::Var Embedding::Forward(const std::vector<int>& ids) const {
  return ag::GatherRows(table_, ids);
}

LayerNorm::LayerNorm(size_t dim) {
  gamma_ = ag::Var(Matrix(1, dim, 1.0f), /*requires_grad=*/true);
  beta_ = ag::Var(Matrix(1, dim), /*requires_grad=*/true);
}

ag::Var LayerNorm::Forward(const ag::Var& x) const {
  return ag::LayerNormRows(x, gamma_, beta_);
}

void LayerNorm::ApplyInto(const Matrix& x, Matrix* out) const {
  // 1e-5f is the ag::LayerNormRows default; the eval mirror must match it
  // for bit-identity with Forward(...).value().
  LayerNormRowsInto(x, gamma_.value(), beta_.value(), /*eps=*/1e-5f, out);
}

Mlp::Mlp(const std::vector<size_t>& dims, Rng* rng) {
  NERGLOB_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

ag::Var Mlp::Forward(const ag::Var& x) const {
  ag::Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) h = ag::Relu(h);
  }
  return h;
}

void Mlp::ApplyInto(const Matrix& x, Matrix* out,
                    common::ScratchArena* scratch) const {
  common::ScratchFrame frame(scratch);
  const Matrix* cur = &x;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    Matrix* h = frame.Get(cur->rows(), layers_[i].weight().cols());
    layers_[i].ApplyInto(*cur, h);
    ReluInPlace(h);  // static-dispatch relu, same `v > 0 ? v : 0` as ag::Relu
    cur = h;
  }
  layers_.back().ApplyInto(*cur, out);
}

std::vector<ag::Var> Mlp::Parameters() const {
  std::vector<ag::Var> out;
  for (const Linear& l : layers_) {
    for (const ag::Var& p : l.Parameters()) out.push_back(p);
  }
  return out;
}

Status SaveModule(io::TensorWriter* writer, std::string_view name,
                  const Module& module) {
  writer->PutString(name);
  const std::vector<ag::Var> params = module.Parameters();
  writer->PutU64(params.size());
  for (const ag::Var& p : params) writer->PutMatrix(p.value());
  return writer->EndRecord(io::kTagModule);
}

Status LoadModule(io::TensorReader* reader, std::string_view name,
                  Module* module) {
  NERGLOB_RETURN_IF_ERROR(reader->NextRecord(io::kTagModule));
  std::string found;
  uint64_t count = 0;
  if (!reader->GetString(&found) || !reader->GetU64(&count)) {
    return reader->status();
  }
  if (found != name) {
    return Status::InvalidArgument(StrFormat(
        "'%s': module name mismatch: expected '%s', found '%s'",
        reader->path().c_str(), std::string(name).c_str(), found.c_str()));
  }
  std::vector<ag::Var> params = module->Parameters();
  if (count != params.size()) {
    return Status::InvalidArgument(StrFormat(
        "'%s': module '%s' parameter count mismatch (architecture "
        "changed?): expected %zu, found %llu",
        reader->path().c_str(), found.c_str(), params.size(),
        static_cast<unsigned long long>(count)));
  }
  // Stage every value before touching the module so a corrupt or
  // mismatched record leaves the target untouched.
  std::vector<Matrix> values(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    if (!reader->GetMatrix(&values[i])) return reader->status();
    if (values[i].rows() != params[i].rows() ||
        values[i].cols() != params[i].cols()) {
      return Status::InvalidArgument(StrFormat(
          "'%s': module '%s' parameter %zu shape mismatch: expected "
          "%zux%zu, found %zux%zu",
          reader->path().c_str(), found.c_str(), i, params[i].rows(),
          params[i].cols(), values[i].rows(), values[i].cols()));
    }
  }
  NERGLOB_RETURN_IF_ERROR(reader->ExpectRecordEnd());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].mutable_value() = std::move(values[i]);
  }
  return Status::OK();
}

Status SaveModuleParameters(const Module& module, const std::string& path) {
  io::TensorWriter writer(path);
  NERGLOB_RETURN_IF_ERROR(SaveModule(&writer, "module", module));
  return writer.Finish();
}

Status LoadModuleParameters(const std::string& path, Module* module) {
  io::TensorReader reader(path);
  return LoadModule(&reader, "module", module);
}

std::vector<Matrix> SnapshotParameters(const std::vector<ag::Var>& params) {
  std::vector<Matrix> out;
  out.reserve(params.size());
  for (const ag::Var& p : params) out.push_back(p.value());
  return out;
}

void RestoreParameters(const std::vector<Matrix>& snapshot,
                       std::vector<ag::Var>* params) {
  NERGLOB_CHECK_EQ(snapshot.size(), params->size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    (*params)[i].mutable_value() = snapshot[i];
  }
}

}  // namespace nerglob::nn
