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
  if (metrics::Enabled() && ag::NoGradScope::Current() != nullptr) {
    // Counts inference forwards only, apart from training's tape.
    static metrics::Counter* const applies =
        metrics::MetricsRegistry::Global().GetCounter("nn.linear_apply_total");
    applies->Increment();
  }
  return ag::LinearForward(x, weight_, bias_);
}

Embedding::Embedding(size_t vocab_size, size_t dim, Rng* rng) {
  table_ = ag::Var(rng != nullptr ? Matrix::Randn(vocab_size, dim, 0.1f, rng)
                                   : Matrix(vocab_size, dim),
                   /*requires_grad=*/true);
}

ag::Var Embedding::Forward(const std::vector<int>& ids) const {
  return ag::GatherRows(table_, ids);
}

ag::Var Embedding::ForwardMean(const std::vector<int>& ids,
                               const std::vector<size_t>& bag_ends) const {
  return ag::GatherMeanRows(table_, ids, bag_ends);
}

LayerNorm::LayerNorm(size_t dim) {
  gamma_ = ag::Var(Matrix(1, dim, 1.0f), /*requires_grad=*/true);
  beta_ = ag::Var(Matrix(1, dim), /*requires_grad=*/true);
}

ag::Var LayerNorm::Forward(const ag::Var& x) const {
  return ag::LayerNormRows(x, gamma_, beta_);
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
  // Each parameter is read straight into the matrix the module already
  // holds, once its stored shape matches.
  for (size_t i = 0; i < params.size(); ++i) {
    uint64_t rows = 0, cols = 0;
    if (!reader->GetU64(&rows) || !reader->GetU64(&cols)) {
      return reader->status();
    }
    Matrix& value = params[i].mutable_value();
    if (rows != value.rows() || cols != value.cols()) {
      return Status::InvalidArgument(StrFormat(
          "'%s': module '%s' parameter %zu shape mismatch: expected "
          "%zux%zu, found %llux%llu",
          reader->path().c_str(), found.c_str(), i, value.rows(),
          value.cols(), static_cast<unsigned long long>(rows),
          static_cast<unsigned long long>(cols)));
    }
    if (!reader->GetFloats(value.data(), value.size())) return reader->status();
  }
  return reader->ExpectRecordEnd();
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
