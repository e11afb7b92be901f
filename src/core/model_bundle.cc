#include "core/model_bundle.h"

#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "io/checkpoint_io.h"
#include "io/tensor_io.h"
#include "nn/module.h"

namespace nerglob::core {

namespace {

/// Bumped when the kTagBundleConfig payload layout changes.
constexpr uint32_t kBundleLayoutVersion = 1;

std::string ConfigKeyString(const ModelBundleConfig& c) {
  return StrFormat(
      "d_model=%zu heads=%zu layers=%zu ff_mult=%zu max_seq=%zu buckets=%zu "
      "labels=%d hidden=%zu pooling=%d normalize=%d threshold=%.6f seed=%llu",
      c.lm.d_model, c.lm.num_heads, c.lm.num_layers, c.lm.ff_mult,
      c.lm.max_seq_len, c.lm.subword_buckets, c.lm.num_labels,
      c.classifier_hidden, static_cast<int>(c.pooling),
      c.normalize_embedder ? 1 : 0,
      static_cast<double>(c.cluster_threshold),
      static_cast<unsigned long long>(c.seed));
}

/// a * b and a + b, saturating at UINT64_MAX instead of wrapping.
uint64_t SatMul(uint64_t a, uint64_t b) {
  uint64_t r = 0;
  return __builtin_mul_overflow(a, b, &r) ? UINT64_MAX : r;
}
uint64_t SatAdd(uint64_t a, uint64_t b) {
  uint64_t r = 0;
  return __builtin_add_overflow(a, b, &r) ? UINT64_MAX : r;
}

/// A lower bound on the bytes the module records of a bundle built from
/// `c` take: the encoder's subword, position and kind tables plus each
/// layer's 4·d² attention and 2·ff·d² feed-forward weights, as f32.
uint64_t MinParameterBytes(const lm::MicroBertConfig& c) {
  const uint64_t d = c.d_model;
  const uint64_t table_rows =
      SatAdd(SatAdd(c.subword_buckets, c.max_seq_len),
             lm::MicroBert::kNumTokenKinds);
  const uint64_t per_layer =
      SatMul(SatAdd(4, SatMul(2, c.ff_mult)), SatMul(d, d));
  const uint64_t floats =
      SatAdd(SatMul(table_rows, d), SatMul(c.num_layers, per_layer));
  return SatMul(floats, sizeof(float));
}

}  // namespace

ModelBundle::ModelBundle(const ModelBundleConfig& config)
    : ModelBundle(config, /*draw_init=*/true) {}

ModelBundle::ModelBundle(const ModelBundleConfig& config, bool draw_init)
    : config_(config) {
  // The seed derivation reproduces the harness's historical init stream
  // exactly: one Rng (seed*31+4) constructs the embedder then the
  // classifier, so parameters match systems trained before the bundle
  // refactor (and cached weights remain loadable).
  const uint64_t model_seed = config.seed * 31 + 3;
  model_ = draw_init ? std::make_unique<lm::MicroBert>(config.lm, model_seed)
                     : lm::MicroBert::ShapeOnly(config.lm, model_seed);
  Rng init(config.seed * 31 + 4);
  Rng* rng = draw_init ? &init : nullptr;
  embedder_ = std::make_unique<PhraseEmbedder>(config.lm.d_model, rng,
                                               config.normalize_embedder);
  classifier_ = std::make_unique<EntityClassifier>(
      config.lm.d_model, config.classifier_hidden, rng, config.pooling);
}

const lm::MicroBert& ModelBundle::model() const {
  NERGLOB_CHECK(model_ != nullptr) << "empty ModelBundle";
  return *model_;
}

const PhraseEmbedder& ModelBundle::embedder() const {
  NERGLOB_CHECK(embedder_ != nullptr) << "empty ModelBundle";
  return *embedder_;
}

const EntityClassifier& ModelBundle::classifier() const {
  NERGLOB_CHECK(classifier_ != nullptr) << "empty ModelBundle";
  return *classifier_;
}

lm::MicroBert* ModelBundle::mutable_model() {
  NERGLOB_CHECK(model_ != nullptr) << "empty ModelBundle";
  return model_.get();
}

PhraseEmbedder* ModelBundle::mutable_embedder() {
  NERGLOB_CHECK(embedder_ != nullptr) << "empty ModelBundle";
  return embedder_.get();
}

EntityClassifier* ModelBundle::mutable_classifier() {
  NERGLOB_CHECK(classifier_ != nullptr) << "empty ModelBundle";
  return classifier_.get();
}

std::string ModelBundle::FingerprintOf(const ModelBundleConfig& config) {
  return StrFormat("%016llx", static_cast<unsigned long long>(
                                  Fnv1aHash(ConfigKeyString(config))));
}

Status ModelBundle::Save(io::TensorWriter* writer) const {
  if (!has_models()) {
    return Status::FailedPrecondition("cannot save an empty ModelBundle");
  }
  writer->PutU32(kBundleLayoutVersion);
  writer->PutU64(config_.lm.d_model);
  writer->PutU64(config_.lm.num_heads);
  writer->PutU64(config_.lm.num_layers);
  writer->PutU64(config_.lm.ff_mult);
  writer->PutU64(config_.lm.max_seq_len);
  writer->PutU64(config_.lm.subword_buckets);
  writer->PutF32(config_.lm.dropout);
  writer->PutI64(config_.lm.num_labels);
  writer->PutU64(config_.classifier_hidden);
  writer->PutU32(static_cast<uint32_t>(config_.pooling));
  writer->PutU32(config_.normalize_embedder ? 1 : 0);
  writer->PutF32(config_.cluster_threshold);
  writer->PutU64(config_.seed);
  writer->PutString(Fingerprint());
  NERGLOB_RETURN_IF_ERROR(writer->EndRecord(io::kTagBundleConfig));

  NERGLOB_RETURN_IF_ERROR(nn::SaveModule(writer, "micro_bert", *model_));
  NERGLOB_RETURN_IF_ERROR(
      nn::SaveModule(writer, "phrase_embedder", *embedder_));
  NERGLOB_RETURN_IF_ERROR(
      nn::SaveModule(writer, "entity_classifier", *classifier_));

  writer->PutU64(training_stats_.size());
  for (double v : training_stats_) writer->PutF64(v);
  return writer->EndRecord(io::kTagTrainingStats);
}

Status ModelBundle::Save(const std::string& path) const {
  // Crash-safe: temp + fsync + atomic rename, so a crash mid-save leaves
  // whatever was at `path` before, never a torn bundle.
  return io::WriteFileAtomically(
      path, [this](io::TensorWriter* writer) { return Save(writer); });
}

Result<ModelBundle> ModelBundle::Load(io::TensorReader* reader) {
  NERGLOB_RETURN_IF_ERROR(reader->NextRecord(io::kTagBundleConfig));
  uint32_t layout = 0;
  if (!reader->GetU32(&layout)) return reader->status();
  if (layout != kBundleLayoutVersion) {
    return Status::InvalidArgument(StrFormat(
        "'%s': bundle layout version mismatch: expected %u, found %u",
        reader->path().c_str(), kBundleLayoutVersion, layout));
  }
  ModelBundleConfig config;
  uint64_t d_model = 0, num_heads = 0, num_layers = 0, ff_mult = 0;
  uint64_t max_seq = 0, buckets = 0, hidden = 0, seed = 0;
  int64_t num_labels = 0;
  uint32_t pooling = 0, normalize = 0;
  std::string stored_fingerprint;
  if (!reader->GetU64(&d_model) || !reader->GetU64(&num_heads) ||
      !reader->GetU64(&num_layers) || !reader->GetU64(&ff_mult) ||
      !reader->GetU64(&max_seq) || !reader->GetU64(&buckets) ||
      !reader->GetF32(&config.lm.dropout) || !reader->GetI64(&num_labels) ||
      !reader->GetU64(&hidden) || !reader->GetU32(&pooling) ||
      !reader->GetU32(&normalize) ||
      !reader->GetF32(&config.cluster_threshold) || !reader->GetU64(&seed) ||
      !reader->GetString(&stored_fingerprint)) {
    return reader->status();
  }
  NERGLOB_RETURN_IF_ERROR(reader->ExpectRecordEnd());
  // Nothing is allocated from the config until it has passed, in order:
  // these limits, the fingerprint, and the bound of the file's size. The
  // config drives O(d_model^2 * num_layers) parameter allocations.
  constexpr uint64_t kMaxDim = 1ull << 20;
  if (d_model == 0 || d_model > kMaxDim || num_heads == 0 ||
      num_heads > kMaxDim || num_layers > 64 || ff_mult == 0 ||
      ff_mult > 64 || max_seq == 0 || max_seq > kMaxDim || buckets == 0 ||
      buckets > kMaxDim || num_labels <= 0 || num_labels > 1024 ||
      hidden == 0 || hidden > kMaxDim || pooling > 1) {
    return Status::InvalidArgument(StrFormat(
        "'%s': implausible bundle config (d_model=%llu heads=%llu "
        "layers=%llu)",
        reader->path().c_str(), static_cast<unsigned long long>(d_model),
        static_cast<unsigned long long>(num_heads),
        static_cast<unsigned long long>(num_layers)));
  }
  config.lm.d_model = d_model;
  config.lm.num_heads = num_heads;
  config.lm.num_layers = num_layers;
  config.lm.ff_mult = ff_mult;
  config.lm.max_seq_len = max_seq;
  config.lm.subword_buckets = buckets;
  config.lm.num_labels = static_cast<int>(num_labels);
  config.classifier_hidden = hidden;
  config.pooling = static_cast<PoolingMode>(pooling);
  config.normalize_embedder = normalize != 0;
  config.seed = seed;
  if (config.lm.d_model % config.lm.num_heads != 0) {
    return Status::InvalidArgument(StrFormat(
        "'%s': bundle config d_model %zu not divisible by num_heads %zu",
        reader->path().c_str(), config.lm.d_model, config.lm.num_heads));
  }

  const std::string fingerprint = FingerprintOf(config);
  if (fingerprint != stored_fingerprint) {
    return Status::InvalidArgument(StrFormat(
        "'%s': bundle fingerprint mismatch: stored %s, recomputed %s",
        reader->path().c_str(), stored_fingerprint.c_str(),
        fingerprint.c_str()));
  }
  const uint64_t min_bytes = MinParameterBytes(config.lm);
  if (min_bytes > reader->RemainingInFile()) {
    return Status::InvalidArgument(StrFormat(
        "'%s': bundle config needs at least %llu parameter bytes but %llu "
        "remain in the file",
        reader->path().c_str(), static_cast<unsigned long long>(min_bytes),
        static_cast<unsigned long long>(reader->RemainingInFile())));
  }

  ModelBundle bundle(config, /*draw_init=*/false);

  NERGLOB_RETURN_IF_ERROR(
      nn::LoadModule(reader, "micro_bert", bundle.model_.get()));
  NERGLOB_RETURN_IF_ERROR(
      nn::LoadModule(reader, "phrase_embedder", bundle.embedder_.get()));
  NERGLOB_RETURN_IF_ERROR(
      nn::LoadModule(reader, "entity_classifier", bundle.classifier_.get()));

  NERGLOB_RETURN_IF_ERROR(reader->NextRecord(io::kTagTrainingStats));
  uint64_t num_stats = 0;
  if (!reader->GetU64(&num_stats)) return reader->status();
  if (num_stats > 1024) {
    return Status::InvalidArgument(
        StrFormat("'%s': implausible training-stats count %llu",
                  reader->path().c_str(),
                  static_cast<unsigned long long>(num_stats)));
  }
  bundle.training_stats_.resize(num_stats);
  for (double& v : bundle.training_stats_) {
    if (!reader->GetF64(&v)) return reader->status();
  }
  NERGLOB_RETURN_IF_ERROR(reader->ExpectRecordEnd());
  return bundle;
}

Result<ModelBundle> ModelBundle::Load(const std::string& path) {
  io::TensorReader reader(path);
  return Load(&reader);
}

}  // namespace nerglob::core
