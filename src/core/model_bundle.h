#ifndef NERGLOB_CORE_MODEL_BUNDLE_H_
#define NERGLOB_CORE_MODEL_BUNDLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/entity_classifier.h"
#include "core/phrase_embedder.h"
#include "lm/micro_bert.h"

namespace nerglob::io {
class TensorWriter;
class TensorReader;
}  // namespace nerglob::io

namespace nerglob::core {

/// Architecture + provenance of a trained system. Everything needed to
/// rebuild shape-identical models (and to re-run the exact training
/// recipe: the construction seed is part of the config).
struct ModelBundleConfig {
  lm::MicroBertConfig lm;
  size_t classifier_hidden = 48;
  PoolingMode pooling = PoolingMode::kAttention;
  bool normalize_embedder = true;
  /// The clustering cut the system was tuned with (Sec. V-C); consumers
  /// seed NerGlobalizerConfig::cluster_threshold from it.
  float cluster_threshold = 0.8f;
  /// Base seed for parameter initialization (the harness derives the
  /// per-model seeds from it, see ModelBundle's constructor).
  uint64_t seed = 7;
};

/// The immutable trained artifact of the paper's offline phase: one
/// MicroBert (Local NER encoder, which also embodies the hashed-subword
/// tokenizer vocab and the BIO label head), one PhraseEmbedder, one
/// EntityClassifier, plus the config they were built from and its
/// fingerprint. This is the unit that is trained once, saved as a `.ngb`
/// file, and shared read-only by any number of concurrent sessions
/// (NerGlobalizer / StreamingSession borrow `const ModelBundle&`).
///
/// Lifecycle: construct from a config (fresh deterministic init), train
/// via the mutable_*() accessors (offline phase, exclusive access), then
/// treat as const forever — every inference entry point of the contained
/// models is const and thread-safe.
///
/// On-disk format (`.ngb`): the common artifact framing of io/tensor_io.h
/// with one kTagBundleConfig record, three kTagModule records (micro_bert,
/// phrase_embedder, entity_classifier), and one kTagTrainingStats record.
/// See docs/ARCHITECTURE.md §7 for the byte-level spec.
class ModelBundle {
 public:
  /// An empty bundle (no models); the target shape for Load composition.
  ModelBundle() = default;

  /// Builds untrained models with deterministic seeding derived from
  /// config.seed. The derivation (model: seed*31+3; embedder/classifier
  /// share an Rng seeded seed*31+4, embedder first) reproduces the
  /// harness's historical init stream, so cached weights stay valid.
  explicit ModelBundle(const ModelBundleConfig& config);

  // Movable, not copyable (owns the models).
  ModelBundle(ModelBundle&&) = default;
  ModelBundle& operator=(ModelBundle&&) = default;
  ModelBundle(const ModelBundle&) = delete;
  ModelBundle& operator=(const ModelBundle&) = delete;

  /// False for a default-constructed bundle.
  bool has_models() const { return model_ != nullptr; }

  const lm::MicroBert& model() const;
  const PhraseEmbedder& embedder() const;
  const EntityClassifier& classifier() const;

  /// Offline-phase access for the training drivers. Training mutates
  /// parameters and must be exclusive; never call these once the bundle
  /// is shared across sessions.
  lm::MicroBert* mutable_model();
  PhraseEmbedder* mutable_embedder();
  EntityClassifier* mutable_classifier();

  const ModelBundleConfig& config() const { return config_; }

  /// Hex FNV-1a hash of the architecture config. Stored in `.ngb` files
  /// and in stream checkpoints: restoring a checkpoint onto a bundle with
  /// a different fingerprint fails instead of silently mixing models.
  std::string Fingerprint() const { return FingerprintOf(config_); }
  /// The fingerprint a bundle built from `config` has.
  static std::string FingerprintOf(const ModelBundleConfig& config);

  /// Harness-owned provenance doubles (training losses, counts, ...)
  /// carried through Save/Load so a loaded bundle can report how it was
  /// trained. Empty when never set.
  const std::vector<double>& training_stats() const { return training_stats_; }
  void set_training_stats(std::vector<double> stats) {
    training_stats_ = std::move(stats);
  }

  /// Writes the bundle to `path` in the `.ngb` format (docs/FORMATS.md).
  /// Crash-safe: written via temp + fsync + atomic rename with transient
  /// IO failures retried (io::WriteFileAtomically).
  Status Save(const std::string& path) const;
  /// Appends the bundle's records to an already-open artifact.
  Status Save(io::TensorWriter* writer) const;

  /// Reads a bundle saved with Save. Corrupt, truncated, hostile or
  /// version-mismatched files return a non-OK Status (never crash): the
  /// config is validated, fingerprinted and bounded by the file's size
  /// before anything is allocated. The models are built shape-only (no
  /// init drawn) and filled from the module records.
  static Result<ModelBundle> Load(const std::string& path);
  static Result<ModelBundle> Load(io::TensorReader* reader);

 private:
  /// With `draw_init` false every model is built shape-only: parameters
  /// zero-filled at their seeded shapes, nothing drawn. Only Load asks
  /// for that, and it overwrites every parameter.
  ModelBundle(const ModelBundleConfig& config, bool draw_init);

  ModelBundleConfig config_;
  std::unique_ptr<lm::MicroBert> model_;
  std::unique_ptr<PhraseEmbedder> embedder_;
  std::unique_ptr<EntityClassifier> classifier_;
  std::vector<double> training_stats_;
};

}  // namespace nerglob::core

#endif  // NERGLOB_CORE_MODEL_BUNDLE_H_
