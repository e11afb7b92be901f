#ifndef NERGLOB_HARNESS_EXPERIMENT_H_
#define NERGLOB_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/global_baselines.h"
#include "baselines/local_baselines.h"
#include "core/model_bundle.h"
#include "core/ner_globalizer.h"
#include "core/training.h"
#include "data/generator.h"
#include "data/knowledge_base.h"
#include "eval/metrics.h"

namespace nerglob::harness {

/// Everything the experiments share: the two worlds (train/eval) and the
/// trained model bundle (Local NER encoder + Phrase Embedder + Entity
/// Classifier + the config they were built with).
struct TrainedSystem {
  data::KnowledgeBase kb_train;  ///< procedural-only (novel-entity condition)
  data::KnowledgeBase kb_eval;   ///< core + procedural
  core::ModelBundle bundle;
  core::EmbedderTrainResult embedder_result;
  core::ClassifierTrainResult classifier_result;
  double fine_tune_loss = 0.0;
  size_t d5_mention_examples = 0;
};

/// Knobs for BuildTrainedSystem. `scale` shrinks every dataset (Table I
/// sizes) proportionally; experiments default to a fraction of paper scale
/// to keep CPU wall-time reasonable (documented in EXPERIMENTS.md).
struct BuildOptions {
  double scale = 0.25;
  core::EmbedderObjective objective = core::EmbedderObjective::kTriplet;
  lm::MicroBertConfig lm_config;      // defaults from lm/micro_bert.h
  /// Masked-LM pretraining epochs on an unlabeled corpus before NER
  /// fine-tuning (0 = skip; the paper's BERTweet arrives pretrained).
  int pretrain_epochs = 0;
  int lm_epochs = 5;
  size_t kb_entities_per_topic_type = 32;
  size_t max_triplets = 20000;
  int embedder_epochs = 40;
  int classifier_epochs = 120;
  size_t classifier_hidden = 48;
  float cluster_threshold = 0.8f;
  /// Ablation knobs (DESIGN.md Sec. 5).
  core::PoolingMode pooling = core::PoolingMode::kAttention;
  bool normalize_embedder = true;   ///< Eq. 2 L2 normalization
  double subset_augmentation = 0.5; ///< classifier sub-cluster augmentation
  uint64_t seed = 7;
  /// When non-empty, trained parameters are cached in this directory and
  /// reloaded on the next run with identical options (key = options hash).
  std::string cache_dir;
};

/// The miniature configuration shared by the trained-system test fixtures
/// (pipeline_test, model_bundle_test, streaming_session_test, serve_test):
/// scale 0.08, a 1-layer d_model=32 encoder, shortened training schedules,
/// caching disabled. Trains in seconds while still exercising every stage.
BuildOptions TinyTestOptions();

/// Builds the full system: generates TRAIN and D5, fine-tunes MicroBert,
/// collects D5 mention examples, trains the Phrase Embedder (chosen
/// objective) and the Entity Classifier. Deterministic in `options`.
TrainedSystem BuildTrainedSystem(const BuildOptions& options);

/// Packs/unpacks the harness's provenance numbers (training losses, set
/// sizes) into the bundle's stats vector. The order is stable so stats
/// survive a save/load round trip of the bundle.
std::vector<double> StatsFromSystem(const TrainedSystem& system);
void StatsIntoSystem(const std::vector<double>& stats, TrainedSystem* system);

/// The result of running one dataset through the pipeline.
struct DatasetRun {
  std::string dataset;
  std::vector<stream::Message> messages;
  /// Predictions per stage, index = static_cast<int>(PipelineStage).
  std::array<std::vector<std::vector<text::EntitySpan>>, 4> stage_predictions;
  std::array<eval::NerScores, 4> stage_scores;
  /// EMD-Globalizer-variant output (untyped; see EmdGlobalizerPredictions)
  /// and its scores.
  std::vector<std::vector<text::EntitySpan>> emd_globalizer_predictions;
  eval::NerScores emd_globalizer_scores;
  double local_seconds = 0.0;
  double global_seconds = 0.0;
};

/// EMD Globalizer (the predecessor system, paper ref. [8]) read off a
/// pipeline's live window: collective processing *without* type-aware
/// clustering — every surface form is one candidate (the first
/// core::stages::kMaxClusterPool mentions pooled together) and
/// `classifier` only decides entity vs non-entity. Spans carry a dummy
/// type; score with NerScores::emd. Sec. VI-D: the full pipeline improves
/// EMD over this by resolving entity/non-entity surface-form ambiguity
/// per cluster. Aligned with pipeline.message_ids().
std::vector<std::vector<text::EntitySpan>> EmdGlobalizerPredictions(
    const core::NerGlobalizer& pipeline,
    const core::EntityClassifier& classifier);

/// Generates a dataset from the eval world and runs the full pipeline over
/// it in batches, scoring every ablation stage. `batch_size == 0` (the
/// default) uses NerGlobalizerConfig::process_batch_size.
DatasetRun RunDataset(const TrainedSystem& system, const std::string& dataset,
                      double scale, size_t batch_size = 0);

/// Gold spans of a message list (aligned with predictions).
std::vector<std::vector<text::EntitySpan>> GoldSpans(
    const std::vector<stream::Message>& messages);

/// The five baseline systems of Tables III and V, trained/configured on the
/// same worlds as `system`. Aguilar/BERT-NER train on the TRAIN (resp.
/// TRAIN_CLEAN) corpora; Akbik/HIRE heads train on TRAIN over the frozen
/// pipeline encoder; DocL-NER wraps the pipeline's local model directly.
struct BaselineSuite {
  std::unique_ptr<baselines::AguilarNer> aguilar;
  std::unique_ptr<baselines::BertNer> bert_ner;
  std::unique_ptr<baselines::AkbikPooledNer> akbik;
  std::unique_ptr<baselines::HireNer> hire;
  std::unique_ptr<baselines::DoclNer> docl;
};

/// Builds and trains the baselines (cached in options.cache_dir like the
/// main system). `system` must outlive the returned suite (Akbik/HIRE/DocL
/// hold pointers to its encoder).
BaselineSuite BuildBaselines(const TrainedSystem& system,
                             const BuildOptions& options);

/// Scores one baseline on a message list.
eval::NerScores ScoreBaseline(baselines::NerBaseline* baseline,
                              const std::vector<stream::Message>& messages);

/// Default scale for experiments, overridable via the NERGLOB_SCALE
/// environment variable (e.g. NERGLOB_SCALE=1.0 for paper-size datasets).
double DefaultScale();

/// Default cache dir ("nerglob_cache" under the current directory),
/// overridable via NERGLOB_CACHE_DIR; set to "none" to disable caching.
std::string DefaultCacheDir();

}  // namespace nerglob::harness

#endif  // NERGLOB_HARNESS_EXPERIMENT_H_
