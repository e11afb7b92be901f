#include "harness/experiment.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/check.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/stages.h"
#include "io/tensor_io.h"

namespace nerglob::harness {

namespace {

/// Hash of all options that affect trained parameters (the cache key).
std::string OptionsKey(const BuildOptions& o) {
  std::ostringstream os;
  os << data::kWorldVersion << '|' << o.scale << '|'
     << static_cast<int>(o.objective) << '|'
     << o.lm_config.d_model << '|' << o.lm_config.num_heads << '|'
     << o.lm_config.num_layers << '|' << o.lm_config.ff_mult << '|'
     << o.lm_config.max_seq_len << '|' << o.lm_config.subword_buckets << '|'
     << o.lm_config.dropout << '|' << o.pretrain_epochs << '|'
     << o.lm_epochs << '|'
     << o.kb_entities_per_topic_type << '|' << o.max_triplets << '|'
     << o.embedder_epochs << '|' << o.classifier_epochs << '|'
     << o.classifier_hidden << '|' << static_cast<int>(o.pooling) << '|'
     << o.normalize_embedder << '|' << o.subset_augmentation << '|' << o.seed;
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(Fnv1aHash(os.str())));
}

/// The architecture slice of the build options — what the bundle records.
core::ModelBundleConfig BundleConfigFromOptions(const BuildOptions& o) {
  core::ModelBundleConfig c;
  c.lm = o.lm_config;
  c.classifier_hidden = o.classifier_hidden;
  c.pooling = o.pooling;
  c.normalize_embedder = o.normalize_embedder;
  c.cluster_threshold = o.cluster_threshold;
  c.seed = o.seed;
  return c;
}

/// Baseline-cache blob: all parameter matrices in one checksummed record.
void SaveParams(const std::string& path, const std::vector<ag::Var>& params) {
  io::TensorWriter writer(path);
  writer.PutU64(params.size());
  for (const ag::Var& p : params) writer.PutMatrix(p.value());
  writer.EndRecord(io::kTagBlob);
  const Status st = writer.Finish();
  if (!st.ok()) {
    NERGLOB_LOG(kWarning) << "baseline cache write failed: " << st.ToString();
  }
}

bool LoadParams(const std::string& path, std::vector<ag::Var>* params) {
  io::TensorReader reader(path);
  if (!reader.NextRecord(io::kTagBlob).ok()) return false;
  uint64_t n = 0;
  if (!reader.GetU64(&n) || n != params->size()) return false;
  std::vector<Matrix> staged(params->size());
  for (size_t i = 0; i < staged.size(); ++i) {
    if (!reader.GetMatrix(&staged[i]) ||
        staged[i].rows() != (*params)[i].rows() ||
        staged[i].cols() != (*params)[i].cols()) {
      return false;
    }
  }
  if (!reader.ExpectRecordEnd().ok()) return false;
  for (size_t i = 0; i < staged.size(); ++i) {
    (*params)[i].mutable_value() = std::move(staged[i]);
  }
  return true;
}

}  // namespace

/// Packs the harness's provenance numbers into the bundle's stats vector
/// (and back). Order matters; kept stable across cache generations.
std::vector<double> StatsFromSystem(const TrainedSystem& s) {
  return {s.fine_tune_loss,
          s.embedder_result.train_loss,
          s.embedder_result.validation_loss,
          static_cast<double>(s.embedder_result.dataset_size),
          static_cast<double>(s.embedder_result.epochs_run),
          s.classifier_result.validation_macro_f1,
          static_cast<double>(s.classifier_result.num_candidates),
          static_cast<double>(s.d5_mention_examples)};
}

void StatsIntoSystem(const std::vector<double>& stats, TrainedSystem* s) {
  if (stats.size() < 8) return;
  s->fine_tune_loss = stats[0];
  s->embedder_result.train_loss = stats[1];
  s->embedder_result.validation_loss = stats[2];
  s->embedder_result.dataset_size = static_cast<size_t>(stats[3]);
  s->embedder_result.epochs_run = static_cast<int>(stats[4]);
  s->classifier_result.validation_macro_f1 = stats[5];
  s->classifier_result.num_candidates = static_cast<size_t>(stats[6]);
  s->d5_mention_examples = static_cast<size_t>(stats[7]);
}

BuildOptions TinyTestOptions() {
  BuildOptions options;
  options.scale = 0.08;
  options.lm_config.d_model = 32;
  options.lm_config.num_heads = 2;
  options.lm_config.num_layers = 1;
  options.lm_config.subword_buckets = 1024;
  options.max_triplets = 4000;
  options.embedder_epochs = 15;
  options.classifier_epochs = 40;
  options.kb_entities_per_topic_type = 10;
  options.cache_dir = "";  // always train fresh in tests
  return options;
}

double DefaultScale() {
  return env::EnvFloat("NERGLOB_SCALE", 0.25,
                       std::numeric_limits<double>::min(), 1.0);
}

std::string DefaultCacheDir() {
  const std::string dir = env::EnvString("NERGLOB_CACHE_DIR", "nerglob_cache",
                                         /*empty_is_unset=*/false);
  return dir == "none" ? std::string() : dir;
}

TrainedSystem BuildTrainedSystem(const BuildOptions& options) {
  TrainedSystem system;
  system.kb_train = data::KnowledgeBase::BuildProceduralOnly(
      options.kb_entities_per_topic_type, options.seed * 31 + 1);
  system.kb_eval = data::KnowledgeBase::BuildStandard(
      options.kb_entities_per_topic_type, options.seed * 31 + 2);
  system.bundle = core::ModelBundle(BundleConfigFromOptions(options));

  // Cache lookup: the trained bundle as a regular `.ngb` artifact (the
  // options hash keys the training recipe; the fingerprint check inside
  // ModelBundle::Load guards the architecture).
  std::string cache_path;
  if (!options.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.cache_dir, ec);
    cache_path = options.cache_dir + "/system_" + OptionsKey(options) + ".ngb";
    Result<core::ModelBundle> cached = core::ModelBundle::Load(cache_path);
    if (cached.ok() &&
        cached->Fingerprint() == system.bundle.Fingerprint()) {
      system.bundle = std::move(cached).value();
      StatsIntoSystem(system.bundle.training_stats(), &system);
      return system;
    }
  }

  NERGLOB_LOG(kInfo) << "training system (cache miss): scale " << options.scale
                     << ", d_model " << options.lm_config.d_model;

  // 0. Optional masked-LM pretraining on unlabeled text from both worlds.
  data::StreamGenerator train_gen(&system.kb_train);
  if (options.pretrain_epochs > 0) {
    data::StreamGenerator eval_world_gen(&system.kb_eval);
    std::vector<std::vector<text::Token>> corpus;
    for (const auto& msg :
         train_gen.Generate(data::MakeDatasetSpec("TRAIN", options.scale))) {
      corpus.push_back(msg.tokens);
    }
    for (const auto& msg :
         eval_world_gen.Generate(data::MakeDatasetSpec("BTC", options.scale))) {
      corpus.push_back(msg.tokens);  // unlabeled usage: tokens only
    }
    lm::PretrainOptions po;
    po.epochs = options.pretrain_epochs;
    po.seed = options.seed * 31 + 9;
    lm::PretrainMlm(system.bundle.mutable_model(), corpus, po);
  }

  // 1. Fine-tune Local NER on the TRAIN corpus (procedural world).
  auto train_msgs = train_gen.Generate(data::MakeDatasetSpec("TRAIN", options.scale));
  lm::FineTuneOptions ft;
  ft.epochs = options.lm_epochs;
  ft.seed = options.seed * 31 + 5;
  system.fine_tune_loss =
      lm::FineTuneForNer(system.bundle.mutable_model(),
                         data::ToLabeledSentences(train_msgs), ft);

  // 2. Collect D5 mention examples (eval world) for Global NER training.
  data::StreamGenerator eval_gen(&system.kb_eval);
  auto d5 = eval_gen.Generate(data::MakeDatasetSpec("D5", options.scale));
  auto examples = core::CollectMentionExamples(d5, system.bundle.model());
  system.d5_mention_examples = examples.size();

  // 3. Train the Phrase Embedder with the chosen contrastive objective.
  core::EmbedderTrainOptions eo;
  eo.objective = options.objective;
  eo.max_epochs = options.embedder_epochs;
  eo.max_triplets = options.max_triplets;
  eo.seed = options.seed * 31 + 6;
  system.embedder_result =
      core::TrainPhraseEmbedder(system.bundle.mutable_embedder(), examples, eo);

  // 4. Train the Entity Classifier on ground-truth clusters.
  core::ClassifierTrainOptions co;
  co.max_epochs = options.classifier_epochs;
  co.subset_augmentation = options.subset_augmentation;
  co.seed = options.seed * 31 + 7;
  system.classifier_result = core::TrainEntityClassifier(
      system.bundle.mutable_classifier(), system.bundle.embedder(), examples,
      co);
  NERGLOB_LOG(kInfo) << "trained: LM loss " << system.fine_tune_loss
                     << ", embedder val " << system.embedder_result.validation_loss
                     << ", classifier val macro-F1 "
                     << system.classifier_result.validation_macro_f1;

  system.bundle.set_training_stats(StatsFromSystem(system));
  if (!cache_path.empty()) {
    const Status st = system.bundle.Save(cache_path);
    if (!st.ok()) {
      NERGLOB_LOG(kWarning) << "system cache write failed: " << st.ToString();
    }
  }
  return system;
}

std::vector<std::vector<text::EntitySpan>> EmdGlobalizerPredictions(
    const core::NerGlobalizer& pipeline,
    const core::EntityClassifier& classifier) {
  const std::vector<int64_t>& ids = pipeline.message_ids();
  std::unordered_map<int64_t, size_t> index_of;
  index_of.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) index_of[ids[i]] = i;
  std::vector<std::vector<text::EntitySpan>> out(ids.size());

  const stream::CandidateBase& candidates = pipeline.candidate_base();
  for (const std::string& surface : candidates.surfaces()) {
    const auto& pool = candidates.Mentions(surface);
    if (pool.empty()) continue;
    const size_t dim = pool[0].local_embedding.cols();
    // One candidate per surface form: pool ALL mentions together
    // (no ambiguity-resolving clustering).
    const size_t take = std::min(pool.size(), core::stages::kMaxClusterPool);
    Matrix members(take, dim);
    for (size_t i = 0; i < take; ++i) {
      std::copy(pool[i].local_embedding.Row(0),
                pool[i].local_embedding.Row(0) + dim, members.Row(i));
    }
    const core::EntityClassifier::Prediction pred = classifier.Predict(members);
    if (!pred.is_entity()) continue;
    for (const auto& mention : pool) {
      out[index_of.at(mention.message_id)].push_back(
          {mention.begin_token, mention.end_token, text::EntityType::kPerson});
    }
  }
  for (auto& spans : out) spans = core::stages::ResolveOverlaps(std::move(spans));
  return out;
}

DatasetRun RunDataset(const TrainedSystem& system, const std::string& dataset,
                      double scale, size_t batch_size) {
  // Top-level span: every per-batch pipeline span nests under this one, so
  // stage.run_dataset.self_seconds isolates generation + scoring overhead
  // from the pipeline itself.
  static const trace::TraceStage kStage("run_dataset");
  trace::TraceSpan span(kStage);
  if (metrics::Enabled()) {
    static metrics::Counter* const runs =
        metrics::MetricsRegistry::Global().GetCounter(
            "harness.dataset_runs_total");
    runs->Increment();
  }
  DatasetRun run;
  run.dataset = dataset;
  data::StreamGenerator gen(&system.kb_eval);
  run.messages = gen.Generate(data::MakeDatasetSpec(dataset, scale));

  core::NerGlobalizer pipeline(&system.bundle,
                               core::DefaultPipelineConfig(system.bundle));
  pipeline.ProcessAll(run.messages, batch_size);
  NERGLOB_CHECK_EQ(pipeline.message_ids().size(), run.messages.size())
      << "prediction/message misalignment";

  const auto gold = GoldSpans(run.messages);
  for (int s = 0; s < 4; ++s) {
    run.stage_predictions[static_cast<size_t>(s)] =
        pipeline.Predictions(static_cast<core::PipelineStage>(s));
    run.stage_scores[static_cast<size_t>(s)] =
        eval::EvaluateNer(gold, run.stage_predictions[static_cast<size_t>(s)]);
  }
  run.emd_globalizer_predictions =
      EmdGlobalizerPredictions(pipeline, system.bundle.classifier());
  run.emd_globalizer_scores =
      eval::EvaluateNer(gold, run.emd_globalizer_predictions);
  run.local_seconds = pipeline.local_seconds();
  run.global_seconds = pipeline.global_seconds();
  return run;
}

BaselineSuite BuildBaselines(const TrainedSystem& system,
                             const BuildOptions& options) {
  BaselineSuite suite;
  baselines::AguilarNer::Config aguilar_cfg;
  suite.aguilar =
      std::make_unique<baselines::AguilarNer>(aguilar_cfg, options.seed * 97 + 1);
  suite.bert_ner = std::make_unique<baselines::BertNer>(options.lm_config,
                                                        options.seed * 97 + 2);
  suite.akbik = std::make_unique<baselines::AkbikPooledNer>(
      &system.bundle.model(), options.seed * 97 + 3);
  suite.hire = std::make_unique<baselines::HireNer>(&system.bundle.model(),
                                                    options.seed * 97 + 4);
  suite.docl = std::make_unique<baselines::DoclNer>(&system.bundle.model());

  // Cache: Aguilar + BertNer + Akbik/HIRE heads in one blob.
  std::vector<ag::Var> params = suite.aguilar->Parameters();
  {
    auto more = suite.bert_ner->model().Parameters();
    params.insert(params.end(), more.begin(), more.end());
  }
  // Akbik/HIRE heads are private; retrain them cheaply every run instead of
  // exposing internals — their training is two quick head-only passes.
  std::string cache_path;
  if (!options.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.cache_dir, ec);
    cache_path =
        options.cache_dir + "/baselines_" + OptionsKey(options) + ".bin";
  }
  data::StreamGenerator train_gen(&system.kb_train);
  auto train_msgs =
      train_gen.Generate(data::MakeDatasetSpec("TRAIN", options.scale));
  auto train_set = data::ToLabeledSentences(train_msgs);

  bool loaded = !cache_path.empty() && LoadParams(cache_path, &params);
  if (!loaded) {
    suite.aguilar->Train(train_set, options.lm_epochs, 2e-3f,
                         options.seed * 97 + 5);
    auto clean_msgs = train_gen.Generate(
        data::MakeDatasetSpec("TRAIN_CLEAN", options.scale));
    lm::FineTuneOptions ft;
    ft.epochs = options.lm_epochs;
    ft.seed = options.seed * 97 + 6;
    suite.bert_ner->Train(data::ToLabeledSentences(clean_msgs), ft);
    if (!cache_path.empty()) SaveParams(cache_path, params);
  }
  // Head-only training for the memory baselines (fast; not cached).
  suite.akbik->Train(train_set, /*epochs=*/2, 2e-3f, options.seed * 97 + 7);
  suite.hire->Train(train_set, /*epochs=*/2, 2e-3f, options.seed * 97 + 8);
  return suite;
}

eval::NerScores ScoreBaseline(baselines::NerBaseline* baseline,
                              const std::vector<stream::Message>& messages) {
  return eval::EvaluateNer(GoldSpans(messages), baseline->Predict(messages));
}

std::vector<std::vector<text::EntitySpan>> GoldSpans(
    const std::vector<stream::Message>& messages) {
  std::vector<std::vector<text::EntitySpan>> gold;
  gold.reserve(messages.size());
  for (const auto& m : messages) gold.push_back(m.gold_spans);
  return gold;
}

}  // namespace nerglob::harness
