#include "core/ner_globalizer.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "common/check.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/local_ner.h"
#include "core/stages.h"
#include "io/tensor_io.h"

namespace nerglob::core {

namespace {

/// Layout of a session checkpoint's pipeline records, written first in the
/// kTagCheckpoint header. Version 7 stores only what the window cannot
/// give back: the messages as text (a hand-built token as its matching
/// form, offsets and kind), the mention pools (spans only, no
/// partitions), the finalized buffer and the evicted count. Restore
/// re-tokenizes and re-encodes the window, seeds the trie and the seed
/// support from it, then recomputes the phrase embeddings. The layouts
/// before it are described in docs/FORMATS.md.
constexpr uint32_t kCheckpointLayoutVersion = 7;

}  // namespace

void PutCheckpointLayout(io::TensorWriter* writer) {
  writer->PutU32(kCheckpointLayoutVersion);
}

Status CheckCheckpointLayout(io::TensorReader* reader) {
  uint32_t layout = 0;
  if (!reader->GetU32(&layout)) return reader->status();
  if (layout != kCheckpointLayoutVersion) {
    // Records from before they carried this field (layout 1's header,
    // every session record before layout 4) open with a u64 length or
    // counter, whose low half lands here and is refused as a mismatch. A
    // counter that happens to equal the version fails as layout drift.
    return Status::FailedPrecondition(StrFormat(
        "'%s': checkpoint layout version mismatch: expected %u, found %u",
        reader->path().c_str(), kCheckpointLayoutVersion, layout));
  }
  return Status::OK();
}

const char* PipelineStageName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kLocalOnly:
      return "local-only";
    case PipelineStage::kMentionExtraction:
      return "local+mention-extraction";
    case PipelineStage::kLocalEmbeddings:
      return "local+local-embeddings";
    case PipelineStage::kFullGlobal:
      return "full-global";
  }
  return "unknown";
}

NerGlobalizerConfig DefaultPipelineConfig(const ModelBundle& bundle) {
  NerGlobalizerConfig config;
  config.cluster_threshold = bundle.config().cluster_threshold;
  return config;
}

NerGlobalizer::NerGlobalizer(const ModelBundle* bundle,
                             NerGlobalizerConfig config)
    : bundle_(bundle), config_(config) {
  NERGLOB_CHECK(bundle != nullptr && bundle->has_models())
      << "a pipeline borrows a bundle that holds trained models";
  NERGLOB_CHECK(config.cluster_threshold < 1.0f)
      << "cosine clustering threshold must stay below the triplet margin";
}

Status NerGlobalizer::Checkpoint(io::TensorWriter* writer) const {
  PutCheckpointLayout(writer);
  writer->PutString(bundle_->Fingerprint());
  // The config is echoed so a checkpoint cannot be restored into a
  // pipeline that would interpret the state differently (other window,
  // other clustering cut).
  writer->PutF32(config_.cluster_threshold);
  writer->PutU64(config_.max_mention_span);
  writer->PutU64(config_.window_messages);
  writer->PutF64(local_seconds_);
  writer->PutF64(global_seconds_);
  NERGLOB_RETURN_IF_ERROR(writer->EndRecord(io::kTagCheckpoint));
  return state_.Save(writer);
}

Status NerGlobalizer::Restore(io::TensorReader* reader) {
  NERGLOB_RETURN_IF_ERROR(reader->NextRecord(io::kTagCheckpoint));
  NERGLOB_RETURN_IF_ERROR(CheckCheckpointLayout(reader));
  std::string fingerprint;
  float threshold = 0.0f;
  uint64_t max_span = 0, window = 0;
  double local_s = 0.0, global_s = 0.0;
  if (!reader->GetString(&fingerprint) || !reader->GetF32(&threshold) ||
      !reader->GetU64(&max_span) || !reader->GetU64(&window) ||
      !reader->GetF64(&local_s) ||
      !reader->GetF64(&global_s)) {
    return reader->Corrupt("checkpoint header", "fields");
  }
  NERGLOB_RETURN_IF_ERROR(reader->ExpectRecordEnd());
  const std::string bundle_fingerprint = bundle_->Fingerprint();
  if (fingerprint != bundle_fingerprint) {
    return Status::FailedPrecondition(StrFormat(
        "'%s': checkpoint was written against bundle '%s', this pipeline "
        "uses bundle '%s'",
        reader->path().c_str(), fingerprint.c_str(),
        bundle_fingerprint.c_str()));
  }
  if (threshold != config_.cluster_threshold ||
      max_span != config_.max_mention_span ||
      window != config_.window_messages) {
    return Status::FailedPrecondition(StrFormat(
        "'%s': checkpoint pipeline config (threshold=%.6f span=%llu "
        "window=%llu) does not match this pipeline's",
        reader->path().c_str(), static_cast<double>(threshold),
        static_cast<unsigned long long>(max_span),
        static_cast<unsigned long long>(window)));
  }
  // StreamState::Load is itself two-phase, so a corrupt state record
  // leaves this pipeline untouched; only the timing counters must wait
  // for it to succeed.
  NERGLOB_RETURN_IF_ERROR(state_.Load(reader, bundle_->model(),
                                      bundle_->embedder(),
                                      config_.process_batch_size));
  local_seconds_ = local_s;
  global_seconds_ = global_s;
  return Status::OK();
}

void NerGlobalizer::ProcessBatch(const std::vector<stream::Message>& batch) {
  RunStages(batch, {}, /*pre_encoded=*/false);
}

void NerGlobalizer::ProcessBatchPreEncoded(
    const std::vector<stream::Message>& batch,
    std::vector<lm::EncodeResult> encoded) {
  NERGLOB_CHECK_EQ(encoded.size(), batch.size());
  RunStages(batch, std::move(encoded), /*pre_encoded=*/true);
}

void NerGlobalizer::RunStages(const std::vector<stream::Message>& batch,
                              std::vector<lm::EncodeResult> encoded,
                              bool pre_encoded) {
  static const trace::TraceStage kStage("process_batch");
  trace::TraceSpan batch_span(kStage);
  WallTimer batch_timer;

  const ModelBundle& bundle = *bundle_;
  stages::StageContext ctx;
  ctx.config = &config_;
  ctx.batch = &batch;
  ctx.encoded = std::move(encoded);
  ctx.pre_encoded = pre_encoded;

  // The local/global split (Table IV's execution-time columns): LocalEncode
  // + IngestLocal are the Local NER step, everything after is Global NER.
  // A pre-encoded batch charges only the ingest here — its encode time was
  // spent by the caller. One local_ner span per batch, whichever path ran
  // (pipeline_test pins this).
  WallTimer local_timer;
  {
    static const trace::TraceStage kLocalStage("local_ner");
    trace::TraceSpan local_span(kLocalStage);
    stages::LocalEncode(bundle, state_, ctx);
    stages::IngestLocal(bundle, state_, ctx);
  }
  local_seconds_ += local_timer.ElapsedSeconds();

  WallTimer global_timer;
  stages::ExtractMentions(bundle, state_, ctx);
  stages::Evict(bundle, state_, ctx);
  global_seconds_ += global_timer.ElapsedSeconds();

  if (metrics::Enabled()) {
    static metrics::Gauge* const rate =
        metrics::MetricsRegistry::Global().GetGauge(
            "pipeline.sentences_per_second");
    const double elapsed = batch_timer.ElapsedSeconds();
    if (elapsed > 0.0) rate->Set(static_cast<double>(batch.size()) / elapsed);
  }
}

void NerGlobalizer::ProcessAll(const std::vector<stream::Message>& messages,
                               size_t batch_size) {
  if (batch_size == 0) batch_size = config_.process_batch_size;
  NERGLOB_CHECK_GT(batch_size, 0u);
  for (size_t i = 0; i < messages.size(); i += batch_size) {
    const size_t end = std::min(messages.size(), i + batch_size);
    ProcessBatch(std::vector<stream::Message>(
        messages.begin() + static_cast<std::ptrdiff_t>(i),
        messages.begin() + static_cast<std::ptrdiff_t>(end)));
  }
}

std::vector<FinalizedMessage> NerGlobalizer::TakeFinalized() {
  std::vector<FinalizedMessage> out;
  out.swap(state_.finalized);
  return out;
}

std::vector<std::vector<text::EntitySpan>> NerGlobalizer::Predictions(
    PipelineStage stage) {
  const std::vector<int64_t>& ids = state_.tweet_base.ids();
  std::unordered_map<int64_t, size_t> index_of;
  index_of.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) index_of[ids[i]] = i;
  std::vector<std::vector<text::EntitySpan>> out(ids.size());

  auto add_mention = [&](const stream::MentionRecord& m, text::EntityType type) {
    out[index_of.at(m.message_id)].push_back({m.begin_token, m.end_token, type});
  };

  switch (stage) {
    case PipelineStage::kLocalOnly: {
      for (size_t i = 0; i < ids.size(); ++i) {
        const stream::SentenceRecord* rec = state_.tweet_base.Find(ids[i]);
        out[i] = text::DecodeBio(rec->local_bio);
      }
      return out;  // no overlap resolution needed: BIO is non-overlapping
    }
    case PipelineStage::kMentionExtraction: {
      // Each surface is typed by the most frequent type its live local
      // spans carry (lowest type on a tie; kPerson when it has none).
      std::unordered_map<std::string, std::array<int, text::kNumEntityTypes>>
          votes;
      for (int64_t id : ids) {
        const stream::SentenceRecord* rec = state_.tweet_base.Find(id);
        for (const text::EntitySpan& span : text::DecodeBio(rec->local_bio)) {
          ++votes[SpanSurfaceString(rec->message, span.begin_token,
                                    span.end_token)]
                 [static_cast<size_t>(span.type)];
        }
      }
      for (const std::string& surface : state_.candidate_base.surfaces()) {
        auto it = votes.find(surface);
        text::EntityType type = text::EntityType::kPerson;
        if (it != votes.end()) {
          size_t best = 0;
          for (size_t t = 1; t < text::kNumEntityTypes; ++t) {
            if (it->second[t] > it->second[best]) best = t;
          }
          type = static_cast<text::EntityType>(best);
        }
        for (const auto& mention : state_.candidate_base.Mentions(surface)) {
          add_mention(mention, type);
        }
      }
      break;
    }
    case PipelineStage::kLocalEmbeddings: {
      const EntityClassifier& classifier = bundle_->classifier();
      for (const std::string& surface : state_.candidate_base.surfaces()) {
        for (const auto& mention : state_.candidate_base.Mentions(surface)) {
          const EntityClassifier::Prediction pred =
              classifier.Predict(mention.local_embedding);
          if (pred.is_entity()) add_mention(mention, pred.type());
        }
      }
      break;
    }
    case PipelineStage::kFullGlobal: {
      // Partitions are not stored: every live surface is clustered here,
      // and that is global-phase work (Table IV).
      WallTimer global_timer;
      const std::vector<std::string>& surfaces =
          state_.candidate_base.surfaces();
      const std::vector<std::vector<stream::CandidateEntry>> partitions =
          stages::BuildCandidates(bundle_->classifier(), state_, config_,
                                  surfaces);
      global_seconds_ += global_timer.ElapsedSeconds();
      for (size_t s = 0; s < surfaces.size(); ++s) {
        const auto& pool = state_.candidate_base.Mentions(surfaces[s]);
        for (const auto& entry : partitions[s]) {
          if (!entry.is_entity) continue;
          for (size_t mention_id : entry.mention_ids) {
            add_mention(pool[mention_id], entry.type);
          }
        }
      }
      break;
    }
  }
  for (auto& spans : out) spans = stages::ResolveOverlaps(std::move(spans));
  return out;
}

std::vector<stream::CandidateEntry> NerGlobalizer::Candidates(
    const std::string& surface) const {
  return std::move(stages::BuildCandidates(bundle_->classifier(), state_,
                                           config_, {surface})
                       .front());
}

}  // namespace nerglob::core
