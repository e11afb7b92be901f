#include "lm/micro_bert.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common/check.h"
#include "lm/encode_cache.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "nn/optimizer.h"
#include "text/tokenizer.h"

namespace nerglob::lm {

namespace {

/// Matching form used for subword lookup: normalized (elongation-squeezed)
/// match text; URLs and mentions collapse to sentinel words so the model
/// learns one representation per class.
std::string LookupForm(const text::Token& token) {
  switch (token.kind) {
    case text::TokenKind::kUrl:
      return "<url>";
    case text::TokenKind::kMention:
      return "<mention>";
    case text::TokenKind::kNumber:
      return "<number>";
    default:
      return text::SqueezeElongation(token.match);
  }
}

/// Process-wide serial for cache identities. Starts at 1 so 0 never names
/// a live model (a default EncodeKey can't alias one).
uint64_t NextModelVersion() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

MicroBert::MicroBert(const MicroBertConfig& config, uint64_t seed)
    : MicroBert(config, seed, /*draw_init=*/true) {}

std::unique_ptr<MicroBert> MicroBert::ShapeOnly(const MicroBertConfig& config,
                                                uint64_t seed) {
  return std::unique_ptr<MicroBert>(
      new MicroBert(config, seed, /*draw_init=*/false));
}

MicroBert::MicroBert(const MicroBertConfig& config, uint64_t seed,
                     bool draw_init)
    : config_(config), model_version_(NextModelVersion()),
      subwords_(config.subword_buckets), dropout_rng_(seed ^ 0x9e37ULL) {
  // A null init Rng makes every layer allocate its parameters zero-filled.
  Rng init(seed);
  Rng* rng = draw_init ? &init : nullptr;
  subword_table_ = std::make_unique<nn::Embedding>(config.subword_buckets,
                                                   config.d_model, rng);
  position_table_ =
      std::make_unique<nn::Embedding>(config.max_seq_len, config.d_model, rng);
  kind_table_ =
      std::make_unique<nn::Embedding>(kNumTokenKinds, config.d_model, rng);
  for (size_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<nn::TransformerEncoderLayer>(
        config.d_model, config.num_heads, config.ff_mult, config.dropout, rng));
  }
  final_norm_ = std::make_unique<nn::LayerNorm>(config.d_model);
  head_ = std::make_unique<nn::Linear>(config.d_model,
                                       static_cast<size_t>(config.num_labels), rng);
}

ag::Var MicroBert::EmbedTokens(const std::vector<text::Token>& tokens) const {
  const size_t t_len = std::min(tokens.size(), config_.max_seq_len);
  NERGLOB_CHECK_GT(t_len, 0u);
  // Reused per thread, like MultiHeadSelfAttention's head list, so a warm
  // no-grad encode allocates nothing here whatever the sentence length.
  struct Buffers {
    std::vector<int> token_ids, ids, positions, kinds;
    std::vector<size_t> bag_ends;
    std::string marked;
  };
  thread_local Buffers buf;
  buf.ids.clear();
  buf.bag_ends.clear();
  buf.positions.clear();
  buf.kinds.clear();
  for (size_t t = 0; t < t_len; ++t) {
    subwords_.SubwordIdsInto(LookupForm(tokens[t]), &buf.token_ids,
                             &buf.marked);
    buf.ids.insert(buf.ids.end(), buf.token_ids.begin(), buf.token_ids.end());
    buf.bag_ends.push_back(buf.ids.size());
    buf.positions.push_back(static_cast<int>(t));
    buf.kinds.push_back(static_cast<int>(tokens[t].kind));
  }
  // Token embedding = mean of its subword bucket embeddings.
  ag::Var x = subword_table_->ForwardMean(buf.ids, buf.bag_ends);
  x = ag::Add(x, position_table_->Forward(buf.positions));
  x = ag::Add(x, kind_table_->Forward(buf.kinds));
  return x;
}

MicroBert::ForwardResult MicroBert::Forward(
    const std::vector<text::Token>& tokens, bool training,
    Rng* dropout_rng) const {
  ag::Var x = EmbedTokens(tokens);
  for (const auto& layer : layers_) {
    x = layer->Forward(x, training, dropout_rng);
  }
  ag::Var embeddings = final_norm_->Forward(x);
  ag::Var logits = head_->Forward(embeddings);
  return {embeddings, logits};
}

void MicroBert::BumpModelVersion() { model_version_ = NextModelVersion(); }

void MicroBert::BuildEncodeKey(const std::vector<text::Token>& tokens,
                               EncodeKey* key) const {
  const size_t t_len = std::min(tokens.size(), config_.max_seq_len);
  key->model_id = model_version_;
  key->seq.clear();
  key->seq.reserve(1 + 3 * t_len);
  // Total count first: bio labels pad to tokens.size(), so two sequences
  // equal up to max_seq_len but truncated differently must not alias.
  key->seq.push_back(static_cast<uint32_t>(tokens.size()));
  std::vector<int> ids;  // reused across tokens
  std::string marked;
  for (size_t t = 0; t < t_len; ++t) {
    subwords_.SubwordIdsInto(LookupForm(tokens[t]), &ids, &marked);
    key->seq.push_back(static_cast<uint32_t>(tokens[t].kind));
    key->seq.push_back(static_cast<uint32_t>(ids.size()));
    for (const int id : ids) key->seq.push_back(static_cast<uint32_t>(id));
  }
}

EncodeResult MicroBert::EncodeThroughCache(
    const std::vector<text::Token>& tokens, const EncodeKey& key,
    EncodeCache* cache) const {
  // The nested lm_encode span (miss path only) reports its time to this
  // span's children, so encode_cache self-time is pure cache overhead.
  static const trace::TraceStage kStage("encode_cache");
  trace::TraceSpan span(kStage);
  EncodeResult out;
  if (cache->Lookup(key, &out)) return out;
  out = EncodeUncached(tokens);
  cache->Insert(key, out);
  return out;
}

EncodeResult MicroBert::Encode(const std::vector<text::Token>& tokens) const {
  EncodeCache* const cache = EncodeCache::Global();
  if (cache == nullptr) return EncodeUncached(tokens);
  EncodeKey key;
  BuildEncodeKey(tokens, &key);
  return EncodeThroughCache(tokens, key, cache);
}

EncodeResult MicroBert::EncodeUncached(
    const std::vector<text::Token>& tokens) const {
  // Runs on pool workers inside EncodeMany. In the pipeline the span nests
  // under "local_ner" only on the caller thread, but aggregates globally.
  static const trace::TraceStage kStage("lm_encode");
  trace::TraceSpan span(kStage);
  if (metrics::Enabled()) {
    static metrics::Counter* const encoded_tokens =
        metrics::MetricsRegistry::Global().GetCounter("lm.tokens_total");
    encoded_tokens->Increment(tokens.size());
  }
  // Forward without dropout, under a NoGradScope: every activation lives
  // in this thread's scratch arena, and only the retained outputs (the
  // embeddings outlive this call in the TweetBase) are copied out.
  ag::NoGradScope scope(&common::ScratchArena::ThreadLocal());
  const ForwardResult fwd = Forward(tokens, /*training=*/false, nullptr);
  EncodeResult out;
  out.embeddings = fwd.embeddings.value();
  out.logits = fwd.logits.value();
  const Matrix& logits = out.logits;
  out.bio_labels.resize(logits.rows(), text::kBioOutside);
  for (size_t t = 0; t < logits.rows(); ++t) {
    const float* row = logits.Row(t);
    int best = 0;
    for (int c = 1; c < config_.num_labels; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out.bio_labels[t] = best;
  }
  // Tokens beyond max_seq_len were truncated by the encoder; pad labels
  // with O so the caller sees one label per input token.
  out.bio_labels.resize(tokens.size(), text::kBioOutside);
  return out;
}

std::vector<EncodeResult> MicroBert::EncodeMany(
    const std::vector<const std::vector<text::Token>*>& sentences) const {
  return EncodeMany(sentences, EncodeOptions{});
}

std::vector<EncodeResult> MicroBert::EncodeMany(
    const std::vector<const std::vector<text::Token>*>& sentences,
    const EncodeOptions& options) const {
  std::vector<EncodeResult> out(sentences.size());
  EncodeCache* const cache =
      !options.use_cache ? nullptr
      : options.cache_override != nullptr ? options.cache_override
                                          : EncodeCache::Global();
  // Key every sentence serially (cheap re-tokenization, no model math),
  // electing the first occurrence of each distinct key as representative.
  constexpr size_t kSkip = static_cast<size_t>(-1);
  std::vector<EncodeKey> keys(sentences.size());
  std::vector<size_t> rep(sentences.size(), kSkip);
  std::vector<size_t> uniques;
  uniques.reserve(sentences.size());
  {
    std::unordered_map<EncodeKey, size_t, EncodeKeyHash> first;
    first.reserve(sentences.size());
    for (size_t i = 0; i < sentences.size(); ++i) {
      if (sentences[i] == nullptr || sentences[i]->empty()) continue;
      if (!options.dedup) {
        rep[i] = i;
        uniques.push_back(i);
        continue;
      }
      BuildEncodeKey(*sentences[i], &keys[i]);
      const auto [it, inserted] = first.emplace(keys[i], i);
      rep[i] = it->second;
      if (inserted) uniques.push_back(i);
    }
  }

  // Encode each distinct sentence once, one per ParallelFor lane. Every
  // representative runs the full per-sentence op sequence independently,
  // so dedup preserves the batch-composition invariance: copies are the
  // bytes Encode would have produced for each duplicate slot.
  ParallelFor(0, uniques.size(), /*grain=*/1, [&](size_t j) {
    const size_t i = uniques[j];
    if (cache == nullptr) {
      out[i] = EncodeUncached(*sentences[i]);
      return;
    }
    if (!options.dedup) BuildEncodeKey(*sentences[i], &keys[i]);
    out[i] = EncodeThroughCache(*sentences[i], keys[i], cache);
  });

  // Fan copies out to duplicate slots.
  for (size_t i = 0; i < sentences.size(); ++i) {
    if (rep[i] != kSkip && rep[i] != i) out[i] = out[rep[i]];
  }
  return out;
}

std::vector<ag::Var> MicroBert::Parameters() const {
  std::vector<ag::Var> out;
  auto append = [&out](const std::vector<ag::Var>& ps) {
    out.insert(out.end(), ps.begin(), ps.end());
  };
  append(subword_table_->Parameters());
  append(position_table_->Parameters());
  append(kind_table_->Parameters());
  for (const auto& layer : layers_) append(layer->Parameters());
  append(final_norm_->Parameters());
  append(head_->Parameters());
  return out;
}

double FineTuneForNer(MicroBert* model, std::vector<LabeledSentence> train,
                      const FineTuneOptions& options) {
  NERGLOB_CHECK(!train.empty());
  Rng rng(options.seed);
  nn::Adam optimizer(model->Parameters(), options.lr);
  const size_t steps_per_epoch =
      (train.size() + options.batch_size - 1) / options.batch_size;
  const nn::LinearWarmupSchedule schedule(
      options.lr, steps_per_epoch * static_cast<size_t>(options.epochs),
      options.warmup_fraction);
  size_t global_step = 0;
  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&train);
    double epoch_loss = 0.0;
    size_t steps = 0;
    size_t i = 0;
    while (i < train.size()) {
      if (options.warmup_fraction > 0.0) {
        optimizer.set_lr(schedule.LearningRate(global_step));
      }
      ++global_step;
      optimizer.ZeroGrad();
      const size_t batch_end = std::min(train.size(), i + options.batch_size);
      double batch_loss = 0.0;
      for (; i < batch_end; ++i) {
        const LabeledSentence& ex = train[i];
        if (ex.tokens.empty()) continue;
        auto fwd = model->Forward(ex.tokens, /*training=*/true, &rng);
        std::vector<int> bio = ex.bio;
        bio.resize(fwd.logits.rows());  // align with truncation
        ag::Var loss = ag::CrossEntropyWithLogits(fwd.logits, bio);
        loss.Backward();
        batch_loss += loss.value().At(0, 0);
      }
      nn::ClipGradNorm(optimizer.params(), options.clip_norm);
      optimizer.Step();
      epoch_loss += batch_loss;
      ++steps;
    }
    last_epoch_loss = epoch_loss / static_cast<double>(train.size());
    (void)steps;
  }
  // The optimizer rewrote the parameter bytes in place: retire the old
  // cache identity so stale EncodeCache entries become unreachable.
  model->BumpModelVersion();
  return last_epoch_loss;
}

double PretrainMlm(MicroBert* model,
                   const std::vector<std::vector<text::Token>>& corpus,
                   const PretrainOptions& options) {
  NERGLOB_CHECK(!corpus.empty());
  Rng rng(options.seed);
  const size_t prediction_buckets =
      std::min<size_t>(model->config().subword_buckets, 2048);
  nn::Linear head(model->config().d_model, prediction_buckets, &rng);

  std::vector<ag::Var> params = model->Parameters();
  for (const ag::Var& p : head.Parameters()) params.push_back(p);
  nn::Adam optimizer(params, options.lr);

  std::vector<size_t> order(corpus.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t counted = 0;
    size_t i = 0;
    while (i < order.size()) {
      optimizer.ZeroGrad();
      const size_t end = std::min(order.size(), i + options.batch_size);
      for (; i < end; ++i) {
        const auto& sentence = corpus[order[i]];
        if (sentence.size() < 2) continue;
        // Mask ~15% of tokens (at least one).
        std::vector<text::Token> masked = sentence;
        std::vector<int> positions;
        std::vector<int> targets;
        const size_t limit =
            std::min(sentence.size(), model->config().max_seq_len);
        for (size_t t = 0; t < limit; ++t) {
          if (!rng.NextBernoulli(options.mask_probability)) continue;
          positions.push_back(static_cast<int>(t));
          targets.push_back(static_cast<int>(
              Fnv1aHash(sentence[t].match) % prediction_buckets));
          masked[t].match = "<mask>";
          masked[t].kind = text::TokenKind::kWord;
        }
        if (positions.empty()) {
          const size_t t = rng.NextBelow(limit);
          positions.push_back(static_cast<int>(t));
          targets.push_back(static_cast<int>(
              Fnv1aHash(sentence[t].match) % prediction_buckets));
          masked[t].match = "<mask>";
          masked[t].kind = text::TokenKind::kWord;
        }
        auto fwd = model->Forward(masked, /*training=*/true, &rng);
        ag::Var picked = ag::GatherRows(fwd.embeddings, positions);
        ag::Var loss = ag::CrossEntropyWithLogits(head.Forward(picked), targets);
        loss.Backward();
        epoch_loss += loss.value().At(0, 0);
        ++counted;
      }
      nn::ClipGradNorm(optimizer.params(), options.clip_norm);
      optimizer.Step();
    }
    last_epoch_loss = counted > 0 ? epoch_loss / static_cast<double>(counted) : 0.0;
  }
  model->BumpModelVersion();  // parameters mutated in place (see FineTuneForNer)
  return last_epoch_loss;
}

}  // namespace nerglob::lm
