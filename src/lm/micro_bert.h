#ifndef NERGLOB_LM_MICRO_BERT_H_
#define NERGLOB_LM_MICRO_BERT_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "text/bio.h"
#include "text/subword.h"
#include "text/token.h"

namespace nerglob::lm {

class EncodeCache;
struct EncodeKey;

/// Configuration for the MicroBert encoder. Defaults are sized for CPU
/// experiments; see DESIGN.md for the BERTweet substitution rationale.
struct MicroBertConfig {
  size_t d_model = 64;
  size_t num_heads = 4;
  size_t num_layers = 2;
  size_t ff_mult = 2;
  size_t max_seq_len = 48;
  size_t subword_buckets = 4096;
  float dropout = 0.1f;
  int num_labels = text::kNumBioLabels;
};

/// Eval-mode output of the encoder for one sentence.
struct EncodeResult {
  /// (T, d_model) contextual token embeddings — the "entity-aware token
  /// embeddings" stored in the TweetBase (Sec. III step 2): the encoder's
  /// final-layer output *before* the token-classification head.
  Matrix embeddings;
  /// (T, num_labels) classification logits.
  Matrix logits;
  /// Argmax BIO label per token.
  std::vector<int> bio_labels;
};

/// Per-call knobs for EncodeMany. The defaults are what every production
/// caller wants; benches and tests use the explicit overload to time or
/// verify the reference (dedup-off / cache-off) path.
struct EncodeOptions {
  /// Encode each distinct (key-equal) sentence in the batch once and fan
  /// copies out to its duplicates. Pays off even with the cache disabled —
  /// retweet-heavy batches routinely carry duplicate sentences.
  bool dedup = true;
  /// Consult the process-wide EncodeCache (a no-op unless
  /// NERGLOB_ENCODE_CACHE_MB enables one).
  bool use_cache = true;
  /// Tests/benches: use this cache instead of EncodeCache::Global().
  /// Ignored when use_cache is false.
  EncodeCache* cache_override = nullptr;
};

/// A from-scratch transformer encoder with a BIO token-classification head:
/// hashed-subword input embeddings + learned positions + token-kind
/// embeddings, `num_layers` pre-LN encoder layers, a final LayerNorm, and a
/// linear head. Plays the role of BERTweet in the paper's Local NER step.
class MicroBert : public nn::Module {
 public:
  /// Rows of the token-kind embedding table, one per text::TokenKind.
  static constexpr size_t kNumTokenKinds = 7;

  /// Draws every parameter from Rng(seed); `seed` also seeds the dropout
  /// stream.
  MicroBert(const MicroBertConfig& config, uint64_t seed);

  /// Shape-only construction for a loader that overwrites every parameter
  /// (ModelBundle::Load): each parameter is allocated zero-filled at the
  /// shape MicroBert(config, seed) gives it, and nothing is drawn. Model
  /// version, subword hasher and dropout stream are as for that
  /// constructor.
  static std::unique_ptr<MicroBert> ShapeOnly(const MicroBertConfig& config,
                                              uint64_t seed);

  /// Training-mode forward; both outputs participate in the graph.
  struct ForwardResult {
    ag::Var embeddings;  ///< (T, d_model)
    ag::Var logits;      ///< (T, num_labels)
  };
  ForwardResult Forward(const std::vector<text::Token>& tokens, bool training,
                        Rng* dropout_rng) const;

  /// Eval-mode encoding with argmax labels: Forward(tokens,
  /// /*training=*/false, ...) under an ag::NoGradScope, so the outputs are
  /// the tape's values while every activation lives in the calling
  /// thread's scratch arena and steady-state streaming makes no
  /// per-message heap allocation for activations. Thread-safe: the
  /// forward pass only reads parameters and each thread owns its arena.
  /// Consults the process-wide EncodeCache when one is enabled
  /// (NERGLOB_ENCODE_CACHE_MB > 0); a hit returns a copy of the cached
  /// bytes, bit-identical to a recompute.
  EncodeResult Encode(const std::vector<text::Token>& tokens) const;

  /// Encodes many sentences, gathered from any number of owners, over the
  /// shared thread pool: each pointed-to sentence runs the same
  /// no-grad Encode path, one per ParallelFor lane. Output is bit-identical for any NERGLOB_THREADS
  /// setting. Because every sentence runs the full per-sentence op
  /// sequence independently (no cross-sentence packing or padding state),
  /// results are bitwise independent of batch composition: any
  /// partition/permutation of a workload yields the same per-sentence
  /// bytes as calling Encode on it alone. Null/empty entries are left as
  /// default EncodeResult. Results keep input order.
  ///
  /// Runs with EncodeOptions defaults: identical sentences within the
  /// batch are encoded once (copies fanned out — bitwise identical by the
  /// batch-composition invariance above) and the process-wide EncodeCache
  /// is consulted when enabled.
  std::vector<EncodeResult> EncodeMany(
      const std::vector<const std::vector<text::Token>*>& sentences) const;

  /// As above with explicit per-call knobs. With dedup and the cache both
  /// off every non-empty sentence is encoded once in its own lane; benches
  /// time that as the reference.
  std::vector<EncodeResult> EncodeMany(
      const std::vector<const std::vector<text::Token>*>& sentences,
      const EncodeOptions& options) const;

  std::vector<ag::Var> Parameters() const override;

  const MicroBertConfig& config() const { return config_; }

  /// Serial naming this instance's current parameter bytes — the
  /// `model_id` half of every EncodeKey. Process-unique and refreshed on
  /// every in-place mutation, so cached entries from older bytes (or any
  /// other instance) can never be served.
  uint64_t model_version() const { return model_version_; }

  /// Gives the encoder a fresh cache identity. The training entry points
  /// (FineTuneForNer, PretrainMlm) call this after mutating parameters in
  /// place; any other code that writes parameter bytes directly must too,
  /// or the process-wide EncodeCache could serve pre-mutation results.
  void BumpModelVersion();

 private:
  MicroBert(const MicroBertConfig& config, uint64_t seed, bool draw_init);

  /// Builds the (T, d) input embedding matrix for a token sequence: each
  /// row the mean of its subword rows, plus position, plus kind.
  ag::Var EmbedTokens(const std::vector<text::Token>& tokens) const;

  /// The always-compute body of Encode (the no-grad forward pass);
  /// cache hits bypass it, so `lm_encode` spans and `lm.tokens_total`
  /// count only real encoder work.
  EncodeResult EncodeUncached(const std::vector<text::Token>& tokens) const;

  /// Flattens everything the Encode output bits depend on into `*key`
  /// (see EncodeKey in encode_cache.h for the layout).
  void BuildEncodeKey(const std::vector<text::Token>& tokens,
                      EncodeKey* key) const;

  /// Lookup-or-compute-and-insert under the `encode_cache` trace span.
  EncodeResult EncodeThroughCache(const std::vector<text::Token>& tokens,
                                  const EncodeKey& key,
                                  EncodeCache* cache) const;

  MicroBertConfig config_;
  uint64_t model_version_;
  text::HashedSubwordVocab subwords_;
  std::unique_ptr<nn::Embedding> subword_table_;
  std::unique_ptr<nn::Embedding> position_table_;
  std::unique_ptr<nn::Embedding> kind_table_;
  std::vector<std::unique_ptr<nn::TransformerEncoderLayer>> layers_;
  std::unique_ptr<nn::LayerNorm> final_norm_;
  std::unique_ptr<nn::Linear> head_;
  mutable Rng dropout_rng_;
};

/// One training example for NER fine-tuning.
struct LabeledSentence {
  std::vector<text::Token> tokens;
  std::vector<int> bio;  ///< gold BIO label per token
};

/// Options for FineTuneForNer.
struct FineTuneOptions {
  int epochs = 6;
  size_t batch_size = 8;   ///< sentences per optimizer step
  float lr = 1e-3f;
  float clip_norm = 5.0f;
  /// > 0 enables the BERT warmup + linear-decay schedule with this warmup
  /// fraction; 0 keeps a constant learning rate.
  double warmup_fraction = 0.0;
  uint64_t seed = 1;
};

/// Fine-tunes the encoder + head end-to-end with token-level cross-entropy
/// (the standard BERT NER recipe, Sec. IV). Returns the mean training loss
/// of the final epoch.
double FineTuneForNer(MicroBert* model, std::vector<LabeledSentence> train,
                      const FineTuneOptions& options);

/// Options for masked-language-model pretraining.
struct PretrainOptions {
  int epochs = 2;
  size_t batch_size = 8;
  float lr = 1e-3f;
  float mask_probability = 0.15f;  ///< BERT's masking rate
  float clip_norm = 5.0f;
  uint64_t seed = 3;
};

/// Masked-language-model pretraining on unlabeled sentences ("in practice
/// the language model is pre-trained [by] unsupervised learning of language
/// representations from large text corpora", Sec. IV). Masked tokens are
/// replaced by a <mask> sentinel; the objective predicts each masked
/// token's whole-word hash bucket with a projection head that is discarded
/// afterwards (only the encoder keeps the learning). Returns the mean loss
/// of the final epoch.
double PretrainMlm(MicroBert* model,
                   const std::vector<std::vector<text::Token>>& corpus,
                   const PretrainOptions& options);

}  // namespace nerglob::lm

#endif  // NERGLOB_LM_MICRO_BERT_H_
