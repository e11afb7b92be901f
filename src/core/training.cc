#include "core/training.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/check.h"
#include "core/local_ner.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/train_util.h"
#include "stream/tweet_base.h"
#include "trie/candidate_trie.h"

namespace nerglob::core {

namespace {

/// A mined triplet: indices into the example vector.
struct Triplet {
  size_t anchor;
  size_t positive;
  size_t negative;
};

/// Candidate identity during training: (surface, label) — the ground-truth
/// cluster key.
using CandidateKey = std::pair<std::string, int>;

std::map<CandidateKey, std::vector<size_t>> GroupByCandidate(
    const std::vector<MentionExample>& examples) {
  std::map<CandidateKey, std::vector<size_t>> groups;
  for (size_t i = 0; i < examples.size(); ++i) {
    groups[{examples[i].surface, examples[i].label}].push_back(i);
  }
  return groups;
}

/// Mention Triplet Mining (Sec. VI): positives from the same candidate;
/// negatives prefer a different-type candidate sharing the surface form
/// (the ambiguity the clustering step must resolve), with augmentation from
/// different-surface different-type mentions otherwise.
std::vector<Triplet> MineTriplets(const std::vector<MentionExample>& examples,
                                  size_t max_triplets, Rng* rng) {
  auto groups = GroupByCandidate(examples);
  std::map<std::string, std::vector<const std::vector<size_t>*>> by_surface;
  for (const auto& [key, members] : groups) {
    by_surface[key.first].push_back(&members);
  }

  std::vector<Triplet> triplets;
  triplets.reserve(max_triplets);
  // Anchor order: round-robin over all examples with >= 2 same-candidate
  // mentions, repeated until the budget is filled.
  std::vector<size_t> anchors;
  for (const auto& [key, members] : groups) {
    if (members.size() >= 2) {
      anchors.insert(anchors.end(), members.begin(), members.end());
    }
  }
  if (anchors.empty() || examples.size() < 3) return triplets;
  rng->Shuffle(&anchors);

  size_t cursor = 0;
  size_t attempts = 0;
  const size_t max_attempts = max_triplets * 4 + 64;
  while (triplets.size() < max_triplets && attempts++ < max_attempts) {
    const size_t anchor = anchors[cursor];
    cursor = (cursor + 1) % anchors.size();
    const MentionExample& a = examples[anchor];
    const auto& own_group = groups.at({a.surface, a.label});

    // Positive: another mention of the same candidate.
    size_t positive = anchor;
    for (int tries = 0; tries < 8 && positive == anchor; ++tries) {
      positive = own_group[rng->NextBelow(own_group.size())];
    }
    if (positive == anchor) continue;

    // Negative: same surface, different label if available.
    size_t negative = anchor;
    const auto& surface_groups = by_surface.at(a.surface);
    std::vector<const std::vector<size_t>*> other_groups;
    for (const auto* g : surface_groups) {
      if (examples[(*g)[0]].label != a.label) other_groups.push_back(g);
    }
    if (!other_groups.empty()) {
      const auto* g = other_groups[rng->NextBelow(other_groups.size())];
      negative = (*g)[rng->NextBelow(g->size())];
    } else {
      // Augmentation: any mention of a different label.
      for (int tries = 0; tries < 32; ++tries) {
        const size_t cand = rng->NextBelow(examples.size());
        if (examples[cand].label != a.label) {
          negative = cand;
          break;
        }
      }
      if (examples[negative].label == a.label) continue;
    }
    triplets.push_back({anchor, positive, negative});
  }
  return triplets;
}

ag::Var EmbedExample(const PhraseEmbedder& embedder, const MentionExample& ex) {
  return embedder.Forward(ex.token_embeddings, 0, ex.token_embeddings.rows());
}

double TripletSetLoss(const PhraseEmbedder& embedder,
                      const std::vector<MentionExample>& examples,
                      const std::vector<Triplet>& triplets, float margin) {
  if (triplets.empty()) return 0.0;
  double total = 0.0;
  for (const Triplet& t : triplets) {
    ag::Var loss = nn::TripletCosineLoss(EmbedExample(embedder, examples[t.anchor]),
                                         EmbedExample(embedder, examples[t.positive]),
                                         EmbedExample(embedder, examples[t.negative]),
                                         margin);
    total += loss.value().At(0, 0);
  }
  return total / static_cast<double>(triplets.size());
}

EmbedderTrainResult TrainWithTriplets(PhraseEmbedder* embedder,
                                      const std::vector<MentionExample>& examples,
                                      const EmbedderTrainOptions& options) {
  Rng rng(options.seed);
  std::vector<Triplet> triplets = MineTriplets(examples, options.max_triplets, &rng);
  EmbedderTrainResult result;
  result.dataset_size = triplets.size();
  if (triplets.size() < 4) return result;

  const size_t val_count = std::max<size_t>(
      1, static_cast<size_t>(triplets.size() * options.validation_fraction));
  std::vector<Triplet> val(triplets.end() - static_cast<std::ptrdiff_t>(val_count),
                           triplets.end());
  triplets.resize(triplets.size() - val_count);

  nn::Adam optimizer(embedder->Parameters(), options.lr);
  nn::EarlyStopper stopper(options.patience, /*higher_is_better=*/false);
  std::vector<ag::Var> params = embedder->Parameters();

  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    rng.Shuffle(&triplets);
    double epoch_loss = 0.0;
    size_t i = 0;
    while (i < triplets.size()) {
      optimizer.ZeroGrad();
      const size_t end = std::min(triplets.size(), i + options.batch_size);
      std::vector<ag::Var> losses;
      losses.reserve(end - i);
      for (; i < end; ++i) {
        const Triplet& t = triplets[i];
        losses.push_back(nn::TripletCosineLoss(
            EmbedExample(*embedder, examples[t.anchor]),
            EmbedExample(*embedder, examples[t.positive]),
            EmbedExample(*embedder, examples[t.negative]), options.margin));
      }
      ag::Var batch_loss =
          ag::ScalarMul(ag::SumAll(ag::ConcatRows(losses)),
                        1.0f / static_cast<float>(losses.size()));
      batch_loss.Backward();
      optimizer.Step();
      epoch_loss += batch_loss.value().At(0, 0) * static_cast<double>(losses.size());
    }
    result.train_loss = epoch_loss / static_cast<double>(triplets.size());
    result.validation_loss =
        TripletSetLoss(*embedder, examples, val, options.margin);
    result.epochs_run = epoch + 1;
    stopper.Observe(result.validation_loss, params);
    if (stopper.ShouldStop()) break;
  }
  stopper.RestoreBest(&params);
  result.validation_loss = stopper.best_metric();
  return result;
}

EmbedderTrainResult TrainWithSoftNn(PhraseEmbedder* embedder,
                                    const std::vector<MentionExample>& examples,
                                    const EmbedderTrainOptions& options) {
  Rng rng(options.seed);
  auto groups = GroupByCandidate(examples);
  // Candidate id per example: the Soft-NN "class" is the candidate cluster.
  std::vector<int> candidate_of(examples.size(), 0);
  int next_id = 0;
  for (const auto& [key, members] : groups) {
    for (size_t idx : members) candidate_of[idx] = next_id;
    ++next_id;
  }
  // Keep only examples whose candidate has >= 2 mentions (others can never
  // be anchors or positives).
  std::vector<size_t> usable;
  for (const auto& [key, members] : groups) {
    if (members.size() >= 2) usable.insert(usable.end(), members.begin(), members.end());
  }
  EmbedderTrainResult result;
  result.dataset_size = usable.size();
  if (usable.size() < 4) return result;

  rng.Shuffle(&usable);
  const size_t val_count = std::max<size_t>(
      2, static_cast<size_t>(usable.size() * options.validation_fraction));
  std::vector<size_t> val(usable.end() - static_cast<std::ptrdiff_t>(val_count),
                          usable.end());
  usable.resize(usable.size() - val_count);

  nn::Adam optimizer(embedder->Parameters(), options.lr);
  nn::EarlyStopper stopper(options.patience, /*higher_is_better=*/false);
  std::vector<ag::Var> params = embedder->Parameters();
  const size_t batch = std::max<size_t>(8, options.batch_size / 4);

  auto batch_has_pair = [&](const std::vector<size_t>& ids) {
    std::map<int, int> counts;
    for (size_t id : ids) ++counts[candidate_of[id]];
    for (const auto& [c, n] : counts) {
      if (n >= 2) return true;
    }
    return false;
  };
  auto batch_loss_var = [&](const std::vector<size_t>& ids) {
    std::vector<ag::Var> rows;
    std::vector<int> labels;
    rows.reserve(ids.size());
    for (size_t id : ids) {
      rows.push_back(EmbedExample(*embedder, examples[id]));
      labels.push_back(candidate_of[id]);
    }
    return nn::SoftNearestNeighborLoss(ag::ConcatRows(rows), labels,
                                       options.temperature);
  };

  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    rng.Shuffle(&usable);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t i = 0; i + 1 < usable.size(); i += batch) {
      const size_t end = std::min(usable.size(), i + batch);
      std::vector<size_t> ids(usable.begin() + static_cast<std::ptrdiff_t>(i),
                              usable.begin() + static_cast<std::ptrdiff_t>(end));
      if (ids.size() < 2 || !batch_has_pair(ids)) continue;
      optimizer.ZeroGrad();
      ag::Var loss = batch_loss_var(ids);
      loss.Backward();
      optimizer.Step();
      epoch_loss += loss.value().At(0, 0);
      ++batches;
    }
    if (batches == 0) break;
    result.train_loss = epoch_loss / static_cast<double>(batches);
    result.validation_loss =
        batch_has_pair(val) ? batch_loss_var(val).value().At(0, 0) : result.train_loss;
    result.epochs_run = epoch + 1;
    stopper.Observe(result.validation_loss, params);
    if (stopper.ShouldStop()) break;
  }
  stopper.RestoreBest(&params);
  if (result.epochs_run > 0) result.validation_loss = stopper.best_metric();
  return result;
}

}  // namespace

std::vector<MentionExample> CollectMentionExamples(
    const std::vector<stream::Message>& labeled, const lm::MicroBert& model,
    size_t max_mention_span) {
  std::vector<const std::vector<text::Token>*> sentences;
  sentences.reserve(labeled.size());
  for (const stream::Message& message : labeled) {
    sentences.push_back(&message.tokens);
  }
  std::vector<lm::EncodeResult> encoded = model.EncodeMany(sentences);
  StreamState state;
  IngestEncodedBatch(labeled, &encoded, &state);

  std::vector<MentionExample> examples;
  for (size_t i = 0; i < labeled.size(); ++i) {
    const stream::Message& message = labeled[i];
    if (state.tweet_base.Find(message.id) == nullptr) continue;
    const Matrix& token_embeddings = encoded[i].embeddings;
    std::vector<std::string> match_tokens;
    for (const auto& tok : message.tokens) match_tokens.push_back(tok.match);

    for (const trie::TokenSpan& span :
         state.trie.FindLongestMatches(match_tokens, max_mention_span)) {
      if (span.begin >= token_embeddings.rows()) continue;
      const size_t emb_end = std::min(span.end, token_embeddings.rows());

      // Label against gold: exact match -> type; disjoint -> non-entity;
      // partial overlap -> skip.
      int label = kNonEntityClass;
      bool skip = false;
      for (const text::EntitySpan& gold : message.gold_spans) {
        if (gold.begin_token == span.begin && gold.end_token == span.end) {
          label = static_cast<int>(gold.type);
          break;
        }
        if (span.begin < gold.end_token && gold.begin_token < span.end) {
          skip = true;
          break;
        }
      }
      if (skip) continue;

      MentionExample ex;
      ex.surface = SpanSurfaceString(message, span.begin, span.end);
      ex.label = label;
      ex.token_embeddings =
          token_embeddings.SliceRows(span.begin, emb_end - span.begin);
      examples.push_back(std::move(ex));
    }
  }
  return examples;
}

EmbedderTrainResult TrainPhraseEmbedder(PhraseEmbedder* embedder,
                                        const std::vector<MentionExample>& examples,
                                        const EmbedderTrainOptions& options) {
  if (options.objective == EmbedderObjective::kTriplet) {
    return TrainWithTriplets(embedder, examples, options);
  }
  return TrainWithSoftNn(embedder, examples, options);
}

ClassifierTrainResult TrainEntityClassifier(
    EntityClassifier* classifier, const PhraseEmbedder& embedder,
    const std::vector<MentionExample>& examples,
    const ClassifierTrainOptions& options) {
  // Ground-truth clusters: mentions grouped by candidate (surface+label),
  // embedded once with the (frozen) trained Phrase Embedder.
  auto groups = GroupByCandidate(examples);
  struct Candidate {
    Matrix members;  // (m, d)
    int label;
  };
  std::vector<Candidate> candidates;
  for (const auto& [key, member_ids] : groups) {
    const size_t d = embedder.dim();
    Matrix members(member_ids.size(), d);
    for (size_t j = 0; j < member_ids.size(); ++j) {
      const Matrix emb = embedder.Embed(
          examples[member_ids[j]].token_embeddings, 0,
          examples[member_ids[j]].token_embeddings.rows());
      std::copy(emb.Row(0), emb.Row(0) + d, members.Row(j));
    }
    candidates.push_back({std::move(members), key.second});
  }

  ClassifierTrainResult result;
  result.num_candidates = candidates.size();
  if (candidates.size() < 5) return result;

  Rng rng(options.seed);
  rng.Shuffle(&candidates);
  const size_t val_count = std::max<size_t>(
      2, static_cast<size_t>(candidates.size() * options.validation_fraction));
  std::vector<Candidate> val(
      std::make_move_iterator(candidates.end() - static_cast<std::ptrdiff_t>(val_count)),
      std::make_move_iterator(candidates.end()));
  candidates.resize(candidates.size() - val_count);

  nn::Adam optimizer(classifier->Parameters(), options.lr);
  nn::EarlyStopper stopper(options.patience, /*higher_is_better=*/true);
  std::vector<ag::Var> params = classifier->Parameters();

  auto validation_macro_f1 = [&]() {
    std::array<size_t, kNumClassifierClasses> tp{}, fp{}, fn{};
    for (const Candidate& c : val) {
      const auto pred = classifier->Predict(c.members);
      if (pred.cls == c.label) {
        ++tp[static_cast<size_t>(c.label)];
      } else {
        ++fp[static_cast<size_t>(pred.cls)];
        ++fn[static_cast<size_t>(c.label)];
      }
    }
    double macro = 0.0;
    int classes = 0;
    for (int c = 0; c < kNumClassifierClasses; ++c) {
      const size_t support = tp[static_cast<size_t>(c)] + fn[static_cast<size_t>(c)];
      if (support == 0) continue;
      const double p =
          tp[static_cast<size_t>(c)] + fp[static_cast<size_t>(c)] > 0
              ? static_cast<double>(tp[static_cast<size_t>(c)]) /
                    (tp[static_cast<size_t>(c)] + fp[static_cast<size_t>(c)])
              : 0.0;
      const double r = static_cast<double>(tp[static_cast<size_t>(c)]) / support;
      macro += (p + r) > 0 ? 2 * p * r / (p + r) : 0.0;
      ++classes;
    }
    return classes > 0 ? macro / classes : 0.0;
  };

  // Random-subset view of a candidate's members (subset augmentation).
  auto subset_members = [&rng](const Candidate& c) {
    const size_t m = c.members.rows();
    const size_t take = 1 + rng.NextBelow(m);
    std::vector<size_t> ids(m);
    for (size_t i = 0; i < m; ++i) ids[i] = i;
    rng.Shuffle(&ids);
    Matrix subset(take, c.members.cols());
    for (size_t i = 0; i < take; ++i) {
      std::copy(c.members.Row(ids[i]), c.members.Row(ids[i]) + c.members.cols(),
                subset.Row(i));
    }
    return subset;
  };

  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    rng.Shuffle(&candidates);
    size_t i = 0;
    while (i < candidates.size()) {
      optimizer.ZeroGrad();
      const size_t end = std::min(candidates.size(), i + options.batch_size);
      std::vector<ag::Var> losses;
      for (; i < end; ++i) {
        const bool augment = candidates[i].members.rows() > 1 &&
                             rng.NextBernoulli(options.subset_augmentation);
        const Matrix members =
            augment ? subset_members(candidates[i]) : candidates[i].members;
        losses.push_back(ag::CrossEntropyWithLogits(
            classifier->ForwardLogits(members), {candidates[i].label}));
      }
      ag::Var batch_loss =
          ag::ScalarMul(ag::SumAll(ag::ConcatRows(losses)),
                        1.0f / static_cast<float>(losses.size()));
      batch_loss.Backward();
      optimizer.Step();
    }
    result.epochs_run = epoch + 1;
    stopper.Observe(validation_macro_f1(), params);
    if (stopper.ShouldStop()) break;
  }
  stopper.RestoreBest(&params);
  result.validation_macro_f1 = stopper.best_metric();
  return result;
}

}  // namespace nerglob::core
