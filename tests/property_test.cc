// Property-based tests: randomized sweeps (parameterized over seeds)
// checking invariants against brute-force oracles — the CRF against exact
// enumeration, the CTrie scan against a greedy reference implementation,
// BIO round-trips, clustering monotonicity, loss bounds, and autograd
// consistency on composite expressions.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/gradient_check.h"
#include "cluster/agglomerative.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "nn/crf.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "text/bio.h"
#include "text/tokenizer.h"
#include "trie/candidate_trie.h"

namespace nerglob {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

// ---------------------------------------------------------------------------
// CRF vs exact enumeration.

float BruteForceLogZ(const Matrix& emissions, const Matrix& trans,
                     const Matrix& start, const Matrix& end_scores) {
  const size_t t_len = emissions.rows();
  const size_t num_tags = emissions.cols();
  std::vector<int> tags(t_len, 0);
  double max_score = -1e30;
  std::vector<double> scores;
  // Enumerate all num_tags^t_len sequences.
  size_t total = 1;
  for (size_t t = 0; t < t_len; ++t) total *= num_tags;
  scores.reserve(total);
  for (size_t code = 0; code < total; ++code) {
    size_t c = code;
    for (size_t t = 0; t < t_len; ++t) {
      tags[t] = static_cast<int>(c % num_tags);
      c /= num_tags;
    }
    double s = start.At(0, static_cast<size_t>(tags[0])) +
               end_scores.At(0, static_cast<size_t>(tags[t_len - 1]));
    for (size_t t = 0; t < t_len; ++t) s += emissions.At(t, static_cast<size_t>(tags[t]));
    for (size_t t = 1; t < t_len; ++t) {
      s += trans.At(static_cast<size_t>(tags[t - 1]), static_cast<size_t>(tags[t]));
    }
    scores.push_back(s);
    max_score = std::max(max_score, s);
  }
  double acc = 0.0;
  for (double s : scores) acc += std::exp(s - max_score);
  return static_cast<float>(max_score + std::log(acc));
}

TEST_P(SeededProperty, CrfNllMatchesBruteForceEnumeration) {
  Rng rng(GetParam());
  const size_t num_tags = 3, t_len = 4;
  nn::LinearChainCrf crf(num_tags, &rng);
  Matrix emissions = Matrix::Randn(t_len, num_tags, 1.0f, &rng);
  std::vector<int> gold(t_len);
  for (auto& g : gold) g = static_cast<int>(rng.NextBelow(num_tags));

  const Matrix& trans = crf.Parameters()[0].value();
  const Matrix& start = crf.Parameters()[1].value();
  const Matrix& end_scores = crf.Parameters()[2].value();
  const float log_z = BruteForceLogZ(emissions, trans, start, end_scores);
  float gold_score = start.At(0, static_cast<size_t>(gold[0])) +
                     end_scores.At(0, static_cast<size_t>(gold[t_len - 1]));
  for (size_t t = 0; t < t_len; ++t) gold_score += emissions.At(t, static_cast<size_t>(gold[t]));
  for (size_t t = 1; t < t_len; ++t) {
    gold_score += trans.At(static_cast<size_t>(gold[t - 1]), static_cast<size_t>(gold[t]));
  }

  ag::Var nll = crf.NegLogLikelihood(ag::Constant(emissions), gold);
  EXPECT_NEAR(nll.value().At(0, 0), log_z - gold_score, 1e-3f);
}

TEST_P(SeededProperty, CrfViterbiMatchesBruteForceArgmax) {
  Rng rng(GetParam() * 7 + 1);
  const size_t num_tags = 3, t_len = 4;
  nn::LinearChainCrf crf(num_tags, &rng);
  Matrix emissions = Matrix::Randn(t_len, num_tags, 1.5f, &rng);
  const Matrix& trans = crf.Parameters()[0].value();
  const Matrix& start = crf.Parameters()[1].value();
  const Matrix& end_scores = crf.Parameters()[2].value();

  // Brute-force best sequence.
  size_t total = 1;
  for (size_t t = 0; t < t_len; ++t) total *= num_tags;
  double best = -1e30;
  std::vector<int> best_tags(t_len, 0), tags(t_len, 0);
  for (size_t code = 0; code < total; ++code) {
    size_t c = code;
    for (size_t t = 0; t < t_len; ++t) {
      tags[t] = static_cast<int>(c % num_tags);
      c /= num_tags;
    }
    double s = start.At(0, static_cast<size_t>(tags[0])) +
               end_scores.At(0, static_cast<size_t>(tags[t_len - 1]));
    for (size_t t = 0; t < t_len; ++t) s += emissions.At(t, static_cast<size_t>(tags[t]));
    for (size_t t = 1; t < t_len; ++t) {
      s += trans.At(static_cast<size_t>(tags[t - 1]), static_cast<size_t>(tags[t]));
    }
    if (s > best) {
      best = s;
      best_tags = tags;
    }
  }
  EXPECT_EQ(crf.Decode(emissions), best_tags);
}

// ---------------------------------------------------------------------------
// CTrie scan vs greedy reference.

std::vector<trie::TokenSpan> GreedyOracle(
    const std::vector<std::vector<std::string>>& surfaces,
    const std::vector<std::string>& sentence, size_t max_span) {
  auto is_surface = [&](size_t begin, size_t end) {
    std::vector<std::string> cand(sentence.begin() + static_cast<std::ptrdiff_t>(begin),
                                  sentence.begin() + static_cast<std::ptrdiff_t>(end));
    for (const auto& s : surfaces) {
      if (s == cand) return true;
    }
    return false;
  };
  std::vector<trie::TokenSpan> out;
  size_t i = 0;
  while (i < sentence.size()) {
    size_t best_end = 0;
    const size_t limit = std::min(sentence.size(), i + max_span);
    for (size_t j = i + 1; j <= limit; ++j) {
      if (is_surface(i, j)) best_end = j;
      // Note: the oracle (unlike the trie) checks every prefix length; the
      // trie stops at the first dead end. Align by only allowing matches
      // whose every prefix is a path — equivalently, build candidates so
      // dead ends cannot hide longer matches (see surface construction).
    }
    if (best_end > 0) {
      out.push_back({i, best_end});
      i = best_end;
    } else {
      ++i;
    }
  }
  return out;
}

TEST_P(SeededProperty, TrieScanMatchesGreedyOracle) {
  Rng rng(GetParam() * 13 + 5);
  const std::vector<std::string> alphabet = {"a", "b", "c", "d"};
  // Prefix-closed surface set: every multi-token surface's prefixes are
  // also surfaces, which makes the trie's dead-end behaviour identical to
  // the oracle's exhaustive prefix check.
  std::vector<std::vector<std::string>> surfaces;
  trie::CandidateTrie trie;
  for (int k = 0; k < 6; ++k) {
    std::vector<std::string> surface;
    const size_t len = 1 + rng.NextBelow(3);
    for (size_t t = 0; t < len; ++t) {
      surface.push_back(alphabet[rng.NextBelow(alphabet.size())]);
      surfaces.push_back(surface);
      trie.Insert(surface);
    }
  }
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> sentence;
    const size_t len = 1 + rng.NextBelow(12);
    for (size_t t = 0; t < len; ++t) {
      sentence.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    auto got = trie.FindLongestMatches(sentence, 4);
    auto want = GreedyOracle(surfaces, sentence, 4);
    EXPECT_EQ(got, want);
  }
}

// ---------------------------------------------------------------------------
// BIO round-trip.

TEST_P(SeededProperty, BioEncodeDecodeRoundTrip) {
  Rng rng(GetParam() * 17 + 3);
  for (int round = 0; round < 50; ++round) {
    const size_t len = 1 + rng.NextBelow(20);
    // Random non-overlapping typed spans.
    std::vector<text::EntitySpan> spans;
    size_t cursor = 0;
    while (cursor < len) {
      if (rng.NextBernoulli(0.4)) {
        const size_t span_len = 1 + rng.NextBelow(std::min<size_t>(3, len - cursor));
        spans.push_back({cursor, cursor + span_len,
                         static_cast<text::EntityType>(rng.NextBelow(4))});
        cursor += span_len;
      }
      ++cursor;
    }
    auto labels = text::EncodeBio(len, spans);
    auto decoded = text::DecodeBio(labels);
    EXPECT_EQ(decoded, spans);
  }
}

// ---------------------------------------------------------------------------
// Tokenizer invariants.

TEST_P(SeededProperty, TokenizerOffsetsAreConsistent) {
  Rng rng(GetParam() * 19 + 11);
  const std::vector<std::string> pieces = {
      "hello", "WORLD", "#Covid19", "@user",   "https://t.co/x1",
      ":)",    "123",   "don't",    "so!!",    "a,b",
      "U.S.",  "covid", "...",      "RT",      "yeah:("};
  text::Tokenizer tokenizer;
  for (int round = 0; round < 30; ++round) {
    std::string msg;
    const size_t n = 1 + rng.NextBelow(8);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) msg += ' ';
      msg += pieces[rng.NextBelow(pieces.size())];
    }
    auto tokens = tokenizer.Tokenize(msg);
    size_t prev_end = 0;
    for (const auto& tok : tokens) {
      EXPECT_LE(prev_end, tok.begin);
      EXPECT_LT(tok.begin, tok.end);
      EXPECT_LE(tok.end, msg.size());
      const std::string_view spelling = text::TokenText(msg, tok);
      EXPECT_EQ(spelling, msg.substr(tok.begin, tok.end - tok.begin));
      // The matching form folds the spelling: lowercased, and a hashtag
      // without its '#'.
      const size_t sigil =
          tok.kind == text::TokenKind::kHashtag && spelling.size() > 1 ? 1 : 0;
      EXPECT_EQ(tok.match, ToLowerAscii(spelling.substr(sigil)));
      prev_end = tok.end;
    }
    // Determinism.
    auto again = tokenizer.Tokenize(msg);
    ASSERT_EQ(again.size(), tokens.size());
    for (size_t i = 0; i < tokens.size(); ++i) {
      EXPECT_EQ(again[i], tokens[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Clustering invariants.

TEST_P(SeededProperty, ClusterCountMonotoneInThreshold) {
  Rng rng(GetParam() * 23 + 7);
  Matrix embs = Matrix::Randn(14, 6, 1.0f, &rng);
  size_t prev = SIZE_MAX;
  for (float threshold : {0.0f, 0.2f, 0.4f, 0.6f, 0.8f, 0.95f}) {
    auto result = cluster::AgglomerativeClusterCosine(embs, threshold);
    EXPECT_LE(result.num_clusters, prev);
    prev = result.num_clusters;
    // Assignment validity.
    for (int a : result.assignments) {
      EXPECT_GE(a, 0);
      EXPECT_LT(a, static_cast<int>(result.num_clusters));
    }
  }
}

// ---------------------------------------------------------------------------
// Loss bounds.

TEST_P(SeededProperty, TripletLossIsNonNegativeAndBounded) {
  Rng rng(GetParam() * 29 + 1);
  for (int round = 0; round < 20; ++round) {
    ag::Var a = ag::Constant(Matrix::Randn(1, 6, 1.0f, &rng));
    ag::Var p = ag::Constant(Matrix::Randn(1, 6, 1.0f, &rng));
    ag::Var n = ag::Constant(Matrix::Randn(1, 6, 1.0f, &rng));
    const float loss = nn::TripletCosineLoss(a, p, n, 1.0f).value().At(0, 0);
    EXPECT_GE(loss, 0.0f);
    // Cosine distances lie in [0,2] so the hinge is bounded by 2 + margin.
    EXPECT_LE(loss, 3.0f);
  }
}

TEST_P(SeededProperty, SoftNnLossIsNonNegative) {
  Rng rng(GetParam() * 31 + 9);
  for (int round = 0; round < 10; ++round) {
    const size_t b = 4 + rng.NextBelow(5);
    ag::Var x(Matrix::Randn(b, 5, 1.0f, &rng), false);
    std::vector<int> labels(b);
    for (auto& l : labels) l = static_cast<int>(rng.NextBelow(2));
    // Guarantee at least one positive pair.
    labels[0] = labels[1] = 0;
    const float loss =
        nn::SoftNearestNeighborLoss(x, labels, 0.5f).value().At(0, 0);
    EXPECT_GE(loss, -1e-5f);
    EXPECT_TRUE(std::isfinite(loss));
  }
}

// ---------------------------------------------------------------------------
// Autograd: composite expression gradient checks across seeds.

TEST_P(SeededProperty, CompositeExpressionGradients) {
  Rng rng(GetParam() * 37 + 2);
  ag::Var w1(Matrix::Randn(4, 6, 0.5f, &rng), true);
  ag::Var w2(Matrix::Randn(6, 3, 0.5f, &rng), true);
  ag::Var gamma(Matrix(1, 6, 1.0f), true);
  ag::Var beta(Matrix(1, 6), true);
  ag::Var x = ag::Constant(Matrix::Randn(2, 4, 1.0f, &rng));
  auto loss = [&] {
    ag::Var h = ag::LayerNormRows(ag::MatMul(x, w1), gamma, beta);
    ag::Var n = ag::L2NormalizeRows(ag::Tanh(h));
    return ag::CrossEntropyWithLogits(ag::MatMul(n, w2), {0, 2});
  };
  EXPECT_LT(ag::MaxGradientError(loss, w1), 3e-2f);
  EXPECT_LT(ag::MaxGradientError(loss, w2), 3e-2f);
  EXPECT_LT(ag::MaxGradientError(loss, gamma), 3e-2f);
}

// ---------------------------------------------------------------------------
// L2 normalization invariant.

TEST_P(SeededProperty, L2NormalizedRowsHaveUnitNorm) {
  Rng rng(GetParam() * 41 + 6);
  ag::Var x = ag::Constant(Matrix::Randn(5, 7, 2.0f, &rng));
  Matrix norms = RowL2Norms(ag::L2NormalizeRows(x).value());
  for (size_t r = 0; r < norms.rows(); ++r) {
    EXPECT_NEAR(norms.At(r, 0), 1.0f, 1e-4f);
  }
}

// ---------------------------------------------------------------------------
// Optimizer determinism: identical seeds -> identical trajectories.

TEST_P(SeededProperty, AdamTrajectoryIsDeterministic) {
  auto run = [&](uint64_t seed) {
    Rng rng(seed);
    ag::Var w(Matrix::Randn(3, 3, 0.5f, &rng), true);
    nn::Adam opt({w}, 0.01f);
    for (int i = 0; i < 10; ++i) {
      opt.ZeroGrad();
      ag::Var x = ag::Constant(Matrix::Randn(2, 3, 1.0f, &rng));
      ag::Var loss = ag::MeanAll(ag::Mul(ag::MatMul(x, w), ag::MatMul(x, w)));
      loss.Backward();
      opt.Step();
    }
    return w.value();
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

}  // namespace
}  // namespace nerglob
