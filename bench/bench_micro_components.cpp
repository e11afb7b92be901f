// Micro-benchmarks (google-benchmark) for the pipeline's hot components:
// tokenizer, CTrie insert/scan, phrase embedding, agglomerative
// clustering, attention pooling + classification, CRF Viterbi decode, a
// full MicroBert sentence encode, and loading a model bundle.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include <sys/resource.h>

#include "cluster/agglomerative.h"
#include "common/thread_pool.h"
#include "core/entity_classifier.h"
#include "core/model_bundle.h"
#include "core/phrase_embedder.h"
#include "lm/micro_bert.h"
#include "nn/crf.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "text/tokenizer.h"
#include "trie/candidate_trie.h"

namespace {

using namespace nerglob;

const char kTweet[] =
    "RT @GovAndyBeshear: #Coronavirus cases rising in Italy and the US, "
    "stay home friends :( https://t.co/abc123";

void BM_Tokenize(benchmark::State& state) {
  text::Tokenizer tokenizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(kTweet));
  }
}
BENCHMARK(BM_Tokenize);

void BM_TrieInsert(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    trie::CandidateTrie trie;
    for (int k = 0; k < 100; ++k) {
      trie.Insert({"entity" + std::to_string(i++ % 1000), "suffix"});
    }
    benchmark::DoNotOptimize(trie.size());
  }
}
BENCHMARK(BM_TrieInsert);

void BM_TrieScan(benchmark::State& state) {
  trie::CandidateTrie trie;
  for (int k = 0; k < static_cast<int>(state.range(0)); ++k) {
    trie.Insert({"entity" + std::to_string(k)});
  }
  trie.Insert({"andy", "beshear"});
  trie.Insert({"coronavirus"});
  std::vector<std::string> sentence = {"rt",    "andy", "beshear", "says",
                                       "coronavirus", "cases", "rising", "in",
                                       "entity42",    "today"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.FindLongestMatches(sentence));
  }
}
BENCHMARK(BM_TrieScan)->Arg(100)->Arg(10000);

void BM_PhraseEmbed(benchmark::State& state) {
  Rng rng(1);
  core::PhraseEmbedder embedder(64, &rng);
  Matrix tokens = Matrix::Randn(20, 64, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(embedder.Embed(tokens, 3, 6));
  }
}
BENCHMARK(BM_PhraseEmbed);

void BM_AgglomerativeCluster(benchmark::State& state) {
  Rng rng(2);
  Matrix embs = Matrix::Randn(state.range(0), 64, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::AgglomerativeClusterCosine(embs, 0.8f));
  }
}
BENCHMARK(BM_AgglomerativeCluster)->Arg(16)->Arg(64);

void BM_PoolAndClassify(benchmark::State& state) {
  Rng rng(3);
  core::EntityClassifier classifier(64, 48, &rng);
  Matrix members = Matrix::Randn(state.range(0), 64, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.Predict(members));
  }
}
BENCHMARK(BM_PoolAndClassify)->Arg(4)->Arg(64);

void BM_CrfViterbi(benchmark::State& state) {
  Rng rng(4);
  nn::LinearChainCrf crf(text::kNumBioLabels, &rng);
  Matrix emissions = Matrix::Randn(24, text::kNumBioLabels, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crf.Decode(emissions));
  }
}
BENCHMARK(BM_CrfViterbi);

void BM_MicroBertEncode(benchmark::State& state) {
  lm::MicroBertConfig config;
  lm::MicroBert model(config, 5);
  text::Tokenizer tokenizer;
  auto tokens = tokenizer.Tokenize(kTweet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Encode(tokens));
  }
}
BENCHMARK(BM_MicroBertEncode);

// The transformer's hot matmul shapes: (T, d) x (d, d) per projection and
// (T, d) x (d, ff) in the feed-forward, d = 64. Args: {m, k, n}.
void BM_Gemm(benchmark::State& state) {
  Rng rng(6);
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  Matrix a = Matrix::Randn(m, k, 1.0f, &rng);
  Matrix b = Matrix::Randn(k, n, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * m * k * n));
}
BENCHMARK(BM_Gemm)
    ->Args({48, 64, 64})
    ->Args({48, 64, 128})
    ->Args({256, 64, 64})
    ->Args({256, 256, 256});

void BM_GemmFusedBias(benchmark::State& state) {
  Rng rng(7);
  const size_t m = static_cast<size_t>(state.range(0));
  Matrix a = Matrix::Randn(m, 64, 1.0f, &rng);
  Matrix b = Matrix::Randn(64, 64, 1.0f, &rng);
  Matrix bias = Matrix::Randn(1, 64, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulAddBias(a, b, bias));
  }
}
BENCHMARK(BM_GemmFusedBias)->Arg(48)->Arg(256);

// SIMD-tier sweep over the hot d=64 gemm (single thread so the kernel
// itself is measured). Arg: 0 = forced generic, 1 = AVX2 (skipped when the
// host or build lacks it). Compare the two rows for the dispatch speedup.
void BM_GemmSimd(benchmark::State& state) {
  const kern::SimdLevel level = state.range(0) == 0 ? kern::SimdLevel::kGeneric
                                                    : kern::SimdLevel::kAvx2;
  if (!kern::SetSimdLevel(level)) {
    state.SkipWithError("AVX2 tier unavailable on this host/build");
    return;
  }
  Rng rng(9);
  Matrix a = Matrix::Randn(48, 64, 1.0f, &rng);
  Matrix b = Matrix::Randn(64, 64, 1.0f, &rng);
  SetParallelism(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  SetParallelism(0);
  kern::ResetSimdLevel();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * 48 * 64 * 64));
  state.SetLabel(kern::SimdLevelName(level));
}
BENCHMARK(BM_GemmSimd)->Arg(0)->Arg(1);

// Thread-count sweep over a large parallel-eligible gemm. Arg: threads.
void BM_GemmParallel(benchmark::State& state) {
  Rng rng(8);
  Matrix a = Matrix::Randn(512, 256, 1.0f, &rng);
  Matrix b = Matrix::Randn(256, 256, 1.0f, &rng);
  SetParallelism(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  SetParallelism(0);  // back to the env/hardware default
}
BENCHMARK(BM_GemmParallel)->Arg(1)->Arg(2)->Arg(4);

// Thread-count sweep over batched sentence encoding (the Local NER hot
// loop). Dedup and the encode cache are off, so all 32 copies of the
// sentence run the full forward. Arg: threads.
void BM_EncodeMany(benchmark::State& state) {
  lm::MicroBertConfig config;
  lm::MicroBert model(config, 9);
  text::Tokenizer tokenizer;
  const std::vector<text::Token> tokens = tokenizer.Tokenize(kTweet);
  const std::vector<const std::vector<text::Token>*> sentences(32, &tokens);
  lm::EncodeOptions options;
  options.dedup = false;
  options.use_cache = false;
  SetParallelism(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.EncodeMany(sentences, options));
  }
  SetParallelism(0);
}
BENCHMARK(BM_EncodeMany)->Arg(1)->Arg(2)->Arg(4);

// Cold start of a served model: ModelBundle::Load of a default-size bundle
// (d_model 64, 2 layers), saved to a temp file outside the timed loop.
// minflt_per_load counts the minor page faults of each load: memory the
// allocator had returned to the kernel and the load touches again.
// Report-only.
void BM_BundleLoad(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "bm_bundle_load.ngb").string();
  if (!core::ModelBundle(core::ModelBundleConfig{}).Save(path).ok()) {
    state.SkipWithError("saving the bundle failed");
    return;
  }
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  for (auto _ : state) {
    Result<core::ModelBundle> bundle = core::ModelBundle::Load(path);
    if (!bundle.ok()) {
      state.SkipWithError(bundle.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(bundle->has_models());
  }
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  state.counters["minflt_per_load"] = benchmark::Counter(
      static_cast<double>(after.ru_minflt - before.ru_minflt),
      benchmark::Counter::kAvgIterations);
  std::remove(path.c_str());
}
BENCHMARK(BM_BundleLoad)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
