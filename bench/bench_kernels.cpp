// Kernel-dispatch benchmark: per-kernel generic-vs-AVX2 throughput, an
// in-process parity re-check, and the steady-state zero-allocation count
// for streaming inference. Emits BENCH_kernels.json (schema
// nerglob.kernels.v1) for bench/check_regression.py, which gates
//   * parity_ok == true (tiers bit-identical on the benchmark shapes),
//   * allocs.arena_allocs_per_message == 0 (second-pass steady state),
//   * gemm_d64_speedup >= floor when the host runs real AVX2,
// plus the usual calibration-normalized timing comparison.
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/scratch_arena.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/ner_globalizer.h"
#include "data/generator.h"
#include "data/knowledge_base.h"
#include "tensor/kernels.h"

namespace {

using namespace nerglob;

std::vector<float> RandomVec(size_t n, uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(gen);
  return v;
}

struct KernelResult {
  std::string name;
  double flops_per_iter = 0.0;  // 0 = bandwidth-bound, no GFLOP/s reported
  int iters = 0;
  double generic_seconds = 0.0;
  double avx2_seconds = 0.0;
  double speedup() const {
    return avx2_seconds > 0.0 ? generic_seconds / avx2_seconds : 0.0;
  }
  double gflops(double seconds) const {
    return (flops_per_iter > 0.0 && seconds > 0.0)
               ? flops_per_iter * iters / seconds / 1e9
               : 0.0;
  }
};

/// Times `body(table)` for both tiers. The body must touch only the given
/// table (never kern::Active()) so the comparison is a pure tier swap.
template <typename Body>
KernelResult TimeKernel(const std::string& name, double flops_per_iter,
                        int iters, const Body& body) {
  KernelResult r;
  r.name = name;
  r.flops_per_iter = flops_per_iter;
  r.iters = iters;
  for (int warm = 0; warm < 32; ++warm) body(kern::GenericKernels());
  {
    WallTimer t;
    for (int i = 0; i < iters; ++i) body(kern::GenericKernels());
    r.generic_seconds = t.ElapsedSeconds();
  }
  for (int warm = 0; warm < 32; ++warm) body(kern::Avx2Kernels());
  {
    WallTimer t;
    for (int i = 0; i < iters; ++i) body(kern::Avx2Kernels());
    r.avx2_seconds = t.ElapsedSeconds();
  }
  std::printf("  %-24s generic %8.4fs  avx2 %8.4fs  speedup %5.2fx",
              name.c_str(), r.generic_seconds, r.avx2_seconds, r.speedup());
  if (flops_per_iter > 0.0) {
    std::printf("  (%5.2f -> %5.2f GFLOP/s)", r.gflops(r.generic_seconds),
                r.gflops(r.avx2_seconds));
  }
  std::printf("\n");
  return r;
}

/// Bitwise generic-vs-AVX2 check on the benchmark's own shapes; belt and
/// suspenders next to tests/kernels_test.cc so a bench run on new hardware
/// validates before it times.
bool ParityOk() {
  const size_t m = 48, k = 64, n = 64;
  const std::vector<float> a = RandomVec(m * k, 1);
  const std::vector<float> b = RandomVec(k * n, 2);
  const std::vector<float> bias = RandomVec(n, 3);
  std::vector<float> out1(m * n), out2(m * n);
  const kern::KernelTable& gen = kern::GenericKernels();
  const kern::KernelTable& avx = kern::Avx2Kernels();
  gen.gemm_rows(a.data(), k, b.data(), n, bias.data(), out1.data(), n, 0, m, k, n);
  avx.gemm_rows(a.data(), k, b.data(), n, bias.data(), out2.data(), n, 0, m, k, n);
  if (std::memcmp(out1.data(), out2.data(), out1.size() * sizeof(float)) != 0) {
    return false;
  }
  std::vector<float> r1 = a, r2 = a;
  gen.relu(r1.data(), r1.size());
  avx.relu(r2.data(), r2.size());
  if (std::memcmp(r1.data(), r2.data(), r1.size() * sizeof(float)) != 0) {
    return false;
  }
  std::vector<float> s1(n), s2(n), l1(n), l2(n);
  gen.softmax_row(a.data(), s1.data(), n);
  avx.softmax_row(a.data(), s2.data(), n);
  gen.layernorm_row(a.data(), b.data(), bias.data(), 1e-5f, l1.data(), n);
  avx.layernorm_row(a.data(), b.data(), bias.data(), 1e-5f, l2.data(), n);
  return std::memcmp(s1.data(), s2.data(), n * sizeof(float)) == 0 &&
         std::memcmp(l1.data(), l2.data(), n * sizeof(float)) == 0;
}

struct AllocsResult {
  size_t messages = 0;
  uint64_t second_pass_allocs = 0;
  double allocs_per_message = 0.0;
  size_t high_water_bytes = 0;
};

/// Two identical streaming passes at parallelism 1 (inference inline on
/// this thread): pass 1 warms this thread's arena to the stream's peak
/// shapes, pass 2 must not grow it — the zero-allocation acceptance
/// criterion measured exactly as tests/streaming_session_test.cc does.
AllocsResult MeasureSteadyStateAllocs() {
  SetParallelism(1);
  core::ModelBundleConfig config;
  config.lm.d_model = 32;
  config.lm.num_heads = 2;
  config.lm.num_layers = 1;
  config.lm.subword_buckets = 512;
  config.classifier_hidden = 24;
  const core::ModelBundle bundle(config);
  data::KnowledgeBase kb = data::KnowledgeBase::BuildStandard(5, 19);
  data::StreamGenerator gen(&kb);
  const std::vector<stream::Message> messages =
      gen.Generate(data::MakeDatasetSpec("D1", 0.05));

  core::NerGlobalizerConfig pipeline_config;
  pipeline_config.window_messages = messages.size() / 2;
  {
    core::NerGlobalizer warm(&bundle, pipeline_config);
    warm.ProcessAll(messages, 32);
  }
  common::ScratchArena& arena = common::ScratchArena::ThreadLocal();
  const uint64_t warm_allocs = arena.heap_allocs();
  core::NerGlobalizer pipeline(&bundle, pipeline_config);
  pipeline.ProcessAll(messages, 32);

  AllocsResult r;
  r.messages = messages.size();
  r.second_pass_allocs = arena.heap_allocs() - warm_allocs;
  r.allocs_per_message =
      static_cast<double>(r.second_pass_allocs) / messages.size();
  r.high_water_bytes = arena.reserved_bytes();
  SetParallelism(0);
  return r;
}

}  // namespace

int main() {
  bench::PrintBanner("Kernel dispatch: generic vs AVX2 (single thread)");
  const double calibration = bench::CalibrationSeconds();
  const bool cpu_avx2 = kern::CpuSupportsAvx2();
  const bool built_avx2 = kern::BuiltWithAvx2();
  std::printf("cpu avx2: %s   built with avx2: %s   active tier: %s\n",
              cpu_avx2 ? "yes" : "no", built_avx2 ? "yes" : "no",
              kern::SimdLevelName(kern::ActiveLevel()));
  const bool parity = ParityOk();
  std::printf("tier parity on bench shapes: %s\n", parity ? "ok" : "MISMATCH");
  bench::PrintRule();

  std::vector<KernelResult> results;
  {
    // The transformer's hot shape: (T=48, d=64) x (d, d) with bias.
    const size_t m = 48, k = 64, n = 64;
    const std::vector<float> a = RandomVec(m * k, 11);
    const std::vector<float> b = RandomVec(k * n, 12);
    const std::vector<float> bias = RandomVec(n, 13);
    std::vector<float> out(m * n);
    results.push_back(TimeKernel(
        "gemm_48x64x64_bias", 2.0 * m * k * n, 8000,
        [&](const kern::KernelTable& kt) {
          kt.gemm_rows(a.data(), k, b.data(), n, bias.data(), out.data(), n,
                       0, m, k, n);
        }));
  }
  {
    // Single-row projection (per-mention / per-cluster shapes).
    const size_t m = 1, k = 64, n = 64;
    const std::vector<float> a = RandomVec(m * k, 14);
    const std::vector<float> b = RandomVec(k * n, 15);
    std::vector<float> out(m * n);
    results.push_back(TimeKernel(
        "gemm_1x64x64", 2.0 * m * k * n, 200000,
        [&](const kern::KernelTable& kt) {
          kt.gemm_rows(a.data(), k, b.data(), n, nullptr, out.data(), n, 0, m,
                       k, n);
        }));
  }
  {
    // Feed-forward activation: relu over the (48, 128) ff buffer.
    std::vector<float> x = RandomVec(48 * 128, 16);
    results.push_back(TimeKernel(
        "relu_6144", 0.0, 150000,
        [&](const kern::KernelTable& kt) { kt.relu(x.data(), x.size()); }));
  }
  {
    const std::vector<float> x = RandomVec(48 * 48, 17);
    std::vector<float> out(48 * 48);
    results.push_back(TimeKernel(
        "softmax_48x48", 0.0, 30000, [&](const kern::KernelTable& kt) {
          for (size_t r = 0; r < 48; ++r) {
            kt.softmax_row(x.data() + r * 48, out.data() + r * 48, 48);
          }
        }));
  }
  {
    const std::vector<float> x = RandomVec(48 * 64, 18);
    const std::vector<float> gamma = RandomVec(64, 19);
    const std::vector<float> beta = RandomVec(64, 20);
    std::vector<float> out(48 * 64);
    results.push_back(TimeKernel(
        "layernorm_48x64", 0.0, 30000, [&](const kern::KernelTable& kt) {
          for (size_t r = 0; r < 48; ++r) {
            kt.layernorm_row(x.data() + r * 64, gamma.data(), beta.data(),
                             1e-5f, out.data() + r * 64, 64);
          }
        }));
  }
  {
    const std::vector<float> x = RandomVec(4096, 21);
    std::vector<float> y = RandomVec(4096, 22);
    results.push_back(TimeKernel(
        "axpy_4096", 2.0 * 4096, 150000, [&](const kern::KernelTable& kt) {
          kt.axpy(0.37f, x.data(), y.data(), 4096);
        }));
  }
  {
    const std::vector<float> a = RandomVec(64, 23);
    const std::vector<float> b = RandomVec(64, 24);
    volatile double sink = 0.0;
    results.push_back(TimeKernel(
        "dot_f64_64", 2.0 * 64, 2000000, [&](const kern::KernelTable& kt) {
          sink = kt.dot_f64(a.data(), b.data(), 64);
        }));
    (void)sink;
  }

  // The acceptance shape: d=64 GEMM + its activation, one chained iteration.
  double gemm_d64_speedup = 0.0;
  {
    const size_t m = 48, k = 64, n = 64;
    const std::vector<float> a = RandomVec(m * k, 25);
    const std::vector<float> b = RandomVec(k * n, 26);
    const std::vector<float> bias = RandomVec(n, 27);
    std::vector<float> out(m * n);
    KernelResult chained = TimeKernel(
        "gemm_d64_plus_relu", 2.0 * m * k * n, 8000,
        [&](const kern::KernelTable& kt) {
          kt.gemm_rows(a.data(), k, b.data(), n, bias.data(), out.data(), n,
                       0, m, k, n);
          kt.relu(out.data(), out.size());
        });
    gemm_d64_speedup = chained.speedup();
    results.push_back(chained);
  }

  bench::PrintRule();
  std::printf("steady-state allocation check (two-pass stream, threads=1)...\n");
  const AllocsResult allocs = MeasureSteadyStateAllocs();
  std::printf(
      "  %zu messages, second pass arena growth events: %llu "
      "(%.4f per message), arena high water %zu bytes\n",
      allocs.messages,
      static_cast<unsigned long long>(allocs.second_pass_allocs),
      allocs.allocs_per_message, allocs.high_water_bytes);

  const std::string path = "BENCH_kernels.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"schema\": \"nerglob.kernels.v1\",\n"
               "  \"calibration_seconds\": %.6f,\n"
               "  \"cpu_avx2\": %s,\n  \"built_with_avx2\": %s,\n"
               "  \"parity_ok\": %s,\n  \"gemm_d64_speedup\": %.3f,\n"
               "  \"kernels\": [\n",
               calibration, cpu_avx2 ? "true" : "false",
               built_avx2 ? "true" : "false", parity ? "true" : "false",
               gemm_d64_speedup);
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iters\": %d, "
                 "\"flops_per_iter\": %.0f, "
                 "\"generic_seconds\": %.6f, \"avx2_seconds\": %.6f, "
                 "\"generic_gflops\": %.3f, \"avx2_gflops\": %.3f, "
                 "\"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.iters, r.flops_per_iter, r.generic_seconds,
                 r.avx2_seconds, r.gflops(r.generic_seconds),
                 r.gflops(r.avx2_seconds), r.speedup(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"allocs\": {\"messages\": %zu, "
               "\"arena_allocs_second_pass\": %llu, "
               "\"arena_allocs_per_message\": %.4f, "
               "\"arena_high_water_bytes\": %zu}\n}\n",
               allocs.messages,
               static_cast<unsigned long long>(allocs.second_pass_allocs),
               allocs.allocs_per_message, allocs.high_water_bytes);
  if (std::fclose(f) != 0) return 1;
  std::printf("wrote %s\n", path.c_str());

  if (!parity) {
    std::fprintf(stderr, "FAIL: kernel tiers are not bit-identical\n");
    return 1;
  }
  if (allocs.second_pass_allocs != 0) {
    std::fprintf(stderr, "FAIL: steady-state streaming grew the arena\n");
    return 1;
  }
  return 0;
}
