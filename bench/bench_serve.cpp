// Serving-runtime benchmark: cross-session throughput scaling.
//
// Drives the same message stream through serve::SessionManager at several
// (sessions x shards) points and measures aggregate throughput. The claims
// under test: (1) determinism — every session's output under concurrent
// serving is byte-identical to a single-threaded replay of its batches;
// (2) scaling — on a machine with enough cores, 8 sessions over 8 shards
// beat 1 session over 1 shard by >= 2x messages/second (shards only ever
// add parallelism across independent sessions, never reorder one).
//
// Writes BENCH_serve.json (schema nerglob.serve.v2) with the throughput
// matrix, enqueue-to-complete latency percentiles, and the determinism
// bit; bench/check_regression.py consumes the timings via the embedded
// calibration like every other BENCH_*.json. The speedup floor is only
// enforced when the snapshot's host reports >= 8 hardware threads — the
// matrix numbers on a small CI box are still gated as normalized timings.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serve/session_manager.h"

namespace {

using namespace nerglob;

struct MatrixPoint {
  size_t sessions = 0;
  size_t shards = 0;
  double wall_seconds = 0.0;
  double messages_per_second = 0.0;
  bool deterministic = true;
};

std::vector<std::vector<stream::Message>> MakeBatches(
    const std::vector<stream::Message>& messages, size_t batch_size) {
  stream::StreamSource source(messages, batch_size);
  std::vector<std::vector<stream::Message>> out;
  std::vector<stream::Message> batch;
  while (!(batch = source.NextBatch()).empty()) out.push_back(std::move(batch));
  return out;
}

// Ground truth: the batch sequence through one single-threaded session.
std::vector<core::FinalizedMessage> SequentialReplay(
    const harness::TrainedSystem& system,
    const std::vector<std::vector<stream::Message>>& batches, size_t window) {
  stream::StreamingSessionConfig config;
  config.pipeline = core::DefaultPipelineConfig(system.bundle);
  config.pipeline.window_messages = window;
  stream::StreamingSession session(&system.bundle, config);
  for (const auto& batch : batches) session.ProcessBatch(batch);
  session.Flush();
  return session.TakeFinalized();
}

// Serves `sessions` copies of the batch stream over `shards` workers,
// measuring wall time and verifying every tenant against `reference`.
MatrixPoint ServePoint(const harness::TrainedSystem& system,
                       const std::vector<std::vector<stream::Message>>& batches,
                       const std::vector<core::FinalizedMessage>& reference,
                       size_t window, size_t sessions, size_t shards,
                       uint64_t* rejected_total) {
  MatrixPoint point;
  point.sessions = sessions;
  point.shards = shards;

  serve::SessionManagerConfig config;
  config.num_shards = shards;
  config.pipeline = core::DefaultPipelineConfig(system.bundle);
  config.pipeline.window_messages = window;
  serve::SessionManager manager(&system.bundle, config);

  std::vector<std::string> ids;
  for (size_t s = 0; s < sessions; ++s) {
    ids.push_back("stream-" + std::to_string(s));
    if (!manager.Open(ids.back()).ok()) {
      point.deterministic = false;
      return point;
    }
  }

  size_t total_messages = 0;
  WallTimer timer;
  // Round-robin across tenants (batch b of every session before batch
  // b+1), retrying on transient overload — a fan-in frontend's inner loop.
  for (const auto& batch : batches) {
    for (const std::string& id : ids) {
      while (true) {
        const Status s = manager.Submit(id, batch);
        if (s.ok()) break;
        if (s.code() != StatusCode::kUnavailable) {
          std::printf("  Submit FAILED: %s\n", s.ToString().c_str());
          point.deterministic = false;
          return point;
        }
        std::this_thread::yield();
      }
    }
    total_messages += sessions * batch.size();
  }
  manager.FlushAll();
  point.wall_seconds = timer.ElapsedSeconds();
  point.messages_per_second =
      point.wall_seconds > 0 ? total_messages / point.wall_seconds : 0.0;

  for (const std::string& id : ids) {
    auto got = manager.TakeFinalized(id);
    if (!got.ok() || got->size() != reference.size()) {
      point.deterministic = false;
      break;
    }
    for (size_t i = 0; i < reference.size(); ++i) {
      if (!((*got)[i] == reference[i])) {
        point.deterministic = false;
        break;
      }
    }
    if (!point.deterministic) break;
  }
  *rejected_total += manager.stats().rejected_batches;
  return point;
}

// q-th quantile upper bound from the latency histogram's buckets.
double HistogramQuantile(const metrics::Histogram& hist, double q) {
  const uint64_t total = hist.count();
  if (total == 0) return 0.0;
  const auto target = static_cast<uint64_t>(q * static_cast<double>(total));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < hist.bounds().size(); ++i) {
    cumulative += hist.BucketCount(i);
    if (cumulative > target) return hist.bounds()[i];
  }
  return hist.bounds().empty() ? 0.0 : hist.bounds().back();
}

void WriteMatrix(std::FILE* json, const char* key,
                 const std::vector<MatrixPoint>& matrix) {
  std::fprintf(json, "  \"%s\": [\n", key);
  for (size_t i = 0; i < matrix.size(); ++i) {
    const MatrixPoint& p = matrix[i];
    std::fprintf(json,
                 "    {\"sessions\": %zu, \"shards\": %zu, "
                 "\"wall_seconds\": %.6f, \"messages_per_second\": %.1f}%s\n",
                 p.sessions, p.shards, p.wall_seconds, p.messages_per_second,
                 i + 1 < matrix.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
}

void WriteJson(const std::vector<MatrixPoint>& matrix, double scale,
               double calibration_seconds, size_t messages_per_session,
               size_t batch_size, size_t window, double p50, double p99,
               double speedup, bool deterministic, uint64_t rejected_total) {
  std::FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json == nullptr) {
    std::printf("FAILED to open BENCH_serve.json\n");
    return;
  }
  std::fprintf(json,
               "{\n  \"schema\": \"nerglob.serve.v2\",\n"
               "  \"scale\": %.4f,\n  \"calibration_seconds\": %.6f,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"messages_per_session\": %zu,\n  \"batch_size\": %zu,\n"
               "  \"window_messages\": %zu,\n",
               scale, calibration_seconds,
               std::thread::hardware_concurrency(), messages_per_session,
               batch_size, window);
  WriteMatrix(json, "matrix", matrix);
  std::fprintf(json,
               "  \"p50_latency_seconds\": %.6f,\n"
               "  \"p99_latency_seconds\": %.6f,\n"
               "  \"speedup_8x8_over_1x1\": %.4f,\n"
               "  \"rejected_total\": %llu,\n"
               "  \"deterministic\": %s\n}\n",
               p50, p99, speedup,
               static_cast<unsigned long long>(rejected_total),
               deterministic ? "true" : "false");
  std::fclose(json);
  std::printf("  wrote BENCH_serve.json\n");
}

}  // namespace

int main() {
  auto options = bench::DefaultBuildOptions();
  bench::PrintBanner("Serving runtime — multi-session throughput benchmark");
  bench::PrintScaleNote(options);

  auto system = harness::BuildTrainedSystem(options);
  const double calibration_seconds = bench::CalibrationSeconds();

  data::StreamGenerator gen(&system.kb_eval);
  auto messages = gen.Generate(data::MakeDatasetSpec("D2", options.scale));
  const size_t batch_size = std::max<size_t>(1, messages.size() / 32);
  const size_t window = 4 * batch_size;
  const auto batches = MakeBatches(messages, batch_size);
  const auto reference = SequentialReplay(system, batches, window);

  std::printf("\n%zu messages/session, batch size %zu (%zu batches), "
              "window %zu, %u hardware threads\n",
              messages.size(), batch_size, batches.size(), window,
              std::thread::hardware_concurrency());

  // Latency percentiles come from the serve histogram; reset so only this
  // process's spans are counted.
  metrics::SetEnabled(true);
  metrics::MetricsRegistry::Global().ResetAll();

  uint64_t rejected_total = 0;
  // Warm-up (allocator, code paths), unmeasured.
  ServePoint(system, batches, reference, window, 1, 1, &rejected_total);
  rejected_total = 0;

  const std::pair<size_t, size_t> points[] = {
      {1, 1}, {2, 2}, {4, 4}, {8, 8}, {8, 1}};
  std::vector<MatrixPoint> matrix;
  bool deterministic = true;
  double wall_1x1 = 0.0, wall_8x8 = 0.0;
  std::printf("\n%10s %8s %14s %16s  %s\n", "sessions", "shards",
              "wall_seconds", "msgs/second", "deterministic");
  for (const auto& [sessions, shards] : points) {
    MatrixPoint p = ServePoint(system, batches, reference, window, sessions,
                               shards, &rejected_total);
    deterministic = deterministic && p.deterministic;
    if (sessions == 1 && shards == 1) wall_1x1 = p.wall_seconds;
    if (sessions == 8 && shards == 8) wall_8x8 = p.wall_seconds;
    matrix.push_back(p);
    std::printf("%10zu %8zu %14.4f %16.1f  %s\n", p.sessions, p.shards,
                p.wall_seconds, p.messages_per_second,
                p.deterministic ? "yes" : "NO");
  }

  // 8 sessions are 8x the work of 1, so equal walls mean an 8x-wide run
  // kept pace per-session: speedup = 8 * wall(1x1) / wall(8x8).
  const double speedup = wall_8x8 > 0 ? 8.0 * wall_1x1 / wall_8x8 : 0.0;
  auto* hist = metrics::MetricsRegistry::Global().GetHistogram(
      "serve.enqueue_to_complete_seconds");
  const double p50 = HistogramQuantile(*hist, 0.50);
  const double p99 = HistogramQuantile(*hist, 0.99);

  std::printf("\nspeedup 8x8 over 1x1: %.2fx (floor 2.0x enforced on >= 8 "
              "hardware threads)\n", speedup);
  std::printf("enqueue-to-complete latency: p50 <= %.6fs, p99 <= %.6fs "
              "(%llu batches)\n", p50, p99,
              static_cast<unsigned long long>(hist->count()));
  std::printf("rejected (backpressure) batches: %llu\n",
              static_cast<unsigned long long>(rejected_total));
  std::printf("determinism vs single-threaded replay: %s\n",
              deterministic ? "PASS (byte-identical)" : "FAIL");

  WriteJson(matrix, options.scale, calibration_seconds, messages.size(),
            batch_size, window, p50, p99, speedup, deterministic,
            rejected_total);
  return deterministic ? 0 : 1;
}
