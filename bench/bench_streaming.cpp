// Long-stream benchmark for the bounded-memory streaming runtime.
//
// Drives the same message stream through two StreamingSessions — one
// unbounded (window 0, the pre-windowing behavior) and one with a sliding
// window — recording the wall time of every batch. The claim under test:
// with eviction on, per-batch cost stops growing with stream length, so a
// late batch (#50) costs about the same as an early one (#5); unbounded,
// the trie/candidate scans keep growing.
//
// Writes BENCH_streaming.json (schema nerglob.streaming.v1) with the raw
// per-batch timings, the late/early ratio, memory numbers, and the
// cold-start comparison; bench/check_regression.py consumes the timings via the
// embedded calibration like every other BENCH_*.json.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench/bench_util.h"
#include "stream/streaming_session.h"

namespace {

using namespace nerglob;

struct StreamRun {
  std::vector<double> batch_seconds;
  size_t peak_memory_bytes = 0;
  size_t final_memory_bytes = 0;
  size_t evicted = 0;
};

StreamRun DriveStream(const harness::TrainedSystem& system,
                      const std::vector<stream::Message>& messages,
                      size_t batch_size, size_t window) {
  stream::StreamingSessionConfig config;
  config.pipeline = core::DefaultPipelineConfig(system.bundle);
  config.pipeline.window_messages = window;
  stream::StreamingSession session(&system.bundle, config);
  stream::StreamSource source(messages, batch_size);
  StreamRun run;
  while (true) {
    WallTimer timer;
    if (!session.Step(&source)) break;
    run.batch_seconds.push_back(timer.ElapsedSeconds());
    const size_t bytes = session.MemoryUsage().total_bytes;
    run.peak_memory_bytes = std::max(run.peak_memory_bytes, bytes);
  }
  session.Flush();
  run.final_memory_bytes = session.MemoryUsage().total_bytes;
  run.evicted = session.pipeline().evicted_messages();
  return run;
}

/// Median of batch_seconds[center-2 .. center+2] — per-batch walls at small
/// scale are microseconds, so a 5-point median smooths scheduler noise.
double SmoothedBatchSeconds(const std::vector<double>& batch_seconds,
                            size_t center) {
  const size_t lo = center >= 2 ? center - 2 : 0;
  const size_t hi = std::min(center + 3, batch_seconds.size());
  std::vector<double> window(batch_seconds.begin() + static_cast<std::ptrdiff_t>(lo),
                             batch_seconds.begin() + static_cast<std::ptrdiff_t>(hi));
  std::sort(window.begin(), window.end());
  return window[window.size() / 2];
}

/// Cold-start comparison: seconds to obtain a servable system by retraining
/// from scratch versus loading a saved `.ngb` bundle.
struct ColdStart {
  double retrain_seconds = 0.0;
  double bundle_save_seconds = 0.0;
  double bundle_load_seconds = 0.0;
  size_t bundle_bytes = 0;
  bool load_ok = false;
};

ColdStart MeasureColdStart(const harness::BuildOptions& base_options,
                           harness::TrainedSystem* system) {
  ColdStart cold;
  // Retrain from scratch (cache disabled) — the cost --model avoids.
  harness::BuildOptions fresh = base_options;
  fresh.cache_dir = "";
  WallTimer retrain_timer;
  auto retrained = harness::BuildTrainedSystem(fresh);
  cold.retrain_seconds = retrain_timer.ElapsedSeconds();
  (void)retrained;

  const std::string path = "bench_streaming_model.ngb";
  system->bundle.set_training_stats(harness::StatsFromSystem(*system));
  WallTimer save_timer;
  if (const Status st = system->bundle.Save(path); !st.ok()) {
    std::printf("  bundle save FAILED: %s\n", st.ToString().c_str());
    return cold;
  }
  cold.bundle_save_seconds = save_timer.ElapsedSeconds();
  std::error_code ec;
  cold.bundle_bytes =
      static_cast<size_t>(std::filesystem::file_size(path, ec));

  WallTimer load_timer;
  Result<core::ModelBundle> loaded = core::ModelBundle::Load(path);
  cold.bundle_load_seconds = load_timer.ElapsedSeconds();
  cold.load_ok = loaded.ok();
  if (!loaded.ok()) {
    std::printf("  bundle load FAILED: %s\n",
                loaded.status().ToString().c_str());
  }
  std::filesystem::remove(path, ec);
  return cold;
}

void WriteJson(const StreamRun& windowed, const StreamRun& unbounded,
               size_t messages, size_t batch_size, size_t window, double scale,
               double calibration_seconds, double early, double late,
               bool bounded_ok, const ColdStart& cold) {
  std::FILE* json = std::fopen("BENCH_streaming.json", "w");
  if (json == nullptr) {
    std::printf("FAILED to open BENCH_streaming.json\n");
    return;
  }
  std::fprintf(json,
               "{\n  \"schema\": \"nerglob.streaming.v1\",\n"
               "  \"scale\": %.4f,\n  \"calibration_seconds\": %.6f,\n"
               "  \"messages\": %zu,\n  \"batch_size\": %zu,\n"
               "  \"window_messages\": %zu,\n",
               scale, calibration_seconds, messages, batch_size, window);
  std::fprintf(json,
               "  \"batch5_seconds\": %.6f,\n  \"batch50_seconds\": %.6f,\n"
               "  \"late_over_early_ratio\": %.4f,\n"
               "  \"bounded_per_batch_cost\": %s,\n",
               early, late, early > 0 ? late / early : 0.0,
               bounded_ok ? "true" : "false");
  std::fprintf(json,
               "  \"cold_start\": {\n"
               "    \"retrain_seconds\": %.6f,\n"
               "    \"bundle_save_seconds\": %.6f,\n"
               "    \"bundle_load_seconds\": %.6f,\n"
               "    \"bundle_bytes\": %zu,\n"
               "    \"load_ok\": %s\n  },\n",
               cold.retrain_seconds, cold.bundle_save_seconds,
               cold.bundle_load_seconds, cold.bundle_bytes,
               cold.load_ok ? "true" : "false");
  auto emit_run = [json](const char* name, const StreamRun& run) {
    std::fprintf(json,
                 "  \"%s\": {\n"
                 "    \"peak_memory_bytes\": %zu,\n"
                 "    \"final_memory_bytes\": %zu,\n"
                 "    \"evicted_messages\": %zu,\n"
                 "    \"batch_seconds\": [",
                 name, run.peak_memory_bytes, run.final_memory_bytes,
                 run.evicted);
    for (size_t i = 0; i < run.batch_seconds.size(); ++i) {
      std::fprintf(json, "%s%.6f", i > 0 ? ", " : "", run.batch_seconds[i]);
    }
    std::fprintf(json, "]\n  }");
  };
  emit_run("windowed", windowed);
  std::fprintf(json, ",\n");
  emit_run("unbounded", unbounded);
  std::fprintf(json, "\n}\n");
  std::fclose(json);
  std::printf("  wrote BENCH_streaming.json\n");
}

}  // namespace

int main() {
  auto options = bench::DefaultBuildOptions();
  bench::PrintBanner("Streaming runtime — bounded-memory long-stream benchmark");
  bench::PrintScaleNote(options);

  auto system = harness::BuildTrainedSystem(options);
  const double calibration_seconds = bench::CalibrationSeconds();

  // One long stream: the covid conversation (D2) sliced into ~64 batches,
  // so batch #50 exists at every scale. The window spans 4 batches.
  data::StreamGenerator gen(&system.kb_eval);
  auto messages = gen.Generate(data::MakeDatasetSpec("D2", options.scale));
  const size_t batch_size = std::max<size_t>(1, messages.size() / 64);
  const size_t window = 4 * batch_size;

  std::printf("\n%zu messages, batch size %zu (%zu batches), window %zu\n",
              messages.size(), batch_size,
              (messages.size() + batch_size - 1) / batch_size, window);

  // Warm-up pass (allocator + code paths), then the measured passes.
  DriveStream(system, messages, batch_size, window);
  StreamRun windowed = DriveStream(system, messages, batch_size, window);
  StreamRun unbounded = DriveStream(system, messages, batch_size, 0);

  const double early = SmoothedBatchSeconds(windowed.batch_seconds, 4);
  const double late = SmoothedBatchSeconds(windowed.batch_seconds, 49);
  const double ratio = early > 0 ? late / early : 0.0;
  // The acceptance bar: with the window on, a late batch costs at most
  // 1.5x an early one (both medians, machine-relative).
  const bool bounded_ok = windowed.batch_seconds.size() > 50 && ratio <= 1.5;

  std::printf("\nwindowed:  batch5 %.1fus  batch50 %.1fus  ratio %.2f  -> %s\n",
              early * 1e6, late * 1e6, ratio,
              bounded_ok ? "BOUNDED (<= 1.5x)" : "NOT bounded");
  std::printf("  peak mem %.2f MB, final mem %.2f MB, %zu evicted\n",
              windowed.peak_memory_bytes / (1024.0 * 1024.0),
              windowed.final_memory_bytes / (1024.0 * 1024.0), windowed.evicted);
  std::printf("unbounded: peak mem %.2f MB (%.1fx windowed peak)\n",
              unbounded.peak_memory_bytes / (1024.0 * 1024.0),
              windowed.peak_memory_bytes > 0
                  ? static_cast<double>(unbounded.peak_memory_bytes) /
                        static_cast<double>(windowed.peak_memory_bytes)
                  : 0.0);

  std::printf("\ncold start (train-once / load-many):\n");
  const ColdStart cold = MeasureColdStart(options, &system);
  std::printf("  retrain %.2fs  vs  bundle load %.3fs "
              "(%.0fx faster), save %.3fs, %.2f MB on disk\n",
              cold.retrain_seconds, cold.bundle_load_seconds,
              cold.bundle_load_seconds > 0
                  ? cold.retrain_seconds / cold.bundle_load_seconds
                  : 0.0,
              cold.bundle_save_seconds,
              cold.bundle_bytes / (1024.0 * 1024.0));

  WriteJson(windowed, unbounded, messages.size(), batch_size, window,
            options.scale, calibration_seconds, early, late, bounded_ok,
            cold);
  return cold.load_ok ? 0 : 1;
}
