// Continuous streaming execution: the scenario that motivates the paper.
// A Covid conversation stream (the D2 setting) arrives in batches and is
// driven through a StreamingSession — the bounded-memory runtime. With a
// window (third argument) the session retires old messages after every
// batch, flushing their *finalized* predictions downstream while CTrie /
// CandidateBase / TweetBase stay bounded; with window 0 it reproduces the
// classic unbounded growth ("collective processing ... evolves with the
// stream itself", Sec. V).
//
// Usage: streaming_covid [--model=bundle.ngb] [scale] [batch_size]
//                        [window_messages]
//   window_messages = 0 (default) disables eviction. With --model, the
//   trained bundle is loaded from the given `.ngb` file (see train_model)
//   instead of training here.

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "common/metrics.h"
#include "data/generator.h"
#include "harness/system_loader.h"
#include "stream/message.h"
#include "stream/streaming_session.h"

int main(int argc, char** argv) {
  using namespace nerglob;
  const std::string model_path = harness::ParseModelFlag(&argc, argv);
  const double scale = argc > 1 ? std::atof(argv[1]) : harness::DefaultScale();
  const size_t batch_size = argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 100;
  const size_t window = argc > 3 ? static_cast<size_t>(std::atoi(argv[3])) : 0;

  std::printf("== Simulated Covid stream, batch-by-batch Global NER ==\n");
  if (window > 0) {
    std::printf("(sliding window: %zu messages; older messages are finalized "
                "and evicted)\n", window);
  }
  harness::BuildOptions options;
  options.scale = scale;
  options.cache_dir = harness::DefaultCacheDir();
  auto loaded = harness::LoadOrTrainSystem(options, model_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load model: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  harness::TrainedSystem& system = loaded.value();

  data::StreamGenerator gen(&system.kb_eval);
  auto messages = gen.Generate(data::MakeDatasetSpec("D2", scale));
  stream::StreamSource source(messages, batch_size);

  stream::StreamingSessionConfig config;
  config.pipeline = core::DefaultPipelineConfig(system.bundle);
  config.pipeline.window_messages = window;
  stream::StreamingSession session(&system.bundle, config);
  auto& pipeline = session.pipeline();

  std::printf("\n%8s %10s %10s %12s %12s %10s %10s\n", "batch", "live",
              "surfaces", "mentions", "finalized", "mem-MB", "macro-F1");
  while (session.Step(&source)) {
    // Score the live window against its gold annotation.
    std::vector<std::vector<text::EntitySpan>> gold;
    std::unordered_map<int64_t, const stream::Message*> by_id;
    for (const auto& m : messages) by_id[m.id] = &m;
    for (int64_t id : pipeline.message_ids()) {
      gold.push_back(by_id.at(id)->gold_spans);
    }
    auto predictions = pipeline.Predictions();
    auto scores = eval::EvaluateNer(gold, predictions);

    const auto usage = session.MemoryUsage();
    std::printf("%8zu %10zu %10zu %12zu %12zu %10.1f %10.3f\n",
                session.batches_processed(), pipeline.tweet_base().size(),
                pipeline.trie().size(),
                pipeline.candidate_base().TotalMentions(),
                session.finalized().size(),
                static_cast<double>(usage.total_bytes) / (1024.0 * 1024.0),
                scores.macro_f1);
  }
  session.Flush();

  // The finalized checkpoint stream covers every message exactly once, in
  // stream order — score it end-to-end.
  std::vector<std::vector<text::EntitySpan>> gold, finalized;
  {
    std::unordered_map<int64_t, const stream::Message*> by_id;
    for (const auto& m : messages) by_id[m.id] = &m;
    for (const auto& f : session.finalized()) {
      gold.push_back(by_id.at(f.message_id)->gold_spans);
      finalized.push_back(f.spans);
    }
  }
  auto final_scores = eval::EvaluateNer(gold, finalized);

  std::printf("\nfinal: %zu messages finalized (%zu by eviction), "
              "macro-F1 %.3f\n",
              session.finalized().size(), pipeline.evicted_messages(),
              final_scores.macro_f1);
  std::printf("live state: %zu sentence records, %zu surface forms, "
              "%zu mention records\n",
              pipeline.tweet_base().size(), pipeline.trie().size(),
              pipeline.candidate_base().TotalMentions());
  std::printf("local time %.2fs, global time %.2fs (overhead %.1f%%)\n",
              pipeline.local_seconds(), pipeline.global_seconds(),
              pipeline.local_seconds() > 0
                  ? 100.0 * pipeline.global_seconds() / pipeline.local_seconds()
                  : 0.0);

  // With NERGLOB_METRICS=1, persist the per-stage histograms and counters
  // accumulated over the stream (same JSON schema as BENCH_metrics.json's
  // "metrics" object; see docs/OBSERVABILITY.md).
  if (nerglob::metrics::Enabled()) {
    const char* path = "streaming_covid_metrics.json";
    if (nerglob::metrics::MetricsRegistry::Global().WriteJsonFile(path)) {
      std::printf("wrote %s\n", path);
    }
  }
  return 0;
}
