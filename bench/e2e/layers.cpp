#include "layers.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/metrics.h"
#include "common/timer.h"

namespace nerglob::bench_e2e {
namespace {

/// Flattens the numeric leaves of a JSON document into "a/b/c" keys,
/// skipping arrays (the registry's histogram buckets). Enough JSON for
/// MetricsRegistry::ToJson; malformed input just stops the walk.
class JsonFlattener {
 public:
  JsonFlattener(const std::string& text, std::map<std::string, double>* out)
      : s_(text), out_(out) {}
  void Run() { Value(""); }

 private:
  void Skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Eat(char c) {
    Skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  std::string String() {
    std::string value;
    if (!Eat('"')) return value;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      value += s_[i_++];
    }
    ++i_;
    return value;
  }
  void Value(const std::string& path) {
    Skip();
    if (i_ >= s_.size()) return;
    const char c = s_[i_];
    if (c == '{' || c == '[') {
      ++i_;
      const char close = c == '{' ? '}' : ']';
      if (Eat(close)) return;
      do {
        if (c == '{') {
          const std::string key = String();
          if (!Eat(':')) return;
          Value(path.empty() ? key : path + "/" + key);
        } else {
          Value("");  // array elements are not addressable
        }
      } while (Eat(','));
      Eat(close);
    } else if (c == '"') {
      String();
    } else {
      const char* begin = s_.c_str() + i_;
      char* end = nullptr;
      const double v = std::strtod(begin, &end);
      if (end == begin) {  // true/false/null
        while (i_ < s_.size() && std::isalpha(static_cast<unsigned char>(s_[i_]))) ++i_;
        return;
      }
      i_ += static_cast<size_t>(end - begin);
      if (!path.empty()) (*out_)[path] = v;
    }
  }

  const std::string& s_;
  std::map<std::string, double>* out_;
  size_t i_ = 0;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             MonotonicClock::now().time_since_epoch())
      .count();
}

std::optional<double> Ratio(std::optional<double> num,
                            std::optional<double> den, double scale = 1.0) {
  if (!num || !den || *den <= 0.0) return std::nullopt;
  return *num / *den * scale;
}

/// Counters register on first increment, so an absent one counts zero.
double Total(const RegistrySnapshot& r, const std::string& a,
             const std::string& b) {
  return r.Value(a).value_or(0.0) + r.Value(b).value_or(0.0);
}

}  // namespace

RegistrySnapshot RegistrySnapshot::Take() {
  RegistrySnapshot snapshot;
  JsonFlattener(metrics::MetricsRegistry::Global().ToJson(), &snapshot.leaves_)
      .Run();
  return snapshot;
}

std::optional<double> RegistrySnapshot::Find(const std::string& key) const {
  const auto it = leaves_.find(key);
  if (it == leaves_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> RegistrySnapshot::Value(const std::string& name) const {
  if (auto v = Find("counters/" + name)) return v;
  return Find("gauges/" + name);
}

std::optional<double> RegistrySnapshot::Count(const std::string& histogram) const {
  return Find("histograms/" + histogram + "/count");
}

std::optional<double> RegistrySnapshot::Sum(const std::string& histogram) const {
  return Find("histograms/" + histogram + "/sum");
}

int SpanLog::Begin(const char* name, int parent, int session,
                   int64_t batch_seq) {
  if (!enabled_) return -1;
  spans_.push_back({name, NowNs(), 0, parent, session, batch_seq});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back((span.end_ns - span.start_ns) * 1e-9);
  }
  return out;
}

double SpanLog::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const double d : Durations(name)) total += d;
  return total;
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"workload\": \"%s\", \"session\": %d, "
                 "\"batch_seq\": %lld}}%s\n",
                 s.name, (s.start_ns - origin) * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, i, s.parent, workload.c_str(),
                 s.session, static_cast<long long>(s.batch_seq),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<Metric> LayerMetrics(const RegistrySnapshot& r,
                                 const BenchSide& bench) {
  const std::optional<double> msgs =
      bench.messages > 0 ? std::optional<double>(bench.messages) : std::nullopt;
  // Busy or wall milliseconds per 1,000 processed messages.
  auto per_kmsg_ms = [&](const std::string& histogram) {
    return Ratio(r.Sum(histogram), msgs, 1e6);
  };
  auto per_kmsg = [&](const std::string& counter) {
    return Ratio(r.Value(counter), msgs, 1e3);
  };
  auto per_msg = [&](const std::string& counter) {
    return Ratio(r.Value(counter), msgs);
  };
  auto hit_share = [&](const std::string& hits, const std::string& misses) {
    return Ratio(r.Value(hits).value_or(0.0), Total(r, hits, misses));
  };
  auto mean_ms = [&](const std::string& histogram) {
    return Ratio(r.Sum(histogram), r.Count(histogram), 1e3);
  };

  std::optional<double> queue_wait;
  if (auto total = mean_ms("serve.enqueue_to_complete_seconds")) {
    if (auto service = mean_ms("stage.serve_batch.wall_seconds")) {
      queue_wait = *total - *service;
    }
  }
  const std::optional<double> replay_msgs =
      bench.replay_messages > 0 ? std::optional<double>(bench.replay_messages)
                                : std::nullopt;
  const std::optional<double> gflops =
      Ratio(r.Value("gemm.flops_total"), r.Sum("gemm.wall_seconds"), 1e-9);
  const std::optional<double> inline_share =
      Ratio(r.Value("pool.inline_loops_total").value_or(0.0),
            Total(r, "pool.inline_loops_total", "pool.parallel_loops_total"));

  return {
      {"serve.submit_us_p50", "us", bench.submit_us_p50},
      {"serve.reject_share", "share", bench.reject_share},
      {"serve.queue_wait_ms_mean", "ms", queue_wait},
      {"serve.service_ms_mean", "ms", mean_ms("stage.serve_batch.wall_seconds")},
      {"serve.encode_round_size_mean", "msg",
       Ratio(r.Sum("serve.encode_batch_size"), r.Count("serve.encode_batch_size"))},
      {"serve.encode_round_ms_mean", "ms",
       mean_ms("stage.serve_encode.wall_seconds")},
      {"lm.encode_many_ms_per_kmsg", "ms/kmsg",
       Ratio(bench.encode_many_s, replay_msgs, 1e6)},
      {"lm.encode_busy_ms_per_kmsg", "ms/kmsg",
       per_kmsg_ms("stage.lm_encode.self_seconds")},
      {"lm.tokens_encoded_share", "share",
       Ratio(r.Value("lm.tokens_total"),
             bench.tokens_submitted > 0
                 ? std::optional<double>(bench.tokens_submitted)
                 : std::nullopt)},
      {"lm.encode_cache_hit_share", "share",
       hit_share("lm.encode_cache.hits", "lm.encode_cache.misses")},
      {"lm.encode_cache_busy_ms_per_kmsg", "ms/kmsg",
       r.Count("stage.encode_cache.self_seconds").value_or(0) > 0
           ? per_kmsg_ms("stage.encode_cache.self_seconds")
           : std::nullopt},
      {"tensor.gemm_busy_ms_per_kmsg", "ms/kmsg", per_kmsg_ms("gemm.wall_seconds")},
      {"tensor.gemm_gflops", "GFLOP/s", gflops},
      {"tensor.gemm_calls_per_msg", "count/msg", per_msg("gemm.calls_total")},
      {"stream.process_pre_encoded_ms_per_kmsg", "ms/kmsg",
       Ratio(bench.process_pre_encoded_s, replay_msgs, 1e6)},
      {"core.local_ner_ms_per_kmsg", "ms/kmsg",
       per_kmsg_ms("stage.local_ner.wall_seconds")},
      {"core.mention_extraction_ms_per_kmsg", "ms/kmsg",
       per_kmsg_ms("stage.mention_extraction.wall_seconds")},
      {"core.refresh_candidates_ms_per_kmsg", "ms/kmsg",
       per_kmsg_ms("stage.refresh_candidates.wall_seconds")},
      // Self, not wall: evict's children (the rescan's mention extraction
      // and the refresh) run on the same thread and have their own rows.
      {"core.evict_ms_per_kmsg", "ms/kmsg", per_kmsg_ms("stage.evict.self_seconds")},
      {"cluster.busy_ms_per_kmsg", "ms/kmsg",
       per_kmsg_ms("stage.cluster.self_seconds")},
      {"cluster.pools_per_kmsg", "count/kmsg", per_kmsg("cluster.pools_total")},
      {"cluster.merges_per_kmsg", "count/kmsg",
       per_kmsg("cluster.linkage_merges_total")},
      {"core.classify_busy_ms_per_kmsg", "ms/kmsg",
       per_kmsg_ms("stage.classify.self_seconds")},
      {"core.classifications_per_kmsg", "count/kmsg",
       per_kmsg("pipeline.classifications_total")},
      {"core.phrase_embed_busy_ms_per_kmsg", "ms/kmsg",
       per_kmsg_ms("stage.phrase_embed.self_seconds")},
      {"core.non_entity_drop_share", "share",
       Ratio(r.Value("pipeline.false_positives_dropped_total"),
             r.Value("pipeline.clusters_formed_total"))},
      {"core.mentions_per_msg", "count/msg",
       per_msg("pipeline.mentions_extracted_total")},
      {"trie.scans_per_msg", "count/msg", per_msg("pipeline.trie_scans_total")},
      {"stream.embed_cache_hit_share", "share",
       hit_share("stream.embed_cache.hits", "stream.embed_cache.misses")},
      {"pool.inline_share", "share", inline_share},
      {"arena.heap_allocs_per_kmsg", "count/kmsg",
       Ratio(r.Value("arena.heap_allocs_total").value_or(0.0), msgs, 1e3)},
      {"trace.overhead_share", "share", bench.overhead_share},
      {"replay.reconcile_error", "share", bench.reconcile_error},
  };
}

}  // namespace nerglob::bench_e2e
