#ifndef NERGLOB_BENCH_E2E_LAYERS_H_
#define NERGLOB_BENCH_E2E_LAYERS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace nerglob::bench_e2e {

/// One printed metric. An absent value is a layer that did no work in
/// this run (or an instrument the program no longer has): it prints as
/// n/a, never as a crash.
struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;
  std::string better = {};  ///< "higher"/"lower" where BENCHMARK.json has none
};

/// Read-only view of the process-wide metrics registry by instrument
/// name, parsed from MetricsRegistry::ToJson() so that a renamed or
/// re-kinded instrument reads as absent instead of failing a CHECK.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();

  /// Counter or gauge value.
  std::optional<double> Value(const std::string& name) const;
  /// Histogram observation count and sum.
  std::optional<double> Count(const std::string& histogram) const;
  std::optional<double> Sum(const std::string& histogram) const;

 private:
  std::optional<double> Find(const std::string& key) const;
  std::map<std::string, double> leaves_;  // "histograms/name/sum" -> value
};

/// In-memory bench-side spans around calls into the program's public
/// functions, written out as Chrome trace-event JSON at exit. When
/// disabled, Begin reads no clock and returns -1.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, int parent = -1, int session = -1,
            int64_t batch_seq = -1);
  void End(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, int parent = -1, int session = -1,
          int64_t batch_seq = -1)
        : log_(log), id_(log->Begin(name, parent, session, batch_seq)) {}
    ~Scope() { log_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanLog* log_;
    int id_;
  };

  /// Durations (seconds) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  double TotalSeconds(const std::string& name) const;
  /// Writes {"traceEvents": [...]} (complete "X" events, microseconds).
  bool WriteChromeTrace(const std::string& path,
                        const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int session;
    int64_t batch_seq;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Bench-side measurements that feed the per-layer table.
struct BenchSide {
  double messages = 0.0;         ///< processed in the traced window
  double tokens_submitted = 0.0; ///< tokens of those messages
  double submit_us_p50 = 0.0;
  double reject_share = 0.0;     ///< saturation: rejected / attempts
  double replay_messages = 0.0;
  double encode_many_s = 0.0;    ///< split-path replay, bench-timed
  double process_pre_encoded_s = 0.0;
  double reconcile_error = 0.0;
  double overhead_share = 0.0;   ///< 1 - traced / untraced throughput
};

/// The per-layer table (README.md, "Per-layer metrics"), in print order.
/// `window` is the registry read at the end of the traced open-loop window.
std::vector<Metric> LayerMetrics(const RegistrySnapshot& window,
                                 const BenchSide& bench);

}  // namespace nerglob::bench_e2e

#endif  // NERGLOB_BENCH_E2E_LAYERS_H_
