#ifndef NERGLOB_BENCH_E2E_TRAFFIC_H_
#define NERGLOB_BENCH_E2E_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/knowledge_base.h"
#include "stream/message.h"

namespace nerglob::bench_e2e {

/// One benchmark workload: the traffic shape, the serving configuration,
/// the three environment knobs, and the frozen open-loop rate. README.md
/// gives the reason each workload exists and what it should (not) move.
struct Workload {
  const char* name;
  size_t sessions;
  size_t shards;
  size_t batch;            ///< messages per Submit
  size_t window;           ///< pipeline.window_messages
  double zipf;             ///< entity recurrence inside each session's pool
  double viral_share;      ///< share of messages copied from the viral pool
  int threads;             ///< NERGLOB_THREADS
  bool serve_batch;        ///< NERGLOB_SERVE_BATCH
  int encode_cache_mb;     ///< NERGLOB_ENCODE_CACHE_MB
  double rate;             ///< open-loop offered load, messages per second
  double latency_limit_ms; ///< per-batch limit for the SLO-miss share
};

const std::vector<Workload>& Workloads();
/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// The traffic of one (workload, seed): per session, a pool of D1-world
/// messages replayed cyclically, optionally interleaved with exact copies
/// from a viral pool shared by every session. Every message is a pure
/// function of (seed, session, index), so the verification replay and the
/// scorer regenerate exactly what the generator submitted. Message ids are
/// the stream index, unique within a session.
class Traffic {
 public:
  Traffic(const Workload& workload, uint64_t seed,
          const data::KnowledgeBase& kb);

  /// The pool message behind stream position `index` of `session`.
  const stream::Message& Source(size_t session, int64_t index) const;
  /// Batch `batch_index` of `session`: positions [b * batch, (b+1) * batch)
  /// copied out of their pools with the position as id.
  std::vector<stream::Message> Batch(size_t session, int64_t batch_index) const;

 private:
  const Workload& workload_;
  uint64_t seed_;
  std::vector<std::vector<stream::Message>> pools_;  // one per session
  std::vector<stream::Message> viral_;
  std::vector<double> viral_cdf_;  // Zipf(1.0) over viral_
};

/// One open-loop arrival: session `session` submits its batch
/// `batch_index`, due `due_s` seconds after the open loop starts.
struct Arrival {
  double due_s = 0.0;
  size_t session = 0;
  int64_t batch_index = 0;
};

/// Poisson arrivals per session at workload.rate / (sessions * batch)
/// batches per second over [0, duration_s), merged in due order. Session
/// s's arrivals take its batches first_batch[s], first_batch[s] + 1, ...
std::vector<Arrival> PoissonSchedule(const Workload& workload, uint64_t seed,
                                     double duration_s,
                                     const std::vector<int64_t>& first_batch);

/// SplitMix64 finalizer: the one hash every seed derivation goes through.
uint64_t Mix(uint64_t x);

}  // namespace nerglob::bench_e2e

#endif  // NERGLOB_BENCH_E2E_TRAFFIC_H_
