#include "traffic.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "data/generator.h"

namespace nerglob::bench_e2e {
namespace {

// Far longer than any window (2,048) and than the ~25k entries a 64 MB
// encode cache holds across 16 sessions, so replaying a pool reads as
// fresh text to every cache in the system.
constexpr size_t kPoolMessages = 8192;
constexpr size_t kViralMessages = 2000;
constexpr double kViralZipf = 1.0;

double Unit(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

std::vector<stream::Message> GeneratePool(const data::KnowledgeBase& kb,
                                          size_t messages, double zipf,
                                          uint64_t seed) {
  data::DatasetSpec spec = data::MakeDatasetSpec("D1");
  spec.num_messages = messages;
  spec.zipf_exponent = zipf;
  spec.seed = seed;
  return data::StreamGenerator(&kb).Generate(spec);
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Rates are ~40% of the saturated throughput measured on a 4-vCPU x86
// host, and limits 2x that host's median p99 rounded up to 5 ms (README.md,
// "Frozen rates").
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      // name, sessions, shards, batch, window, zipf, viral, threads,
      // serve_batch, cache_mb, rate, latency_limit_ms
      {"chatter", 16, 4, 16, 64, 0.3, 0.0, 4, false, 0, 16000, 10},
      {"trending", 4, 4, 4, 2048, 1.3, 0.0, 4, false, 0, 900, 30},
      {"retweet_storm", 16, 4, 16, 128, 1.1, 0.6, 4, true, 64, 12000, 15},
      {"solo", 1, 1, 16, 64, 0.3, 0.0, 1, false, 0, 7000, 15},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Traffic::Traffic(const Workload& workload, uint64_t seed,
                 const data::KnowledgeBase& kb)
    : workload_(workload), seed_(seed) {
  for (size_t s = 0; s < workload.sessions; ++s) {
    pools_.push_back(
        GeneratePool(kb, kPoolMessages, workload.zipf, Mix(seed * 1000 + s)));
  }
  if (workload.viral_share > 0.0) {
    // One viral pool per workload, not per seed: which copies land where
    // varies with the seed, but the few messages Zipf(1.0) makes dominant
    // stay the same, so quality does not swing with them.
    viral_ = GeneratePool(kb, kViralMessages, workload.zipf, Mix(999));
    double total = 0.0;
    for (size_t k = 0; k < viral_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kViralZipf);
      viral_cdf_.push_back(total);
    }
    for (double& c : viral_cdf_) c /= total;
  }
}

const stream::Message& Traffic::Source(size_t session, int64_t index) const {
  const uint64_t position = static_cast<uint64_t>(index);
  if (!viral_.empty()) {
    const uint64_t h = Mix(Mix(seed_ ^ (session << 40)) ^ position);
    if (Unit(h) < workload_.viral_share) {
      const auto it = std::upper_bound(viral_cdf_.begin(), viral_cdf_.end(),
                                       Unit(Mix(h)));
      const size_t k = std::min<size_t>(
          static_cast<size_t>(it - viral_cdf_.begin()), viral_.size() - 1);
      return viral_[k];
    }
  }
  return pools_[session][position % kPoolMessages];
}

std::vector<stream::Message> Traffic::Batch(size_t session,
                                            int64_t batch_index) const {
  std::vector<stream::Message> batch;
  batch.reserve(workload_.batch);
  const int64_t first = batch_index * static_cast<int64_t>(workload_.batch);
  for (int64_t i = first; i < first + static_cast<int64_t>(workload_.batch);
       ++i) {
    batch.push_back(Source(session, i));
    batch.back().id = i;
  }
  return batch;
}

std::vector<Arrival> PoissonSchedule(const Workload& workload, uint64_t seed,
                                     double duration_s,
                                     const std::vector<int64_t>& first_batch) {
  const double per_session =
      workload.rate /
      static_cast<double>(workload.sessions * workload.batch);
  std::vector<Arrival> arrivals;
  for (size_t s = 0; s < workload.sessions; ++s) {
    Rng rng(Mix(seed * 1000 + 500 + s));
    int64_t next = first_batch[s];
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.NextDouble()) / per_session;
      if (t >= duration_s) break;
      arrivals.push_back({t, s, next++});
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_s < b.due_s;
                   });
  return arrivals;
}

}  // namespace nerglob::bench_e2e
