// Pipeline introspection on a full dataset: after running a stream through
// NER Globalizer, dump the CandidateBase — surface forms, mention pools,
// cluster structure, classifier verdicts — plus pipeline-wide statistics.
// Useful for understanding what collective processing actually built.
//
// Usage: inspect_candidates [--model=bundle.ngb] [dataset=D2] [scale] [top_n=15]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "harness/system_loader.h"

int main(int argc, char** argv) {
  using namespace nerglob;
  const std::string model_path = harness::ParseModelFlag(&argc, argv);
  const std::string dataset = argc > 1 ? argv[1] : "D2";
  const double scale = argc > 2 ? std::atof(argv[2]) : harness::DefaultScale();
  const int top_n = argc > 3 ? std::atoi(argv[3]) : 15;

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

  auto spec = data::TryMakeDatasetSpec(dataset, scale);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  data::StreamGenerator gen(&system.kb_eval);
  auto messages = gen.Generate(*spec);

  core::NerGlobalizer pipeline(&system.bundle,
                               core::DefaultPipelineConfig(system.bundle));
  pipeline.ProcessAll(messages);

  const auto& cb = pipeline.candidate_base();
  std::printf("== %s: %zu messages, %zu surface forms, %zu mentions ==\n",
              dataset.c_str(), messages.size(), cb.surfaces().size(),
              cb.TotalMentions());

  // Rank surfaces by pool size.
  std::vector<std::pair<std::string, size_t>> ranked;
  for (const auto& surface : cb.surfaces()) {
    ranked.emplace_back(surface, cb.Mentions(surface).size());
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  std::printf("\n%-26s %9s %9s  verdicts\n", "surface form", "mentions",
              "clusters");
  for (int i = 0; i < top_n && i < static_cast<int>(ranked.size()); ++i) {
    const auto& [surface, count] = ranked[static_cast<size_t>(i)];
    const auto candidates = pipeline.Candidates(surface);
    std::printf("%-26s %9zu %9zu ", surface.c_str(), count, candidates.size());
    for (const auto& cand : candidates) {
      std::printf(" %s(%zu,%.2f)",
                  cand.is_entity ? text::EntityTypeName(cand.type) : "NONE",
                  cand.mention_ids.size(), cand.confidence);
    }
    std::printf("\n");
  }

  // Aggregate statistics: clusters per surface, entity vs non-entity.
  std::map<size_t, int> cluster_histogram;
  size_t entity_clusters = 0, total_clusters = 0;
  for (const auto& surface : cb.surfaces()) {
    const auto candidates = pipeline.Candidates(surface);
    ++cluster_histogram[candidates.size()];
    total_clusters += candidates.size();
    for (const auto& cand : candidates) entity_clusters += cand.is_entity ? 1 : 0;
  }
  std::printf("\nclusters: %zu total, %zu entity / %zu non-entity\n",
              total_clusters, entity_clusters, total_clusters - entity_clusters);
  std::printf("clusters-per-surface histogram:");
  for (const auto& [k, v] : cluster_histogram) std::printf(" %zu:%d", k, v);
  // Partitions are computed when read: reading the system output clusters
  // every surface, and global_seconds() counts that work.
  size_t output_spans = 0;
  for (const auto& spans : pipeline.Predictions()) output_spans += spans.size();
  std::printf("\nsystem output: %zu entity spans", output_spans);
  std::printf("\nlocal %.2fs + global %.2fs (overhead %.1f%%)\n",
              pipeline.local_seconds(), pipeline.global_seconds(),
              pipeline.local_seconds() > 0
                  ? 100.0 * pipeline.global_seconds() / pipeline.local_seconds()
                  : 0.0);
  return 0;
}
