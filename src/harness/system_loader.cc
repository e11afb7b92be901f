#include "harness/system_loader.h"

#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace nerglob::harness {

std::string ParseModelFlag(int* argc, char** argv) {
  constexpr const char kPrefix[] = "--model=";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], kPrefix, kPrefixLen) == 0) {
      path = argv[i] + kPrefixLen;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

Result<TrainedSystem> LoadOrTrainSystem(const BuildOptions& options,
                                        const std::string& model_path) {
  if (model_path.empty()) return BuildTrainedSystem(options);

  WallTimer timer;
  Result<core::ModelBundle> bundle = core::ModelBundle::Load(model_path);
  if (!bundle.ok()) return bundle.status();
  const double load_ms = timer.ElapsedMillis();
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(model_path, ec);
  NERGLOB_LOG(kInfo) << "loaded model bundle '" << model_path
                     << "' (fingerprint " << bundle->Fingerprint() << ", "
                     << (ec ? 0 : bytes) << " bytes in "
                     << StrFormat("%.2f", load_ms) << " ms)";
  TrainedSystem system;
  system.kb_train = data::KnowledgeBase::BuildProceduralOnly(
      options.kb_entities_per_topic_type, options.seed * 31 + 1);
  system.kb_eval = data::KnowledgeBase::BuildStandard(
      options.kb_entities_per_topic_type, options.seed * 31 + 2);
  system.bundle = std::move(bundle).value();
  StatsIntoSystem(system.bundle.training_stats(), &system);
  return system;
}

}  // namespace nerglob::harness
