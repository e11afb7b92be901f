// Surface form ambiguity (Sec. V-C): the same string can refer to entities
// of different types — or to no entity at all. The paper's examples:
// "washington" (the president vs the state) and "us" (the country vs the
// pronoun). This example feeds hand-written tweets through the trained
// pipeline and shows how candidate clustering separates the senses.
//
// Usage: ambiguity_resolution [--model=bundle.ngb] [scale]

#include <cstdio>
#include <cstdlib>

#include "harness/system_loader.h"
#include "text/tokenizer.h"

namespace {

using namespace nerglob;

stream::Message Tweet(int64_t id, const std::string& txt) {
  stream::Message m;
  m.id = id;
  m.text = txt;
  m.tokens = text::Tokenizer().Tokenize(txt);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string model_path = harness::ParseModelFlag(&argc, argv);
  const double scale = argc > 1 ? std::atof(argv[1]) : harness::DefaultScale();
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

  // A small hand-written stream mixing both senses of "washington" and of
  // "us". Repetition matters: collective processing needs several mentions
  // of each sense to carve out clusters.
  std::vector<stream::Message> tweets = {
      Tweet(0, "washington announced a lockdown in the capital"),
      Tweet(1, "washington says the bill will pass"),
      Tweet(2, "washington slams the senate over a leaked memo"),
      Tweet(3, "protests erupt in washington after the vote"),
      Tweet(4, "voters in washington are angry about the recount"),
      Tweet(5, "hospitals in washington are full this week"),
      Tweet(6, "the us reports new cases today"),
      Tweet(7, "cases in the us doubled this week"),
      Tweet(8, "please help us get through this"),
      Tweet(9, "none of us saw that coming"),
      Tweet(10, "us hospitals are full because of the surge"),
      Tweet(11, "they left us waiting for hours"),
  };

  core::NerGlobalizer pipeline(&system.bundle,
                               core::DefaultPipelineConfig(system.bundle));
  pipeline.ProcessBatch(tweets);

  std::printf("== candidate clusters per ambiguous surface form ==\n");
  for (const std::string surface : {"washington", "us"}) {  // NOLINT
    const auto& pool = pipeline.candidate_base().Mentions(surface);
    const auto candidates = pipeline.Candidates(surface);
    std::printf("\nsurface \"%s\": %zu mentions -> %zu candidate cluster(s)\n",
                surface.c_str(), pool.size(), candidates.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      const auto& cand = candidates[c];
      std::printf("  cluster %zu: %-10s (confidence %.2f) — tweets:",
                  c, cand.is_entity ? text::EntityTypeName(cand.type)
                                    : "non-entity",
                  cand.confidence);
      for (size_t mention_id : cand.mention_ids) {
        std::printf(" %lld",
                    static_cast<long long>(pool[mention_id].message_id));
      }
      std::printf("\n");
    }
  }

  std::printf("\n== final NER output per tweet ==\n");
  auto predictions = pipeline.Predictions();
  for (size_t m = 0; m < tweets.size(); ++m) {
    std::printf("T%-2zu %-55s ->", m, tweets[m].text.c_str());
    if (predictions[m].empty()) std::printf(" (none)");
    for (const auto& span : predictions[m]) {
      std::string surface;
      for (size_t t = span.begin_token; t < span.end_token; ++t) {
        if (!surface.empty()) surface += ' ';
        surface += text::TokenText(tweets[m].text, tweets[m].tokens[t]);
      }
      std::printf(" [%s:%s]", surface.c_str(), text::EntityTypeName(span.type));
    }
    std::printf("\n");
  }
  return 0;
}
