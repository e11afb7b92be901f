// Command-line annotator: reads messages (one per line) from a file or
// stdin, runs them through the trained NER Globalizer pipeline, and writes
// CoNLL-style BIO output — the adoption path for using this library on
// your own data.
//
// Usage: annotate_file [--model=bundle.ngb] [path|-] [scale]
// With no input path (or "-"), reads stdin; with no stdin, annotates a
// small built-in demo stream. With --model, the trained bundle is loaded
// from the given `.ngb` file (see train_model) instead of training here.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/string_util.h"
#include "harness/system_loader.h"
#include "text/tokenizer.h"

namespace {

using namespace nerglob;

std::vector<std::string> ReadLines(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!TrimWhitespace(line).empty()) lines.push_back(line);
  }
  return lines;
}

const char* const kDemoStream[] = {
    "RT @newsfeed: coronavirus cases rising again in italy",
    "beshear shuts down schools as coronavirus cases rise",
    "the us reports record numbers this week",
    "please help us stay safe out there",
    "thank you NHS workers for fighting coronavirus",
    "#Coronavirus is everywhere in the US right now",
};

}  // namespace

int main(int argc, char** argv) {
  const std::string model_path = harness::ParseModelFlag(&argc, argv);
  std::vector<std::string> lines;
  if (argc > 1 && std::string(argv[1]) != "-") {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    lines = ReadLines(file);
  } else if (argc > 1) {
    lines = ReadLines(std::cin);
  } else {
    for (const char* s : kDemoStream) lines.emplace_back(s);
    std::fprintf(stderr, "(no input given; annotating the built-in demo "
                         "stream — pass a file or '-')\n");
  }
  if (lines.empty()) {
    std::fprintf(stderr, "no input lines\n");
    return 1;
  }

  const double scale = argc > 2 ? std::atof(argv[2]) : harness::DefaultScale();
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

  text::Tokenizer tokenizer;
  std::vector<stream::Message> messages;
  for (size_t i = 0; i < lines.size(); ++i) {
    stream::Message m;
    m.id = static_cast<int64_t>(i);
    m.text = lines[i];
    m.tokens = tokenizer.Tokenize(m.text);
    messages.push_back(std::move(m));
  }

  core::NerGlobalizer pipeline(&system.bundle,
                               core::DefaultPipelineConfig(system.bundle));
  pipeline.ProcessBatch(messages);
  auto predictions = pipeline.Predictions();

  // CoNLL output: token TAB bio-label, blank line between sentences.
  for (size_t m = 0; m < messages.size(); ++m) {
    const auto bio =
        text::EncodeBio(messages[m].tokens.size(), predictions[m]);
    for (size_t t = 0; t < messages[m].tokens.size(); ++t) {
      const std::string_view spelling =
          text::TokenText(messages[m].text, messages[m].tokens[t]);
      std::printf("%.*s\t%s\n", static_cast<int>(spelling.size()),
                  spelling.data(), text::BioLabelName(bio[t]).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
