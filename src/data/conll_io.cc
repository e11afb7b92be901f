#include "data/conll_io.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "text/tokenizer.h"

namespace nerglob::data {

namespace {

/// Parses a CoNLL label ("O", "B-PER", "I-creative-work", ...). Unknown
/// entity type names fold into MISC (the paper's grouping). Returns false
/// for labels that are not O/B-*/I-*.
bool ParseConllLabel(const std::string& label, int* bio_label) {
  if (label == "O") {
    *bio_label = text::kBioOutside;
    return true;
  }
  if (label.size() < 3 || label[1] != '-' || (label[0] != 'B' && label[0] != 'I')) {
    return false;
  }
  const std::string type_name = ToLowerAscii(label.substr(2));
  text::EntityType type = text::EntityType::kMisc;
  if (type_name == "per" || type_name == "person") {
    type = text::EntityType::kPerson;
  } else if (type_name == "loc" || type_name == "location" ||
             type_name == "geo-loc") {
    type = text::EntityType::kLocation;
  } else if (type_name == "org" || type_name == "organization" ||
             type_name == "corporation") {
    type = text::EntityType::kOrganization;
  }  // everything else (product, creative-work, group, ...) -> MISC
  *bio_label = label[0] == 'B' ? text::BioBeginLabel(type)
                               : text::BioInsideLabel(type);
  return true;
}

stream::Message FinishSentence(int64_t id, std::vector<std::string> words,
                               const std::vector<int>& bio) {
  stream::Message msg;
  msg.id = id;
  // Synthesize text and offsets: tokens joined by single spaces. We do not
  // re-run the tokenizer — CoNLL input defines the tokenization.
  size_t offset = 0;
  for (size_t t = 0; t < words.size(); ++t) {
    const std::string& word = words[t];
    text::Token token;
    token.match = ToLowerAscii(word.size() > 1 && word[0] == '#'
                                   ? std::string_view(word).substr(1)
                                   : std::string_view(word));
    token.begin = static_cast<uint32_t>(offset);
    token.end = static_cast<uint32_t>(offset + word.size());
    offset = token.end + 1;
    if (!msg.text.empty()) msg.text += ' ';
    msg.text += word;
    msg.tokens.push_back(std::move(token));
  }
  msg.gold_spans = text::DecodeBio(bio);
  return msg;
}

}  // namespace

Result<std::vector<stream::Message>> ReadConll(std::istream& in) {
  std::vector<stream::Message> messages;
  std::vector<std::string> words;
  std::vector<int> bio;
  std::string line;
  size_t line_number = 0;
  int64_t next_id = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty()) {
      if (!words.empty()) {
        messages.push_back(FinishSentence(next_id++, std::move(words), bio));
        words.clear();
        bio.clear();
      }
      continue;
    }
    const auto fields = SplitWhitespace(trimmed);
    if (fields.size() < 2) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected TOKEN LABEL", line_number));
    }
    int label = 0;
    if (!ParseConllLabel(fields.back(), &label)) {
      return Status::InvalidArgument(
          StrFormat("line %zu: bad label '%s'", line_number,
                    fields.back().c_str()));
    }
    words.push_back(fields.front());
    bio.push_back(label);
  }
  if (!words.empty()) {
    messages.push_back(FinishSentence(next_id++, std::move(words), bio));
  }
  return messages;
}

Result<std::vector<stream::Message>> ReadConllFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);
  return ReadConll(in);
}

Status WriteConll(std::ostream& out,
                  const std::vector<stream::Message>& messages,
                  const std::vector<std::vector<text::EntitySpan>>& spans) {
  if (messages.size() != spans.size()) {
    return Status::InvalidArgument("messages/spans size mismatch");
  }
  for (size_t m = 0; m < messages.size(); ++m) {
    const auto labels = text::EncodeBio(messages[m].tokens.size(), spans[m]);
    for (size_t t = 0; t < messages[m].tokens.size(); ++t) {
      out << text::TokenText(messages[m].text, messages[m].tokens[t]) << '\t'
          << text::BioLabelName(labels[t])
          << '\n';
    }
    out << '\n';
  }
  if (!out) return Status::IoError("write failed");
  return Status::OK();
}

}  // namespace nerglob::data
