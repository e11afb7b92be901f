#include "text/bio.h"

#include <ostream>

#include "common/check.h"

namespace nerglob::text {

const char* EntityTypeName(EntityType type) {
  switch (type) {
    case EntityType::kPerson:
      return "PER";
    case EntityType::kLocation:
      return "LOC";
    case EntityType::kOrganization:
      return "ORG";
    case EntityType::kMisc:
      return "MISC";
  }
  return "UNKNOWN";
}

std::ostream& operator<<(std::ostream& os, const EntitySpan& span) {
  return os << '[' << span.begin_token << ',' << span.end_token << ") "
            << EntityTypeName(span.type);
}

bool ParseEntityType(const std::string& name, EntityType* out) {
  if (name == "PER") {
    *out = EntityType::kPerson;
  } else if (name == "LOC") {
    *out = EntityType::kLocation;
  } else if (name == "ORG") {
    *out = EntityType::kOrganization;
  } else if (name == "MISC") {
    *out = EntityType::kMisc;
  } else {
    return false;
  }
  return true;
}

int BioBeginLabel(EntityType type) { return 1 + 2 * static_cast<int>(type); }
int BioInsideLabel(EntityType type) { return 2 + 2 * static_cast<int>(type); }

bool IsBioBegin(int label) { return label > 0 && label % 2 == 1; }
bool IsBioInside(int label) { return label > 0 && label % 2 == 0; }

EntityType BioLabelType(int label) {
  NERGLOB_CHECK_NE(label, kBioOutside);
  return static_cast<EntityType>((label - 1) / 2);
}

std::string BioLabelName(int label) {
  if (label == kBioOutside) return "O";
  const char* type = EntityTypeName(BioLabelType(label));
  return (IsBioBegin(label) ? std::string("B-") : std::string("I-")) + type;
}

std::vector<int> EncodeBio(size_t num_tokens,
                           const std::vector<EntitySpan>& spans) {
  std::vector<int> labels(num_tokens, kBioOutside);
  for (const EntitySpan& span : spans) {
    NERGLOB_CHECK_LT(span.begin_token, span.end_token);
    NERGLOB_CHECK_LE(span.end_token, num_tokens);
    for (size_t t = span.begin_token; t < span.end_token; ++t) {
      NERGLOB_CHECK_EQ(labels[t], kBioOutside) << "overlapping spans";
      labels[t] = t == span.begin_token ? BioBeginLabel(span.type)
                                        : BioInsideLabel(span.type);
    }
  }
  return labels;
}

std::vector<EntitySpan> DecodeBio(const std::vector<int>& labels) {
  std::vector<EntitySpan> spans;
  bool open = false;
  EntitySpan current;
  for (size_t t = 0; t < labels.size(); ++t) {
    const int label = labels[t];
    if (label == kBioOutside) {
      if (open) {
        current.end_token = t;
        spans.push_back(current);
        open = false;
      }
      continue;
    }
    const EntityType type = BioLabelType(label);
    if (IsBioBegin(label) || !open || current.type != type) {
      // B- always opens; an I- that does not continue the open span also
      // opens a new one (conlleval-style repair).
      if (open) {
        current.end_token = t;
        spans.push_back(current);
      }
      current.begin_token = t;
      current.type = type;
      open = true;
    }
    // An I- matching the open span's type just extends it.
  }
  if (open) {
    current.end_token = labels.size();
    spans.push_back(current);
  }
  return spans;
}

}  // namespace nerglob::text
