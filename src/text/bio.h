#ifndef NERGLOB_TEXT_BIO_H_
#define NERGLOB_TEXT_BIO_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace nerglob::text {

/// The four entity types NER Globalizer classifies (Sec. III), matching the
/// paper's grouping of WNUT17's fine types into MISC.
enum class EntityType { kPerson = 0, kLocation = 1, kOrganization = 2, kMisc = 3 };

inline constexpr int kNumEntityTypes = 4;

/// "PER"/"LOC"/"ORG"/"MISC".
const char* EntityTypeName(EntityType type);

/// Inverse of EntityTypeName; returns false for unknown names.
bool ParseEntityType(const std::string& name, EntityType* out);

/// A typed entity span over a token sequence, [begin_token, end_token).
struct EntitySpan {
  size_t begin_token = 0;
  size_t end_token = 0;
  EntityType type = EntityType::kPerson;

  friend bool operator==(const EntitySpan& a, const EntitySpan& b) {
    return a.begin_token == b.begin_token && a.end_token == b.end_token &&
           a.type == b.type;
  }
};

/// Prints `[begin,end) TYPE`, e.g. `[2,4) LOC`; gtest uses it to show
/// spans in failed expectations.
std::ostream& operator<<(std::ostream& os, const EntitySpan& span);

/// BIO tagging scheme (Ramshaw & Marcus): label ids are
///   0      -> O
///   1 + 2t -> B-<type t>
///   2 + 2t -> I-<type t>
/// giving 1 + 2 * kNumEntityTypes = 9 labels.
inline constexpr int kNumBioLabels = 1 + 2 * kNumEntityTypes;
inline constexpr int kBioOutside = 0;

int BioBeginLabel(EntityType type);
int BioInsideLabel(EntityType type);

/// True if the label is a B- label (any type).
bool IsBioBegin(int label);
/// True if the label is an I- label (any type).
bool IsBioInside(int label);
/// Entity type of a non-O label. Requires label != O.
EntityType BioLabelType(int label);

/// "O", "B-PER", "I-LOC", ...
std::string BioLabelName(int label);

/// Encodes spans over a sentence of `num_tokens` tokens into BIO labels.
/// Overlapping spans are a programming error (checked).
std::vector<int> EncodeBio(size_t num_tokens, const std::vector<EntitySpan>& spans);

/// Decodes BIO labels into spans. Tolerates ill-formed sequences the way
/// conlleval does: an I- without a preceding B- of the same type opens a
/// new span.
std::vector<EntitySpan> DecodeBio(const std::vector<int>& labels);

}  // namespace nerglob::text

#endif  // NERGLOB_TEXT_BIO_H_
