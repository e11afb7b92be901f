#ifndef NERGLOB_STREAM_CANDIDATE_BASE_H_
#define NERGLOB_STREAM_CANDIDATE_BASE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "tensor/matrix.h"
#include "text/bio.h"

namespace nerglob::stream {

/// A reference to one mention of a surface form, with its local contextual
/// phrase embedding (Sec. V-B output). The pool entry is the embedding's
/// only copy in memory; it is a pure function of the message's token
/// embeddings.
struct MentionRecord {
  int64_t message_id = 0;
  size_t begin_token = 0;
  size_t end_token = 0;
  Matrix local_embedding;  ///< (1, d)
};

/// One entity candidate = one cluster of mentions of a surface form
/// (Sec. V-D: "every candidate cluster corresponds to a unique entity
/// candidate in the CandidateBase"). A pure function of the surface's pool,
/// computed by core::stages::BuildCandidates when read; never stored.
struct CandidateEntry {
  std::string surface;               ///< canonical lowercased surface form
  std::vector<size_t> mention_ids;   ///< indices into the pool for `surface`
  /// Classifier outcome: one of the L entity types, or none (non-entity).
  bool is_entity = false;
  text::EntityType type = text::EntityType::kPerson;
  float confidence = 0.0f;
};

/// CandidateBase: for each surface form, the pool of its mention records.
/// The pools are the only stored state: a surface's candidate partition is
/// a pure function of its pool, computed when read. Every pool is kept in
/// canonical order, ascending (message id, begin token), and no pool is
/// empty, so the store is a function of the mentions it holds, not of the
/// order they arrived in. Checkpoints never hold it: restore re-extracts
/// it from the window (core::stages::ReExtractMentions).
///
/// Thread-safety: const methods may run concurrently with each other; all
/// mutating methods must be serialized against everything else.
class CandidateBase {
 public:
  CandidateBase() = default;

  /// Merges `mentions` (any order) into the surface form's pool, keeping
  /// it in canonical order; mentions with equal keys keep their relative
  /// order. O(pool + k log k) for k mentions.
  void AddMentions(const std::string& surface,
                   std::vector<MentionRecord> mentions);

  /// The mention pool for a surface form, in canonical order (empty if
  /// unknown). O(log surfaces).
  const std::vector<MentionRecord>& Mentions(const std::string& surface) const;

  /// All surface forms with at least one mention, sorted by surface
  /// string. O(surfaces).
  std::vector<std::string> surfaces() const;

  size_t TotalMentions() const;

  /// The surfaces whose pool holds a mention of a message in `ids`, sorted.
  /// Each pool is searched only between the smallest and the largest id in
  /// `ids`: O(|ids| + surfaces * log pool + mentions in that range).
  std::vector<std::string> SurfacesWithMentionsOf(
      const std::unordered_set<int64_t>& ids) const;

  /// Drops from the pools of `surfaces` (SurfacesWithMentionsOf(ids)) every
  /// mention whose message id is in `ids`, and erases the pools this
  /// empties. Survivors keep their order (indices shift). O(mentions of
  /// `surfaces`) moves.
  void RemoveMentionsOf(const std::unordered_set<int64_t>& ids,
                        const std::vector<std::string>& surfaces);

  /// Mean of the surface's non-empty local mention embeddings (Sec. V-D's
  /// pooled global embedding), summed in pool order. Computed on demand so
  /// that the pool stays the only stored copy. Empty matrix for unknown
  /// surfaces or pools without embeddings. O(pool size * d).
  Matrix MeanEmbedding(const std::string& surface) const;

  /// Approximate heap footprint in bytes (mention embeddings dominate).
  /// O(surfaces + total mentions).
  size_t MemoryUsageBytes() const;

 private:
  std::map<std::string, std::vector<MentionRecord>> by_surface_;
};

}  // namespace nerglob::stream

#endif  // NERGLOB_STREAM_CANDIDATE_BASE_H_
