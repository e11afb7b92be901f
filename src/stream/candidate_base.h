#ifndef NERGLOB_STREAM_CANDIDATE_BASE_H_
#define NERGLOB_STREAM_CANDIDATE_BASE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"
#include "text/bio.h"

namespace nerglob::io {
class TensorWriter;
class TensorReader;
}  // namespace nerglob::io

namespace nerglob::stream {

/// A reference to one mention of a surface form, with its local contextual
/// phrase embedding (Sec. V-B output). The pool entry is the embedding's
/// only copy in memory. It is a pure function of the message's token
/// embeddings, so checkpoints omit it and Load recomputes it.
struct MentionRecord {
  int64_t message_id = 0;
  size_t begin_token = 0;
  size_t end_token = 0;
  Matrix local_embedding;  ///< (1, d)
};

/// Recomputes a restored mention's local embedding into `out`, or returns a
/// non-OK Status when the mention cannot be embedded (e.g. it points past
/// its sentence). CandidateBase::Load calls it concurrently from pool
/// threads, so it must be safe to call from several threads at once.
using MentionEmbedder =
    std::function<Status(const MentionRecord& mention, Matrix* out)>;

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

/// CandidateBase: for each surface form, the growing pool of mention
/// records. The pools are the only stored state: a surface's candidate
/// partition is a pure function of its pool, computed when read. Pools are
/// append-only between eviction rounds; windowed eviction
/// (RemoveMentionsOf / RemoveSurface) is the only operation that shrinks
/// or reindexes a pool.
///
/// Thread-safety: const methods may run concurrently with each other; all
/// mutating methods must be serialized against everything else.
class CandidateBase {
 public:
  CandidateBase() = default;

  /// Appends a mention to the surface form's pool; returns its index.
  /// Amortized O(1).
  size_t AddMention(const std::string& surface, MentionRecord mention);

  /// The mention pool for a surface form (empty if unknown). O(1).
  const std::vector<MentionRecord>& Mentions(const std::string& surface) const;

  /// True if the pool for `surface` already holds a mention with this
  /// (message id, token span) — the dedup test for eviction-triggered
  /// rescans. O(pool size).
  bool ContainsMention(const std::string& surface, int64_t message_id,
                       size_t begin_token, size_t end_token) const;

  /// All surface forms with at least one mention, in first-seen order.
  const std::vector<std::string>& surfaces() const { return surface_order_; }

  size_t TotalMentions() const;

  /// The surfaces whose pool holds a mention of a message in `ids`, in
  /// first-seen order. O(total mentions).
  std::vector<std::string> SurfacesWithMentionsOf(
      const std::unordered_set<int64_t>& ids) const;

  /// Drops from the pools of `surfaces` (SurfacesWithMentionsOf(ids)) every
  /// mention whose message id is in `ids`, compacting them (indices
  /// shift). Survivors keep their pool order. O(mentions of `surfaces`).
  void RemoveMentionsOf(const std::unordered_set<int64_t>& ids,
                        const std::vector<std::string>& surfaces);

  /// Erases a surface form entirely — its pool and its slot in
  /// surfaces(). Used when a surface's seed support drops to zero under
  /// eviction. O(number of surfaces) for the order compaction.
  void RemoveSurface(const std::string& surface);

  /// Mean of the surface's non-empty local mention embeddings (Sec. V-D's
  /// pooled global embedding), summed in pool order. Computed on demand so
  /// that the pool stays the only stored copy. Empty matrix for unknown
  /// surfaces or pools without embeddings. O(pool size * d).
  Matrix MeanEmbedding(const std::string& surface) const;

  /// Approximate heap footprint in bytes (mention embeddings dominate).
  /// O(surfaces + total mentions).
  size_t MemoryUsageBytes() const;

  /// Appends the full store as one checksummed record
  /// (io::kTagCandidateBase), surfaces in first-seen order: each pool's
  /// mention spans. Local embeddings are not written; Load recomputes
  /// them.
  Status Save(io::TensorWriter* writer) const;

  /// Restores a store saved with Save, filling every mention's
  /// local_embedding through `embed` (in parallel). `*this` is replaced
  /// only once the whole record validates and every embedding succeeds, so
  /// a restored base is bit-identical to the saved one whenever `embed`
  /// reproduces the original embeddings.
  Status Load(io::TensorReader* reader, const MentionEmbedder& embed);

 private:
  std::unordered_map<std::string, std::vector<MentionRecord>> by_surface_;
  std::vector<std::string> surface_order_;
};

}  // namespace nerglob::stream

#endif  // NERGLOB_STREAM_CANDIDATE_BASE_H_
