#ifndef NERGLOB_CORE_NER_GLOBALIZER_CONFIG_H_
#define NERGLOB_CORE_NER_GLOBALIZER_CONFIG_H_

#include <cstddef>

#include "trie/candidate_trie.h"

namespace nerglob::core {

/// Pipeline knobs, split into their own header so the stage functions
/// (core/stages.h) can consume them without pulling in the NerGlobalizer
/// driver.
struct NerGlobalizerConfig {
  /// Agglomerative clustering cut (cosine distance; must be < 1, the
  /// triplet margin — Sec. V-C).
  float cluster_threshold = 0.6f;
  /// Mention-extraction lookahead (k following tokens, Sec. V-A).
  size_t max_mention_span = trie::CandidateTrie::kDefaultMaxSpan;
  /// Sliding-window size in messages. 0 (default) disables eviction: state
  /// grows with the stream, exactly the pre-windowing behavior. When > 0,
  /// each ProcessBatch retires the oldest records beyond the window,
  /// flushing their final predictions to TakeFinalized(), pruning CTrie
  /// entries and CandidateBase surfaces whose support in the live window
  /// drops to zero, and keeping MemoryUsage() bounded.
  size_t window_messages = 0;
  /// Batch size used by ProcessAll when the caller passes 0 (the default),
  /// and messages per EncodeMany call when Restore re-encodes the window.
  /// A driver knob, not state semantics: it is NOT echoed into checkpoints
  /// and any value yields bit-identical outputs for the same batching.
  size_t process_batch_size = 256;
};

}  // namespace nerglob::core

#endif  // NERGLOB_CORE_NER_GLOBALIZER_CONFIG_H_
