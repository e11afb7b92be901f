#ifndef NERGLOB_IO_TENSOR_IO_H_
#define NERGLOB_IO_TENSOR_IO_H_

#include <cstdint>
#include <fstream>
#include <string>

#include "common/status.h"
#include "tensor/matrix.h"

namespace nerglob::io {

/// On-disk format shared by every serialized artifact in this repo
/// (module parameter files, `.ngb` model bundles, stream checkpoints).
///
///   header:  8-byte magic "NGBFMT\0\1" | u32 format version | u32 endian
///            sentinel 0x01020304 (files are little-endian; the sentinel
///            rejects byte-swapped files instead of misreading them)
///   records: u32 tag | u64 payload length | payload bytes |
///            u64 FNV-1a checksum of the payload
///
/// Records are length-prefixed so a reader can validate sizes before
/// allocating, and checksummed so truncation/bit-flips surface as a clean
/// `Status` instead of garbage weights. Version policy: readers accept
/// exactly `kFormatVersion`; any change to the header or record framing
/// bumps it. Payload layouts are versioned by their owners (e.g. the
/// bundle config record carries its own layout version).
inline constexpr char kMagic[8] = {'N', 'G', 'B', 'F', 'M', 'T', '\0', '\1'};
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr uint32_t kEndianSentinel = 0x01020304u;

/// Record tags. Each serialized artifact is a sequence of tagged records;
/// readers pass the tag they expect so a module file loaded as a bundle
/// (or vice versa) fails with a clear InvalidArgument.
enum RecordTag : uint32_t {
  kTagModule = 1,        // one nn::Module's parameters
  kTagBundleConfig = 2,  // ModelBundleConfig + fingerprint
  kTagTrainingStats = 3, // harness-owned provenance doubles
  kTagCheckpoint = 4,    // NerGlobalizer checkpoint header
  kTagTweetBase = 5,
  // 6 was kTagCandidateBase (checkpoint layouts up to 7); never reuse it.
  // 7 was kTagTrie (checkpoint layouts up to 4); never reuse it.
  kTagPipelineState = 8, // finalized buffer + evicted count
  kTagSession = 9,       // StreamingSession counters + finalized buffer
  kTagBlob = 10,         // free-form (harness baseline caches, tests)
  kTagServeManifest = 11,  // serve::SessionManager fleet checkpoint index
};

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr size_t kMaxVarintBytes = 10;

/// ZigZag maps signed to unsigned so small magnitudes of either sign get
/// short varints: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Writes one artifact file. Values are buffered into the current record
/// with the Put* calls; `EndRecord(tag)` frames and checksums the buffer.
/// All failures are sticky: the first error is kept and every later call
/// is a no-op, so callers can write straight-line code and check once.
class TensorWriter {
 public:
  /// Opens `path` for writing and emits the header. `format_version`
  /// exists for tests that need to produce version-mismatched files.
  /// `inject_faults` opts this writer into the NERGLOB_FAULT sites
  /// io.open_write / io.write (docs/RELIABILITY.md); it is set only on
  /// paths owned by the robustness layer (io::WriteFileAtomically and the
  /// checkpoint/bundle writers above it), where an injected IoError is
  /// absorbed by io::RetryPolicy — raw writers stay injection-free so a
  /// chaos run never perturbs unrelated file IO.
  explicit TensorWriter(const std::string& path,
                        uint32_t format_version = kFormatVersion,
                        bool inject_faults = false);

  TensorWriter(const TensorWriter&) = delete;
  TensorWriter& operator=(const TensorWriter&) = delete;

  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutF32(float v);
  void PutF64(double v);
  void PutString(std::string_view s);   // u64 length + bytes
  void PutBytes(std::string_view s);    // bytes verbatim, no length
  /// LEB128: seven bits per byte, low group first, high bit set on every
  /// byte but the last. Signed values go through ZigZag first.
  void PutVarint(uint64_t v);
  void PutMatrix(const Matrix& m);      // u64 rows | u64 cols | f32 data

  /// Frames everything buffered since the last EndRecord as one record.
  Status EndRecord(uint32_t tag);

  /// Flushes and closes; returns the final status. Must be called last.
  Status Finish();

  const Status& status() const { return status_; }

 private:
  void Append(const void* bytes, size_t n);

  std::string path_;
  std::ofstream out_;
  std::string buf_;     // payload of the record under construction
  Status status_;
  bool finished_ = false;
  bool inject_faults_ = false;
};

/// Reads one artifact file record by record. `NextRecord(expect_tag)`
/// checksum-verifies one record; the typed Get* calls then consume its
/// payload in order. Like the writer, errors are sticky and every message
/// carries the path and byte offset. Readers never trust on-disk sizes:
/// every length is validated against the remaining record (and the record
/// against the remaining file) before any allocation.
///
/// A record is never staged in memory as a whole. `NextRecord` hashes the
/// payload in one pass over a fixed-size chunk, and the Get* calls then
/// read the fields from the file itself, so loading a multi-megabyte
/// parameter record allocates only the parameters.
class TensorReader {
 public:
  /// `inject_faults` opts this reader into the NERGLOB_FAULT sites
  /// io.open_read / io.read — same contract as the TensorWriter flag: set
  /// only by restore/recovery paths that retry or fall back on failure.
  explicit TensorReader(const std::string& path, bool inject_faults = false);

  TensorReader(const TensorReader&) = delete;
  TensorReader& operator=(const TensorReader&) = delete;

  /// Reads the next record's header and verifies its tag, length and
  /// checksum; no field of it can be read before that passes.
  Status NextRecord(uint32_t expect_tag);

  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool GetF32(float* v);
  bool GetF64(double* v);
  bool GetString(std::string* s);
  /// Fails (InvalidArgument) on an encoding longer than kMaxVarintBytes
  /// or one whose value overflows 64 bits.
  bool GetVarint(uint64_t* v);
  bool GetMatrix(Matrix* m);
  /// Reads `n` floats into `out` (a matrix's stored values without its
  /// shape).
  bool GetFloats(float* out, size_t n);

  /// True when the current record's payload is fully consumed.
  bool AtRecordEnd() const { return cursor_ == record_size_; }

  /// Unread bytes left in the current record. Callers sizing containers
  /// from an on-disk count must bound it by this (every element encodes at
  /// least one byte), so a crafted count cannot drive a huge allocation.
  size_t RemainingInRecord() const { return record_size_ - cursor_; }
  /// Bytes of the file after the current record. A loader that sizes
  /// later records from this one's fields bounds them by it.
  uint64_t RemainingInFile() const { return file_size_ - file_offset_; }

  /// The error for a field `what` of `record` that failed to parse: the
  /// sticky read error if there is one, else InvalidArgument naming the
  /// path, record and field. Either way it is the sticky status after.
  Status Corrupt(const char* record, const char* what);

  /// Errors out (FailedPrecondition) if payload bytes remain unread —
  /// catches layout drift between writer and reader.
  Status ExpectRecordEnd();

  const Status& status() const { return status_; }
  const std::string& path() const { return path_; }

 private:
  bool Take(void* bytes, size_t n);
  Status Fail(Status s);  // records the sticky error and returns it

  std::string path_;
  std::ifstream in_;
  uint64_t file_size_ = 0;
  uint64_t file_offset_ = 0;  // offset of the byte after the current record
  size_t record_size_ = 0;    // payload bytes of the current record
  size_t cursor_ = 0;         // payload bytes of it already read
  Status status_;
  bool inject_faults_ = false;
};

}  // namespace nerglob::io

#endif  // NERGLOB_IO_TENSOR_IO_H_
