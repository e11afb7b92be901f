#include "io/tensor_io.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/fault_injector.h"
#include "common/string_util.h"

namespace nerglob::io {
namespace {

// Hard sanity bound for any single length read from disk. Far above any
// real artifact in this repo (bundles are a few MB) but small enough that
// a corrupt length can't drive a multi-gigabyte allocation.
constexpr uint64_t kMaxReasonableBytes = 1ull << 32;  // 4 GiB

// The reader verifies a record's checksum through a buffer of this size.
constexpr size_t kVerifyChunkBytes = 64 << 10;

}  // namespace

// ---------------------------------------------------------------------------
// TensorWriter

TensorWriter::TensorWriter(const std::string& path, uint32_t format_version,
                           bool inject_faults)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      inject_faults_(inject_faults) {
  if (inject_faults_ && fault::InjectFault(fault::kSiteIoOpenWrite)) {
    status_ = Status::IoError(StrFormat(
        "injected fault at io.open_write ('%s')", path.c_str()));
    return;
  }
  if (!out_) {
    status_ = Status::IoError(
        StrFormat("cannot open '%s' for writing", path.c_str()));
    return;
  }
  out_.write(kMagic, sizeof(kMagic));
  uint32_t header[2] = {format_version, kEndianSentinel};
  out_.write(reinterpret_cast<const char*>(header), sizeof(header));
  if (!out_) {
    status_ = Status::IoError(
        StrFormat("failed writing header to '%s'", path.c_str()));
  }
}

void TensorWriter::Append(const void* bytes, size_t n) {
  if (!status_.ok() || finished_) return;
  buf_.append(reinterpret_cast<const char*>(bytes), n);
}

void TensorWriter::PutU32(uint32_t v) { Append(&v, sizeof(v)); }
void TensorWriter::PutU64(uint64_t v) { Append(&v, sizeof(v)); }
void TensorWriter::PutI64(int64_t v) { Append(&v, sizeof(v)); }
void TensorWriter::PutF32(float v) { Append(&v, sizeof(v)); }
void TensorWriter::PutF64(double v) { Append(&v, sizeof(v)); }

void TensorWriter::PutString(std::string_view s) {
  PutU64(s.size());
  PutBytes(s);
}

void TensorWriter::PutBytes(std::string_view s) { Append(s.data(), s.size()); }

void TensorWriter::PutVarint(uint64_t v) {
  char bytes[kMaxVarintBytes];
  size_t n = 0;
  for (; v >= 0x80; v >>= 7) bytes[n++] = static_cast<char>((v & 0x7f) | 0x80);
  bytes[n++] = static_cast<char>(v);
  Append(bytes, n);
}

void TensorWriter::PutMatrix(const Matrix& m) {
  PutU64(m.rows());
  PutU64(m.cols());
  Append(m.data(), m.size() * sizeof(float));
}

Status TensorWriter::EndRecord(uint32_t tag) {
  if (!status_.ok()) return status_;
  if (inject_faults_ && fault::InjectFault(fault::kSiteIoWrite)) {
    status_ = Status::IoError(StrFormat(
        "injected fault at io.write (tag %u, '%s')", tag, path_.c_str()));
    return status_;
  }
  if (finished_) {
    status_ = Status::FailedPrecondition(
        StrFormat("EndRecord after Finish on '%s'", path_.c_str()));
    return status_;
  }
  const uint64_t len = buf_.size();
  const uint64_t checksum = Fnv1aHash(buf_);
  out_.write(reinterpret_cast<const char*>(&tag), sizeof(tag));
  out_.write(reinterpret_cast<const char*>(&len), sizeof(len));
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  out_.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  buf_.clear();
  if (!out_) {
    status_ = Status::IoError(
        StrFormat("failed writing record (tag %u) to '%s'", tag,
                  path_.c_str()));
  }
  return status_;
}

Status TensorWriter::Finish() {
  if (finished_) return status_;
  finished_ = true;
  if (!status_.ok()) return status_;
  if (!buf_.empty()) {
    status_ = Status::FailedPrecondition(StrFormat(
        "Finish with %zu unframed payload bytes on '%s' (missing EndRecord?)",
        buf_.size(), path_.c_str()));
    return status_;
  }
  out_.flush();
  out_.close();
  if (!out_) {
    status_ =
        Status::IoError(StrFormat("failed flushing '%s'", path_.c_str()));
  }
  return status_;
}

// ---------------------------------------------------------------------------
// TensorReader

TensorReader::TensorReader(const std::string& path, bool inject_faults)
    : path_(path), in_(path, std::ios::binary), inject_faults_(inject_faults) {
  if (inject_faults_ && fault::InjectFault(fault::kSiteIoOpenRead)) {
    status_ = Status::IoError(StrFormat(
        "injected fault at io.open_read ('%s')", path.c_str()));
    return;
  }
  if (!in_) {
    status_ =
        Status::IoError(StrFormat("cannot open '%s'", path.c_str()));
    return;
  }
  in_.seekg(0, std::ios::end);
  file_size_ = static_cast<uint64_t>(in_.tellg());
  in_.seekg(0, std::ios::beg);

  char magic[sizeof(kMagic)];
  uint32_t header[2];
  if (file_size_ < sizeof(kMagic) + sizeof(header)) {
    Fail(Status::InvalidArgument(StrFormat(
        "'%s': file too small for header (%llu bytes)", path.c_str(),
        static_cast<unsigned long long>(file_size_))));
    return;
  }
  in_.read(magic, sizeof(magic));
  in_.read(reinterpret_cast<char*>(header), sizeof(header));
  file_offset_ = sizeof(magic) + sizeof(header);
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    Fail(Status::InvalidArgument(
        StrFormat("'%s': bad magic (not a nerglob artifact)", path.c_str())));
    return;
  }
  if (header[0] != kFormatVersion) {
    Fail(Status::InvalidArgument(StrFormat(
        "'%s': format version mismatch: expected %u, found %u", path.c_str(),
        kFormatVersion, header[0])));
    return;
  }
  if (header[1] != kEndianSentinel) {
    Fail(Status::InvalidArgument(StrFormat(
        "'%s': endianness sentinel mismatch (expected %08x, found %08x)",
        path.c_str(), kEndianSentinel, header[1])));
    return;
  }
}

Status TensorReader::Fail(Status s) {
  if (status_.ok()) status_ = std::move(s);
  return status_;
}

Status TensorReader::NextRecord(uint32_t expect_tag) {
  if (!status_.ok()) return status_;
  if (inject_faults_ && fault::InjectFault(fault::kSiteIoRead)) {
    return Fail(Status::IoError(StrFormat(
        "injected fault at io.read (tag %u, '%s')", expect_tag,
        path_.c_str())));
  }
  uint32_t tag = 0;
  uint64_t len = 0;
  const uint64_t record_start = file_offset_;
  if (file_size_ - file_offset_ < sizeof(tag) + sizeof(len)) {
    return Fail(Status::IoError(StrFormat(
        "'%s': truncated record header at offset %llu", path_.c_str(),
        static_cast<unsigned long long>(record_start))));
  }
  // The previous record's fields may not all have been read.
  in_.seekg(static_cast<std::streamoff>(record_start));
  in_.read(reinterpret_cast<char*>(&tag), sizeof(tag));
  in_.read(reinterpret_cast<char*>(&len), sizeof(len));
  file_offset_ += sizeof(tag) + sizeof(len);
  if (!in_) {
    return Fail(Status::IoError(StrFormat(
        "'%s': read failed at offset %llu", path_.c_str(),
        static_cast<unsigned long long>(record_start))));
  }
  if (tag != expect_tag) {
    return Fail(Status::InvalidArgument(StrFormat(
        "'%s': record tag mismatch at offset %llu: expected %u, found %u",
        path_.c_str(), static_cast<unsigned long long>(record_start),
        expect_tag, tag)));
  }
  // The payload plus its trailing checksum must fit in the remaining file;
  // checking before reading means a corrupt length can't OOM us.
  if (len > kMaxReasonableBytes ||
      len + sizeof(uint64_t) > file_size_ - file_offset_) {
    return Fail(Status::IoError(StrFormat(
        "'%s': truncated or corrupt record at offset %llu: payload of %llu "
        "bytes exceeds remaining %llu",
        path_.c_str(), static_cast<unsigned long long>(record_start),
        static_cast<unsigned long long>(len),
        static_cast<unsigned long long>(file_size_ - file_offset_))));
  }
  // Hash the payload chunk by chunk; its fields are read from the file
  // once the checksum has passed.
  const uint64_t payload_start = file_offset_;
  uint64_t actual = kFnv1aBasis;
  char chunk[kVerifyChunkBytes];
  for (uint64_t left = len; left > 0 && in_;) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(left, sizeof(chunk)));
    in_.read(chunk, static_cast<std::streamsize>(n));
    actual = Fnv1aHash(std::string_view(chunk, n), actual);
    left -= n;
  }
  uint64_t checksum = 0;
  in_.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  file_offset_ += len + sizeof(checksum);
  if (!in_) {
    return Fail(Status::IoError(StrFormat(
        "'%s': read failed inside record at offset %llu", path_.c_str(),
        static_cast<unsigned long long>(record_start))));
  }
  if (actual != checksum) {
    return Fail(Status::IoError(StrFormat(
        "'%s': checksum mismatch in record at offset %llu (expected "
        "%016llx, found %016llx) — file is corrupt",
        path_.c_str(), static_cast<unsigned long long>(record_start),
        static_cast<unsigned long long>(checksum),
        static_cast<unsigned long long>(actual))));
  }
  in_.seekg(static_cast<std::streamoff>(payload_start));
  record_size_ = static_cast<size_t>(len);
  cursor_ = 0;
  return Status::OK();
}

bool TensorReader::Take(void* bytes, size_t n) {
  if (!status_.ok()) return false;
  if (record_size_ - cursor_ < n) {
    Fail(Status::IoError(StrFormat(
        "'%s': record payload exhausted (want %zu bytes, %zu remain)",
        path_.c_str(), n, record_size_ - cursor_)));
    return false;
  }
  // An empty read may come with a null destination (an empty matrix).
  if (n == 0) return true;
  if (in_.rdbuf()->sgetn(static_cast<char*>(bytes),
                         static_cast<std::streamsize>(n)) !=
      static_cast<std::streamsize>(n)) {
    Fail(Status::IoError(StrFormat(
        "'%s': read failed inside record at payload byte %zu of %zu",
        path_.c_str(), cursor_, record_size_)));
    return false;
  }
  cursor_ += n;
  return true;
}

bool TensorReader::GetU32(uint32_t* v) { return Take(v, sizeof(*v)); }
bool TensorReader::GetU64(uint64_t* v) { return Take(v, sizeof(*v)); }
bool TensorReader::GetI64(int64_t* v) { return Take(v, sizeof(*v)); }
bool TensorReader::GetF32(float* v) { return Take(v, sizeof(*v)); }
bool TensorReader::GetF64(double* v) { return Take(v, sizeof(*v)); }

bool TensorReader::GetString(std::string* s) {
  uint64_t len = 0;
  if (!GetU64(&len)) return false;
  if (len > record_size_ - cursor_) {
    Fail(Status::IoError(StrFormat(
        "'%s': string length %llu exceeds record remainder %zu",
        path_.c_str(), static_cast<unsigned long long>(len),
        record_size_ - cursor_)));
    return false;
  }
  s->resize(static_cast<size_t>(len));
  return Take(s->data(), s->size());
}

bool TensorReader::GetVarint(uint64_t* v) {
  uint64_t value = 0;
  for (size_t i = 0; i < kMaxVarintBytes; ++i) {
    uint8_t byte = 0;
    if (!Take(&byte, 1)) return false;
    // The tenth byte holds bit 63 alone: more is an overflow, a
    // continuation bit an overlong encoding.
    if (i == kMaxVarintBytes - 1 && byte > 1) break;
    value |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
    if (byte < 0x80) {
      *v = value;
      return true;
    }
  }
  Fail(Status::InvalidArgument(StrFormat(
      "'%s': malformed varint (longer than %zu bytes or past 64 bits)",
      path_.c_str(), kMaxVarintBytes)));
  return false;
}

bool TensorReader::GetMatrix(Matrix* m) {
  uint64_t rows = 0, cols = 0;
  if (!GetU64(&rows) || !GetU64(&cols)) return false;
  const uint64_t remaining = record_size_ - cursor_;
  // Validate the element count against the record remainder *before*
  // allocating — corrupt shapes must fail cleanly, not OOM. Capping each
  // dimension first keeps rows*cols*4 free of uint64 overflow.
  constexpr uint64_t kMaxDim = 1ull << 24;
  if (rows > kMaxDim || cols > kMaxDim ||
      rows * cols * sizeof(float) > remaining) {
    Fail(Status::IoError(StrFormat(
        "'%s': matrix shape %llux%llu exceeds record remainder %llu bytes",
        path_.c_str(), static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(cols),
        static_cast<unsigned long long>(remaining))));
    return false;
  }
  Matrix out(static_cast<size_t>(rows), static_cast<size_t>(cols));
  if (!GetFloats(out.data(), out.size())) return false;
  *m = std::move(out);
  return true;
}

bool TensorReader::GetFloats(float* out, size_t n) {
  return Take(out, n * sizeof(float));
}

Status TensorReader::Corrupt(const char* record, const char* what) {
  return Fail(Status::InvalidArgument(
      StrFormat("'%s': corrupt %s (%s)", path_.c_str(), record, what)));
}

Status TensorReader::ExpectRecordEnd() {
  if (!status_.ok()) return status_;
  if (cursor_ != record_size_) {
    return Fail(Status::FailedPrecondition(StrFormat(
        "'%s': record has %zu unread payload bytes (layout drift between "
        "writer and reader)",
        path_.c_str(), record_size_ - cursor_)));
  }
  return Status::OK();
}

}  // namespace nerglob::io
