// Byte-level helpers for tests that take artifact files apart (see the
// framing in io/tensor_io.h): read a file, split it into its records,
// derive a record's deterministic mutants, and write records back with
// fresh checksums so mutated payloads reach the parsers.
#ifndef NERGLOB_TESTS_ARTIFACT_RECORDS_H_
#define NERGLOB_TESTS_ARTIFACT_RECORDS_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "io/tensor_io.h"

namespace nerglob::test_util {

/// One record: its tag and its payload bytes.
using Record = std::pair<uint32_t, std::string>;

inline std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Splits a well-formed artifact file's bytes into its records.
inline std::vector<Record> SplitRecords(const std::string& bytes) {
  std::vector<Record> records;
  size_t at = sizeof(io::kMagic) + 2 * sizeof(uint32_t);
  while (at < bytes.size()) {
    uint32_t tag = 0;
    uint64_t len = 0;
    std::memcpy(&tag, bytes.data() + at, sizeof(tag));
    std::memcpy(&len, bytes.data() + at + sizeof(tag), sizeof(len));
    at += sizeof(tag) + sizeof(len);
    records.emplace_back(tag, bytes.substr(at, len));
    at += len + sizeof(uint64_t);
  }
  return records;
}

/// The deterministic mutants of one record payload: every byte XORed with
/// 0x01, 0x80 and 0xff in turn, then every proper prefix (the truncations).
inline std::vector<std::string> Mutants(const std::string& payload) {
  std::vector<std::string> mutants;
  for (size_t i = 0; i < payload.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string mutated = payload;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      mutants.push_back(std::move(mutated));
    }
  }
  for (size_t len = 0; len < payload.size(); ++len) {
    mutants.push_back(payload.substr(0, len));
  }
  return mutants;
}

/// Writes `records` to `path`, with record `replace` carrying `payload`
/// instead of its own. Every record is framed and checksummed afresh.
inline Status WriteRecords(const std::string& path,
                           const std::vector<Record>& records, size_t replace,
                           const std::string& payload) {
  io::TensorWriter writer(path);
  for (size_t i = 0; i < records.size(); ++i) {
    writer.PutBytes(i == replace ? payload : records[i].second);
    NERGLOB_RETURN_IF_ERROR(writer.EndRecord(records[i].first));
  }
  return writer.Finish();
}

}  // namespace nerglob::test_util

#endif  // NERGLOB_TESTS_ARTIFACT_RECORDS_H_
