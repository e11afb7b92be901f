#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/entity_classifier.h"
#include "io/tensor_io.h"
#include "lm/micro_bert.h"
#include "nn/layers.h"
#include "text/tokenizer.h"

namespace nerglob {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SerializationTest, LinearRoundTrip) {
  Rng rng(1);
  nn::Linear a(4, 3, &rng);
  const std::string path = TempPath("linear.bin");
  ASSERT_TRUE(nn::SaveModuleParameters(a, path).ok());

  Rng rng2(99);  // different init
  nn::Linear b(4, 3, &rng2);
  ASSERT_FALSE(b.weight().value() == a.weight().value());
  ASSERT_TRUE(nn::LoadModuleParameters(path, &b).ok());
  EXPECT_EQ(b.weight().value(), a.weight().value());
  EXPECT_EQ(b.bias().value(), a.bias().value());
  std::remove(path.c_str());
}

TEST(SerializationTest, MicroBertRoundTripPreservesPredictions) {
  lm::MicroBertConfig cfg;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.subword_buckets = 256;
  cfg.dropout = 0.0f;
  lm::MicroBert a(cfg, 5);
  const std::string path = TempPath("microbert.bin");
  ASSERT_TRUE(nn::SaveModuleParameters(a, path).ok());

  lm::MicroBert b(cfg, 77);
  ASSERT_TRUE(nn::LoadModuleParameters(path, &b).ok());
  auto tokens = text::Tokenizer().Tokenize("italy reports new cases");
  EXPECT_EQ(a.Encode(tokens).embeddings, b.Encode(tokens).embeddings);
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileIsIoError) {
  Rng rng(2);
  nn::Linear m(2, 2, &rng);
  Status s = nn::LoadModuleParameters("/nonexistent/dir/file.bin", &m);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(SerializationTest, WrongMagicRejected) {
  const std::string path = TempPath("bad_magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const char garbage[32] = "not a model file at all!";
    out.write(garbage, sizeof(garbage));
  }
  Rng rng(3);
  nn::Linear m(2, 2, &rng);
  Status s = nn::LoadModuleParameters(path, &m);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, ArchitectureMismatchRejectedAndTargetUntouched) {
  Rng rng(4);
  nn::Linear small(2, 2, &rng);
  const std::string path = TempPath("small.bin");
  ASSERT_TRUE(nn::SaveModuleParameters(small, path).ok());

  nn::Linear big(5, 7, &rng);
  const Matrix before = big.weight().value();
  Status s = nn::LoadModuleParameters(path, &big);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(big.weight().value(), before);  // failed load must not clobber
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileRejectedAndTargetUntouched) {
  Rng rng(5);
  core::EntityClassifier clf(8, 8, &rng);
  const std::string path = TempPath("clf.bin");
  ASSERT_TRUE(nn::SaveModuleParameters(clf, path).ok());
  // Truncate the file to half its size.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = in.tellg();
  in.seekg(0);
  std::string content(static_cast<size_t>(size) / 2, '\0');
  in.read(content.data(), static_cast<std::streamsize>(content.size()));
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  core::EntityClassifier other(8, 8, &rng);
  const Matrix before = other.Parameters()[0].value();
  Status s = nn::LoadModuleParameters(path, &other);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(other.Parameters()[0].value(), before);
  std::remove(path.c_str());
}

TEST(SerializationTest, UnwritablePathIsIoError) {
  Rng rng(6);
  nn::Linear m(2, 2, &rng);
  Status s = nn::SaveModuleParameters(m, "/nonexistent/dir/file.bin");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// --- TensorWriter / TensorReader framing layer -------------------------

Matrix SmallMatrix() {
  Matrix m(2, 3);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = 0.25f * static_cast<float>(i) - 1.0f;
  }
  return m;
}

/// Writes one two-record file used by the framing tests below.
std::string WriteSampleFile(const char* name,
                            uint32_t version = io::kFormatVersion) {
  const std::string path = TempPath(name);
  io::TensorWriter writer(path, version);
  writer.PutU32(7);
  writer.PutU64(1ull << 40);
  writer.PutI64(-12345);
  writer.PutF32(1.5f);
  writer.PutF64(-2.25);
  writer.PutString("surface form");
  writer.PutMatrix(SmallMatrix());
  EXPECT_TRUE(writer.EndRecord(io::kTagBlob).ok());
  writer.PutU32(99);
  EXPECT_TRUE(writer.EndRecord(io::kTagTrainingStats).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

TEST(TensorIoTest, PrimitiveRoundTrip) {
  const std::string path = WriteSampleFile("frames.bin");
  io::TensorReader reader(path);
  ASSERT_TRUE(reader.NextRecord(io::kTagBlob).ok()) << reader.status().ToString();
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  float f32 = 0;
  double f64 = 0;
  std::string s;
  Matrix m;
  EXPECT_TRUE(reader.GetU32(&u32));
  EXPECT_TRUE(reader.GetU64(&u64));
  EXPECT_TRUE(reader.GetI64(&i64));
  EXPECT_TRUE(reader.GetF32(&f32));
  EXPECT_TRUE(reader.GetF64(&f64));
  EXPECT_TRUE(reader.GetString(&s));
  EXPECT_TRUE(reader.GetMatrix(&m));
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(i64, -12345);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(s, "surface form");
  EXPECT_EQ(m, SmallMatrix());
  EXPECT_TRUE(reader.ExpectRecordEnd().ok());
  ASSERT_TRUE(reader.NextRecord(io::kTagTrainingStats).ok());
  EXPECT_TRUE(reader.GetU32(&u32));
  EXPECT_EQ(u32, 99u);
  EXPECT_TRUE(reader.AtRecordEnd());
  std::remove(path.c_str());
}

TEST(TensorIoTest, EmptyValuesRoundTrip) {
  // Zero-byte reads hand the copy a null pointer (an empty matrix owns no
  // storage); under UBSan this pins that none reaches memcpy.
  const std::string path = TempPath("empty_values.bin");
  {
    io::TensorWriter writer(path);
    writer.PutMatrix(Matrix());
    writer.PutMatrix(Matrix(0, 4));
    writer.PutString("");
    ASSERT_TRUE(writer.EndRecord(io::kTagBlob).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  io::TensorReader reader(path);
  ASSERT_TRUE(reader.NextRecord(io::kTagBlob).ok());
  Matrix empty = SmallMatrix(), no_rows = SmallMatrix();
  std::string s = "stale";
  EXPECT_TRUE(reader.GetMatrix(&empty));
  EXPECT_TRUE(reader.GetMatrix(&no_rows));
  EXPECT_TRUE(reader.GetString(&s));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(no_rows.cols(), 4u);
  EXPECT_EQ(no_rows.rows(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(reader.ExpectRecordEnd().ok());
  std::remove(path.c_str());
}

TEST(TensorIoTest, WrongRecordTagRejected) {
  const std::string path = WriteSampleFile("wrong_tag.bin");
  io::TensorReader reader(path);
  Status s = reader.NextRecord(io::kTagModule);  // file starts with kTagBlob
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

TEST(TensorIoTest, WrongFormatVersionRejected) {
  const std::string path = WriteSampleFile("wrong_version.bin", /*version=*/99);
  io::TensorReader reader(path);
  Status s = reader.NextRecord(io::kTagBlob);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TensorIoTest, UnconsumedPayloadIsFailedPrecondition) {
  const std::string path = WriteSampleFile("leftover.bin");
  io::TensorReader reader(path);
  ASSERT_TRUE(reader.NextRecord(io::kTagBlob).ok());
  uint32_t u32 = 0;
  EXPECT_TRUE(reader.GetU32(&u32));
  Status s = reader.ExpectRecordEnd();  // six values still unread
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(TensorIoTest, VarintRoundTrip) {
  const std::string path = TempPath("varints.bin");
  const uint64_t unsigned_values[] = {0,       1,         127, 128, 300,
                                      1u << 14, 1ull << 35, 1ull << 63,
                                      UINT64_MAX};
  const int64_t signed_values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  {
    io::TensorWriter writer(path);
    for (uint64_t v : unsigned_values) writer.PutVarint(v);
    for (int64_t v : signed_values) writer.PutVarint(io::ZigZag(v));
    ASSERT_TRUE(writer.EndRecord(io::kTagBlob).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  io::TensorReader reader(path);
  ASSERT_TRUE(reader.NextRecord(io::kTagBlob).ok());
  for (uint64_t want : unsigned_values) {
    uint64_t got = 0;
    ASSERT_TRUE(reader.GetVarint(&got));
    EXPECT_EQ(got, want);
  }
  for (int64_t want : signed_values) {
    uint64_t got = 0;
    ASSERT_TRUE(reader.GetVarint(&got));
    EXPECT_EQ(io::UnZigZag(got), want);
  }
  EXPECT_TRUE(reader.ExpectRecordEnd().ok());
  // Small magnitudes of either sign take one byte.
  EXPECT_EQ(io::ZigZag(-64), 127u);
  EXPECT_EQ(io::ZigZag(63), 126u);
  std::remove(path.c_str());
}

TEST(TensorIoTest, MalformedVarintsAreTypedErrors) {
  struct Case {
    const char* name;
    std::string bytes;
    StatusCode code;
  };
  const Case cases[] = {
      // Eleven bytes: ten continuation bytes, then a terminator.
      {"overlong", std::string(10, '\x80') + '\x00',
       StatusCode::kInvalidArgument},
      // Ten bytes whose last carries bits above bit 63.
      {"overflow", std::string(9, '\xff') + '\x02',
       StatusCode::kInvalidArgument},
      // A continuation bit on the record's last byte.
      {"truncated", std::string(3, '\x80'), StatusCode::kIoError},
  };
  for (const Case& c : cases) {
    const std::string path = TempPath("bad_varint.bin");
    {
      io::TensorWriter writer(path);
      writer.PutBytes(c.bytes);
      ASSERT_TRUE(writer.EndRecord(io::kTagBlob).ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    io::TensorReader reader(path);
    ASSERT_TRUE(reader.NextRecord(io::kTagBlob).ok());
    uint64_t v = 0;
    EXPECT_FALSE(reader.GetVarint(&v)) << c.name;
    EXPECT_EQ(reader.status().code(), c.code)
        << c.name << ": " << reader.status().ToString();
    std::remove(path.c_str());
  }
  // The longest valid encoding, UINT64_MAX, still reads.
  const std::string path = TempPath("max_varint.bin");
  {
    io::TensorWriter writer(path);
    writer.PutBytes(std::string(9, '\xff') + '\x01');
    ASSERT_TRUE(writer.EndRecord(io::kTagBlob).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  io::TensorReader reader(path);
  ASSERT_TRUE(reader.NextRecord(io::kTagBlob).ok());
  uint64_t v = 0;
  EXPECT_TRUE(reader.GetVarint(&v));
  EXPECT_EQ(v, UINT64_MAX);
  std::remove(path.c_str());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Reads the sample file to completion, returning the first failure; used
/// by the corruption fuzz tests, which only require a clean non-OK Status.
Status DrainSampleFile(const std::string& path) {
  io::TensorReader reader(path);
  for (uint32_t tag : {io::kTagBlob, io::kTagTrainingStats}) {
    Status s = reader.NextRecord(tag);
    if (!s.ok()) return s;
    uint32_t u32;
    uint64_t u64;
    int64_t i64;
    float f32;
    double f64;
    std::string str;
    Matrix m;
    if (tag == io::kTagBlob) {
      reader.GetU32(&u32);
      reader.GetU64(&u64);
      reader.GetI64(&i64);
      reader.GetF32(&f32);
      reader.GetF64(&f64);
      reader.GetString(&str);
      reader.GetMatrix(&m);
    } else {
      reader.GetU32(&u32);
    }
    s = reader.ExpectRecordEnd();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

TEST(TensorIoTest, EveryTruncationFailsCleanly) {
  const std::string path = WriteSampleFile("truncate_fuzz.bin");
  const std::string full = ReadAll(path);
  ASSERT_GT(full.size(), 24u);
  ASSERT_TRUE(DrainSampleFile(path).ok());
  // Cut the file at every length shorter than the original: whatever byte
  // the cut lands on — header, length prefix, payload, checksum — the read
  // must fail with a Status, never crash or hand back partial data.
  for (size_t len = 0; len < full.size(); ++len) {
    WriteAll(path, full.substr(0, len));
    Status s = DrainSampleFile(path);
    EXPECT_FALSE(s.ok()) << "truncation to " << len << " bytes was not caught";
  }
  std::remove(path.c_str());
}

TEST(TensorIoTest, EveryFlippedPayloadByteFailsChecksum) {
  const std::string path = WriteSampleFile("bitflip_fuzz.bin");
  const std::string full = ReadAll(path);
  // Flip each byte of the first record's payload (skip the 16-byte header
  // and the 12-byte record frame); the checksum must catch every one.
  const size_t payload_begin = 16 + 12;
  const size_t payload_end = payload_begin + 4 + 8 + 8 + 4 + 8 + (8 + 12);
  ASSERT_LT(payload_end, full.size());
  for (size_t i = payload_begin; i < payload_end; ++i) {
    std::string corrupted = full;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5a);
    WriteAll(path, corrupted);
    Status s = DrainSampleFile(path);
    EXPECT_FALSE(s.ok()) << "flipped byte " << i << " was not caught";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nerglob
