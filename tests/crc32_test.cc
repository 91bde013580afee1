#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"

namespace complydb {
namespace {

// Bit-at-a-time CRC-32 straight from the reflected IEEE polynomial: no
// tables, so it shares nothing with the slice-by-8 implementation.
uint32_t ReferenceCrc32(uint32_t crc, const char* p, size_t n) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) {
    c ^= static_cast<unsigned char>(p[i]);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
  }
  return ~c;
}

// Every byte value, high bit included (Random::Bytes draws only letters).
std::string RandomBytes(Random* rng, size_t n) {
  std::string s(n, '\0');
  for (auto& ch : s) ch = static_cast<char>(rng->Next());
  return s;
}

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32 (IEEE) test vectors.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  std::string data = "compliance log record payload";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t a = Crc32Extend(Crc32(Slice(data.data(), split)),
                             Slice(data.data() + split, data.size() - split));
    EXPECT_EQ(a, Crc32(data)) << "split at " << split;
  }
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Random rng(17);
  std::string buf = RandomBytes(&rng, 256 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(Crc32(Slice(p, len)), ReferenceCrc32(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBitwiseReferenceOnRandomBuffers) {
  Random rng(4242);
  for (int round = 0; round < 40; ++round) {
    std::string buf = RandomBytes(&rng, 1 + rng.Uniform(64 * 1024));
    uint32_t seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32Extend(seed, buf),
              ReferenceCrc32(seed, buf.data(), buf.size()))
        << "round " << round << " size " << buf.size();
  }
}

TEST(Crc32Test, ExtendAtEverySplitMatchesReference) {
  Random rng(99);
  std::string data = RandomBytes(&rng, 300);
  uint32_t whole = ReferenceCrc32(0, data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t head = Crc32(Slice(data.data(), split));
    ASSERT_EQ(head, ReferenceCrc32(0, data.data(), split));
    ASSERT_EQ(Crc32Extend(head, Slice(data.data() + split,
                                      data.size() - split)),
              whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  uint32_t base = Crc32(data);
  for (size_t byte : {0u, 17u, 128u, 255u}) {
    std::string tampered = data;
    tampered[byte] ^= 0x01;
    EXPECT_NE(Crc32(tampered), base) << "flip at byte " << byte;
  }
}

}  // namespace
}  // namespace complydb
