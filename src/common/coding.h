#ifndef COMPLYDB_COMMON_CODING_H_
#define COMPLYDB_COMMON_CODING_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace complydb {

// Little-endian fixed-width integer codecs. All on-disk and on-log integers
// in complydb go through these, so file formats are endian-stable.

void PutFixed16(std::string* dst, uint16_t v);
void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);

// The Encode/Decode bodies are inline: slot directories, record headers
// and checksums call them per field, and GCC and Clang turn each shift
// sequence into one load or store on little-endian targets.

inline void EncodeFixed16(char* dst, uint16_t v) {
  dst[0] = static_cast<char>(v & 0xff);
  dst[1] = static_cast<char>((v >> 8) & 0xff);
}

inline void EncodeFixed32(char* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

inline void EncodeFixed64(char* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

inline uint16_t DecodeFixed16(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(u[0] | (u[1] << 8));
}

inline uint32_t DecodeFixed32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

inline uint64_t DecodeFixed64(const char* p) {
  return static_cast<uint64_t>(DecodeFixed32(p)) |
         (static_cast<uint64_t>(DecodeFixed32(p + 4)) << 32);
}

/// Appends a length-prefixed (Fixed32) byte string.
void PutLengthPrefixed(std::string* dst, const Slice& s);

/// Big-endian codecs: used for composite B+-tree keys so that
/// lexicographic byte order equals numeric order.
void PutBigEndian32(std::string* dst, uint32_t v);
void PutBigEndian64(std::string* dst, uint64_t v);
uint32_t DecodeBigEndian32(const char* p);
uint64_t DecodeBigEndian64(const char* p);

/// Cursor-style decoder over a byte buffer; every Get* checks bounds and
/// returns Corruption on truncation (log records are parsed through this).
class Decoder {
 public:
  explicit Decoder(Slice input) : input_(input) {}

  Status GetFixed16(uint16_t* v);
  Status GetFixed32(uint32_t* v);
  Status GetFixed64(uint64_t* v);
  Status GetLengthPrefixed(std::string* out);
  Status GetBytes(size_t n, std::string* out);
  Status Skip(size_t n);

  bool Done() const { return input_.empty(); }
  size_t remaining() const { return input_.size(); }

 private:
  Slice input_;
};

}  // namespace complydb

#endif  // COMPLYDB_COMMON_CODING_H_
