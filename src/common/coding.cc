#include "common/coding.h"

namespace complydb {

void PutFixed16(std::string* dst, uint16_t v) {
  char buf[2];
  EncodeFixed16(buf, v);
  dst->append(buf, 2);
}

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  dst->append(buf, 8);
}

void PutLengthPrefixed(std::string* dst, const Slice& s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

void PutBigEndian32(std::string* dst, uint32_t v) {
  for (int i = 3; i >= 0; --i)
    dst->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void PutBigEndian64(std::string* dst, uint64_t v) {
  for (int i = 7; i >= 0; --i)
    dst->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint32_t DecodeBigEndian32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | u[i];
  return v;
}

uint64_t DecodeBigEndian64(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | u[i];
  return v;
}

Status Decoder::GetFixed16(uint16_t* v) {
  if (input_.size() < 2) return Status::Corruption("truncated fixed16");
  *v = DecodeFixed16(input_.data());
  input_.remove_prefix(2);
  return Status::OK();
}

Status Decoder::GetFixed32(uint32_t* v) {
  if (input_.size() < 4) return Status::Corruption("truncated fixed32");
  *v = DecodeFixed32(input_.data());
  input_.remove_prefix(4);
  return Status::OK();
}

Status Decoder::GetFixed64(uint64_t* v) {
  if (input_.size() < 8) return Status::Corruption("truncated fixed64");
  *v = DecodeFixed64(input_.data());
  input_.remove_prefix(8);
  return Status::OK();
}

Status Decoder::GetLengthPrefixed(std::string* out) {
  uint32_t len = 0;
  CDB_RETURN_IF_ERROR(GetFixed32(&len));
  return GetBytes(len, out);
}

Status Decoder::GetBytes(size_t n, std::string* out) {
  if (input_.size() < n) return Status::Corruption("truncated bytes");
  out->assign(input_.data(), n);
  input_.remove_prefix(n);
  return Status::OK();
}

Status Decoder::Skip(size_t n) {
  if (input_.size() < n) return Status::Corruption("truncated skip");
  input_.remove_prefix(n);
  return Status::OK();
}

}  // namespace complydb
