#include "common/hash.h"

#include <array>

namespace vdb {

uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xCBF29CE484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return HashMix64(h);
}

uint64_t HashValue(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return 0x9AE16A3B2F90404Full;
    case TypeId::kBool:
    case TypeId::kInt64:
      return HashMix64(static_cast<uint64_t>(v.AsInt()));
    case TypeId::kDouble:
      return HashDouble(v.AsDouble());
    case TypeId::kString: {
      const std::string& s = v.AsString();
      return HashBytes(s.data(), s.size());
    }
  }
  return 0;
}

double HashUnit(const Value& v) {
  return UnitFromHash(HashValue(v));
}

namespace {
std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}
}  // namespace

uint32_t Crc32(const std::string& s) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t c = 0xFFFFFFFFu;
  for (const char raw : s) {
    const auto ch = static_cast<unsigned char>(raw);
    c = kTable[(c ^ ch) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace vdb
