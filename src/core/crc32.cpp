#include "core/crc32.h"

#include <array>

namespace spiketune {

namespace {
// Table-driven CRC-32 with the reflected IEEE polynomial 0xEDB88320.
std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    table[i] = c;
  }
  return table;
}
}  // namespace

std::uint32_t crc32_update(std::uint32_t seed, const void* data,
                           std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const void* data, std::size_t size) {
  return crc32_update(0, data, size);
}

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
  return h;
}

}  // namespace spiketune
