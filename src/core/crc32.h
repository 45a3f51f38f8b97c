// Byte-span checksums and hashes.
//
// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) is used by the STK2
// checkpoint container to detect torn writes and bit-level corruption:
// every record and the whole file carry a CRC, so a truncated or
// bit-flipped checkpoint is rejected with a typed error instead of being
// silently loaded into a training run.
//
// FNV-1a (64-bit) is the configuration fingerprint: the trainer's (stored
// in checkpoints and ledger manifests) and the serving daemon's (STAT and
// crash bundles).
#pragma once

#include <cstddef>
#include <cstdint>

namespace spiketune {

/// CRC-32 of `size` bytes starting at `data`.
std::uint32_t crc32(const void* data, std::size_t size);

/// Incremental form: feed the previous return value back as `seed` to
/// checksum discontiguous spans as one stream.  Start with seed = 0.
std::uint32_t crc32_update(std::uint32_t seed, const void* data,
                           std::size_t size);

/// FNV-1a 64-bit offset basis: the hash of zero bytes.
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;

/// FNV-1a 64-bit of `size` bytes at `data`.  Feed a previous return value
/// back as `h` to hash discontiguous spans as one stream.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t h = kFnv1a64Basis);

}  // namespace spiketune
