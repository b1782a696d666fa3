#include "store/format.h"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace cellscope::store {

namespace {

// Slicing-by-8 tables for the reflected Castagnoli polynomial: table[0] is
// the classic byte-at-a-time table, table[k][b] advances table[k-1][b] by
// one more zero byte, so eight lookups fold eight input bytes per step.
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] = (tables[k - 1][i] >> 8) ^
                     tables[0][tables[k - 1][i] & 0xff];
  return tables;
}

constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

#if defined(__x86_64__)

// The SSE4.2 crc32 instruction computes exactly this CRC (Castagnoli,
// reflected), 8 bytes per instruction. Compiled for SSE4.2 regardless of
// the build's -march; only ever called after the CPU check below.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::uint8_t* data, std::size_t n, std::uint32_t seed) {
  std::uint64_t crc = ~seed;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data, 8);  // unaligned-safe; x86 is little-endian
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++data, --n) crc32 = _mm_crc32_u8(crc32, *data);
  return ~crc32;
}

#endif

using Crc32cKernel = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                       std::uint32_t);

Crc32cKernel select_crc32c_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_portable;
}

// Chosen once, on first use (a function-local static, so a checksum taken
// during another translation unit's static initialisation is safe too).
Crc32cKernel crc32c_kernel() {
  static const Crc32cKernel kernel = select_crc32c_kernel();
  return kernel;
}

}  // namespace

std::uint32_t crc32c_portable(const std::uint8_t* data, std::size_t n,
                              std::uint32_t seed) {
  const auto& t = kCrc32cTables;
  std::uint32_t crc = ~seed;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = crc ^ read_u32(data);
    const std::uint32_t hi = read_u32(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n)
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xff];
  return ~crc;
}

bool crc32c_is_hardware() {
#if defined(__x86_64__)
  return crc32c_kernel() == crc32c_sse42;
#else
  return false;
#endif
}

std::uint32_t crc32c(const std::uint8_t* data, std::size_t n,
                     std::uint32_t seed) {
  return crc32c_kernel()(data, n, seed);
}

}  // namespace cellscope::store
