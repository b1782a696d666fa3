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

// The zeros operator: advancing a raw CRC register over `len` zero bytes
// multiplies it by x^(8*len) modulo the polynomial, which is linear in the
// register, so four byte-indexed tables of the operator applied to each
// byte position replace 8*len shift steps. This is what lets independent
// CRC streams over adjacent lanes be recombined (crc32c_shift below).
using Crc32cZerosOp = std::array<std::array<std::uint32_t, 256>, 4>;

// a(x) * b(x) mod P(x), both in the reflected bit order (bit 31 is x^0).
constexpr std::uint32_t crc32c_multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b >> 1) ^ ((b & 1) ? 0x82F63B78u : 0u);
  }
  return product;
}

constexpr Crc32cZerosOp make_crc32c_zeros_op(std::size_t len) {
  // x^(8*len) mod P by square-and-multiply over the bits of 8*len.
  std::uint32_t power = 1u << 31;  // x^0
  std::uint32_t square = 1u << 30;  // x^1, squared at every bit
  for (std::size_t bits = 8 * len; bits != 0; bits >>= 1) {
    if (bits & 1) power = crc32c_multmodp(square, power);
    square = crc32c_multmodp(square, square);
  }
  Crc32cZerosOp op{};
  for (std::size_t k = 0; k < 4; ++k)
    for (std::uint32_t b = 0; b < 256; ++b)
      op[k][b] = crc32c_multmodp(power, b << (8 * k));
  return op;
}

// The register `crc` advanced over the operator's number of zero bytes.
inline std::uint32_t crc32c_shift(const Crc32cZerosOp& op, std::uint32_t crc) {
  return op[0][crc & 0xff] ^ op[1][(crc >> 8) & 0xff] ^
         op[2][(crc >> 16) & 0xff] ^ op[3][crc >> 24];
}

#if defined(__x86_64__)

// Lane lengths of the interleaved kernel: three 8 KiB lanes while the input
// lasts, then three 256 B lanes for what is left.
constexpr std::size_t kLongLane = 8192;
constexpr std::size_t kShortLane = 256;
constexpr Crc32cZerosOp kCrc32cLongOp = make_crc32c_zeros_op(kLongLane);
constexpr Crc32cZerosOp kCrc32cShortOp = make_crc32c_zeros_op(kShortLane);

// Three crc32 streams over three adjacent `lane`-byte blocks, recombined
// into the register of the one stream over all 3*lane bytes: lane 0
// continues `crc`, lanes 1 and 2 start from a zero register, and each
// partial is shifted over the lane that follows it.
__attribute__((target("sse4.2"))) inline std::uint64_t crc32c_3way(
    const std::uint8_t* data, std::size_t lane, const Crc32cZerosOp& op,
    std::uint64_t crc) {
  std::uint64_t crc1 = 0;
  std::uint64_t crc2 = 0;
  for (std::size_t i = 0; i < lane; i += 8) {
    std::uint64_t w0 = 0, w1 = 0, w2 = 0;
    std::memcpy(&w0, data + i, 8);
    std::memcpy(&w1, data + lane + i, 8);
    std::memcpy(&w2, data + 2 * lane + i, 8);
    crc = _mm_crc32_u64(crc, w0);
    crc1 = _mm_crc32_u64(crc1, w1);
    crc2 = _mm_crc32_u64(crc2, w2);
  }
  crc = crc32c_shift(op, static_cast<std::uint32_t>(crc)) ^ crc1;
  return crc32c_shift(op, static_cast<std::uint32_t>(crc)) ^ crc2;
}

// The SSE4.2 crc32 instruction computes exactly this CRC (Castagnoli,
// reflected), 8 bytes per instruction, but with a 3-cycle latency and a
// 1-cycle throughput: one dependent stream uses a third of the unit. So
// the bulk runs as three independent streams (crc32c_3way), and only the
// last < 768 bytes as one stream. Compiled for SSE4.2 regardless of the
// build's -march; only ever called after the CPU check below.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::uint8_t* data, std::size_t n, std::uint32_t seed) {
  std::uint64_t crc = ~seed;
  // Align the lanes' loads to 8 bytes.
  for (; n > 0 && (reinterpret_cast<std::uintptr_t>(data) & 7) != 0;
       ++data, --n)
    crc = _mm_crc32_u8(static_cast<std::uint32_t>(crc), *data);
  for (; n >= 3 * kLongLane; data += 3 * kLongLane, n -= 3 * kLongLane)
    crc = crc32c_3way(data, kLongLane, kCrc32cLongOp, crc);
  for (; n >= 3 * kShortLane; data += 3 * kShortLane, n -= 3 * kShortLane)
    crc = crc32c_3way(data, kShortLane, kCrc32cShortOp, crc);
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
