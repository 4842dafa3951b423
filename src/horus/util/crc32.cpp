#include "horus/util/crc32.hpp"

#include <array>
#include <cstring>

#include "horus/util/crc32_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace horus {
namespace {

// Both kernels below work on the raw CRC register (the running value with
// the pre- and post-inversion stripped), so they chain: the clmul kernel
// hands the register it folded to the table loop for the tail.

// Slicing-by-8 CRC-32 (polynomial 0xedb88320, same value as the classic
// bytewise loop): table[0] is the ordinary byte table, table[k] advances a
// byte k positions further, so one iteration folds 8 input bytes with 8
// independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320U ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xffU] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr CrcTables kTables = make_tables();

std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

std::uint32_t slice8(std::uint32_t crc, const unsigned char* p, std::size_t n) {
  const CrcTables& t = kTables;
  while (n >= 8) {
    std::uint32_t lo = crc ^ load_le32(p);
    std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xffU] ^ t[6][(lo >> 8) & 0xffU] ^
          t[5][(lo >> 16) & 0xffU] ^ t[4][lo >> 24] ^ t[3][hi & 0xffU] ^
          t[2][(hi >> 8) & 0xffU] ^ t[1][(hi >> 16) & 0xffU] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n != 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xffU] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__)
// Carry-less-multiply folding, after Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
// bit-reflected form Linux's crc32-pclmul uses, with the same constants.
// Four 128-bit accumulators take 64 bytes per step: each 64-bit half of an
// accumulator is multiplied by its constant (x^(4*128+-32) mod P, bit-
// reflected) and the products are XORed into the block 64 bytes on. The
// four then fold into one with the x^(128+-32) constants, the remaining
// 16-byte blocks fold in one at a time, and the 128-bit remainder is
// reduced to 64 bits and then, by Barrett reduction, to the 32-bit CRC.
#define HORUS_CLMUL __attribute__((target("pclmul,sse4.1")))

HORUS_CLMUL inline __m128i load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// `acc` carried forward by the distance `k` encodes, XORed into `next`:
/// k's low half multiplies acc's low half, its high half the high half.
HORUS_CLMUL inline __m128i fold16(__m128i acc, __m128i next, __m128i k) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// Raw register after `n` bytes at `p`; n >= 64 and a multiple of 16.
HORUS_CLMUL std::uint32_t fold(std::uint32_t crc, const unsigned char* p,
                               std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // u', P'
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, load128(p), k1k2);
    x1 = fold16(x1, load128(p + 16), k1k2);
    x2 = fold16(x2, load128(p + 32), k1k2);
    x3 = fold16(x3, load128(p + 48), k1k2);
  }
  x0 = fold16(x0, x1, k3k4);
  x0 = fold16(x0, x2, k3k4);
  x0 = fold16(x0, x3, k3k4);
  for (; n >= 16; p += 16, n -= 16) x0 = fold16(x0, load128(p), k3k4);

  // 128 -> 96 bits: the low half times x^(128-32) mod P, which also appends
  // the 32 zero bits a CRC implies; then 96 -> 64 with x^64 mod P.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(k3k4, x0, 0x01));
  x1 = _mm_srli_si128(x0, 4);
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00), x1);
  // Barrett: q = floor(T / P) via u' = x^64 / P, then T - q*P.
  x1 = x0;
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x00);
  x0 = _mm_xor_si128(x0, x1);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
}

#undef HORUS_CLMUL
#endif  // __x86_64__

}  // namespace

namespace detail {

std::uint32_t crc32_update_portable(std::uint32_t crc, ByteSpan data) {
  return slice8(crc ^ 0xffffffffU, data.data(), data.size()) ^ 0xffffffffU;
}

#if defined(__x86_64__)
bool crc32_clmul_supported() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return yes;
}

std::uint32_t crc32_update_clmul(std::uint32_t crc, ByteSpan data) {
  const unsigned char* p = data.data();
  std::size_t n = data.size();
  crc ^= 0xffffffffU;
  if (n >= 64) {
    std::size_t body = n & ~std::size_t{15};
    crc = fold(crc, p, body);
    p += body;
    n -= body;
  }
  return slice8(crc, p, n) ^ 0xffffffffU;
}
#endif

}  // namespace detail

std::uint32_t crc32_update(std::uint32_t crc, ByteSpan data) {
#if defined(__x86_64__)
  if (detail::crc32_clmul_supported()) return detail::crc32_update_clmul(crc, data);
#endif
  return detail::crc32_update_portable(crc, data);
}

std::uint32_t crc32(ByteSpan data) { return crc32_update(0, data); }

}  // namespace horus
