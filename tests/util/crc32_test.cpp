#include "horus/util/crc32.hpp"

#include <gtest/gtest.h>

#include "horus/util/crc32_kernels.hpp"
#include "horus/util/rng.hpp"

namespace horus {
namespace {

std::uint32_t bitwise_crc32(ByteSpan data) {
  std::uint32_t crc = 0xffffffffU;
  for (auto b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1) ? 0xedb88320U ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xffffffffU;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(n, 0);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  return data;
}

TEST(Crc32, KnownVectors) {
  // Standard IEEE CRC-32 check values.
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32(to_bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(to_bytes("a")), 0xe8b7be43u);
  EXPECT_EQ(crc32(to_bytes("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data = to_bytes("hello, incremental world");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t a = crc32(ByteSpan(data).first(split));
    std::uint32_t b = crc32_update(a, ByteSpan(data).subspan(split));
    EXPECT_EQ(b, crc32(data)) << "split at " << split;
  }
}

TEST(Crc32, LongSpansMatchBitwiseReference) {
  // Check the production entry point (whichever kernel this CPU selects)
  // against a plain bit-at-a-time loop across sizes that exercise every
  // head/bulk/tail combination, including train-sized spans.
  Rng rng(11);
  for (std::size_t size : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 1000u,
                           4096u, 5001u}) {
    Bytes data(size, 0);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(crc32(data), bitwise_crc32(data)) << "size " << size;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  Rng rng(7);
  Bytes data(256, 0);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  std::uint32_t ref = crc32(data);
  for (int i = 0; i < 100; ++i) {
    Bytes copy = data;
    std::size_t byte = rng.next_below(copy.size());
    copy[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_NE(crc32(copy), ref);
  }
}

TEST(Crc32, DistinctPrefixesDistinctCrcs) {
  // Appending bytes changes the checksum (no trivial prefix collisions).
  Bytes data;
  std::uint32_t prev = crc32(data);
  for (int i = 0; i < 64; ++i) {
    data.push_back(static_cast<std::uint8_t>(i));
    std::uint32_t cur = crc32(data);
    EXPECT_NE(cur, prev);
    prev = cur;
  }
}

// -- each kernel on its own ---------------------------------------------------

using Kernel = std::uint32_t (*)(std::uint32_t, ByteSpan);

/// The clmul kernel, or null where this build or CPU lacks it.
Kernel clmul_kernel() {
#if defined(__x86_64__)
  if (detail::crc32_clmul_supported()) return detail::crc32_update_clmul;
#endif
  return nullptr;
}

/// Every length 0-1100 at every start offset 0-15 (the clmul kernel folds
/// from 64 B up and hands the last < 16 B to the table loop; the table loop
/// slices 8 B at a time), plus 16 KiB and 64 KiB spans.
void expect_matches_bitwise(Kernel k) {
  Bytes data = random_bytes(64 * 1024 + 16, 5);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      ByteSpan s = ByteSpan(data).subspan(off, len);
      ASSERT_EQ(k(0, s), bitwise_crc32(s)) << "offset " << off << " length " << len;
    }
  }
  for (std::size_t len : {16u * 1024u, 64u * 1024u}) {
    ByteSpan s = ByteSpan(data).subspan(3, len);
    EXPECT_EQ(k(0, s), bitwise_crc32(s)) << "length " << len;
  }
}

/// Chaining at every split point of a 300 B buffer, so both halves cross
/// the 16 B and 64 B boundaries of the fold in every combination.
void expect_chains(Kernel k) {
  Bytes data = random_bytes(300, 6);
  std::uint32_t whole = bitwise_crc32(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t head = k(0, ByteSpan(data).first(split));
    EXPECT_EQ(k(head, ByteSpan(data).subspan(split)), whole) << "split " << split;
  }
}

TEST(Crc32Kernel, PortableMatchesBitwise) {
  expect_matches_bitwise(detail::crc32_update_portable);
}

TEST(Crc32Kernel, PortableChains) { expect_chains(detail::crc32_update_portable); }

TEST(Crc32Kernel, ClmulMatchesBitwise) {
  Kernel k = clmul_kernel();
  if (k == nullptr) GTEST_SKIP() << "no PCLMULQDQ/SSE4.1 on this CPU";
  expect_matches_bitwise(k);
}

TEST(Crc32Kernel, ClmulChains) {
  Kernel k = clmul_kernel();
  if (k == nullptr) GTEST_SKIP() << "no PCLMULQDQ/SSE4.1 on this CPU";
  expect_chains(k);
}

TEST(Crc32Kernel, ClmulKnownVectors) {
  Kernel k = clmul_kernel();
  if (k == nullptr) GTEST_SKIP() << "no PCLMULQDQ/SSE4.1 on this CPU";
  // 64 B and up take the fold: "123456789" eight times (72 B), whose
  // CRC-32 is zlib.crc32(b"123456789" * 8).
  std::string s;
  for (int i = 0; i < 8; ++i) s += "123456789";
  EXPECT_EQ(k(0, to_bytes(s)), 0x8811a440u);
  EXPECT_EQ(k(0, to_bytes("123456789")), 0xcbf43926u);
}

}  // namespace
}  // namespace horus
