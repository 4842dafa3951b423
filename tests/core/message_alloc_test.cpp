// The zero-allocation hot path (ISSUE: headroom wire buffers).
//
// Two levels of proof:
//  1. A strict loop over the builder primitives (pool acquire -> make_linear
//     -> prepend/Writer -> finalize_wire -> release) under a counting global
//     operator new: steady state performs literally zero heap allocations.
//  2. An endpoint-level steady-state cast over FRAG:NAK:COM asserting the
//     hot-path counters: every frame takes the in-place fast path, every
//     buffer is a pool hit, and no Writer ever spills to the heap.
#define HORUS_TEST_COUNT_ALLOCS
#include "../common/test_util.hpp"

#include <gtest/gtest.h>

#include "horus/core/message.hpp"
#include "horus/core/wirebuf.hpp"
#include "horus/layers/common.hpp"
#include "horus/util/hotpath_stats.hpp"
#include "horus/util/serialize.hpp"

namespace horus {
namespace {

using testing::AllocCounter;
using testing::World;
using testing::kGroup;

TEST(MessageAlloc, BuilderSteadyStateAllocatesNothing) {
  constexpr std::size_t kCap = 512;
  constexpr std::size_t kTailroom = 4;
  WireBufPool pool(kCap);
  Bytes payload = to_bytes("steady-state cast payload");

  auto one_cast = [&] {
    WireBufRef wb = pool.acquire(kCap);
    Message m = Message::make_linear(std::move(wb), 0, kTailroom,
                                     ByteSpan(payload));
    // What Stack::push_header does per layer: exact-size prepend + external
    // Writer serializing in place.
    MutByteSpan h = m.prepend(12);
    Writer w(h);
    w.u32(7);
    w.u32(1234);
    w.u32(0xdeadbeef);
    MutByteSpan frame = m.finalize_wire(42, 0, kTailroom);
    ASSERT_NE(frame.data(), nullptr);
    ASSERT_TRUE(w.external());  // never spilled
    // Message destruction releases the buffer back to the pool.
  };

  // Warm-up: allocates the pooled buffer and the free list's capacity.
  for (int i = 0; i < 4; ++i) one_cast();
  ASSERT_GE(pool.free_count(), 1u);

  AllocCounter c;
  for (int i = 0; i < 1000; ++i) one_cast();
  EXPECT_EQ(c.allocations(), 0u)
      << "the builder hot path must not touch the heap";
}

TEST(MessageAlloc, BuilderCowAndGrowthDoAllocate) {
  // Sanity-check that the counter actually counts: the slow paths (clone on
  // shared buffer, headroom growth) do hit the heap.
  WireBufPool pool(64);
  Message a = Message::from_string("p");
  ASSERT_TRUE(a.linearize(pool.acquire(64), 0, 0));
  Message b = a;
  AllocCounter c;
  b.push_block(to_bytes("X"));  // copy-on-write clone
  EXPECT_GT(c.allocations(), 0u);
}

TEST(MessageAlloc, SteadyStateCastOverFragNakCom) {
  // No MBRSHIP in this stack: install a static view directly.
  World w(3, "FRAG:NAK:COM");
  std::vector<Address> all;
  for (auto* ep : w.eps) {
    ep->join(kGroup);
    all.push_back(ep->address());
  }
  for (auto* ep : w.eps) ep->install_view(kGroup, all);
  w.sys.run_for(10 * sim::kMillisecond);

  // Warm-up: first casts populate each stack's buffer pool (counted as
  // pool misses) and let NAK's periodic status traffic reach steady state.
  for (int i = 0; i < 30; ++i) {
    w.eps[static_cast<std::size_t>(i) % 3]->cast(
        kGroup, Message::from_string("warmup" + std::to_string(i)));
    w.sys.run_for(5 * sim::kMillisecond);
  }
  w.sys.run_for(sim::kSecond);

  auto& s = msg_path_stats();
  s.reset();
  constexpr int kCasts = 120;
  for (int i = 0; i < kCasts; ++i) {
    w.eps[static_cast<std::size_t>(i) % 3]->cast(
        kGroup, Message::from_string("steady" + std::to_string(i)));
    w.sys.run_for(5 * sim::kMillisecond);
  }
  w.sys.run_for(sim::kSecond);

  EXPECT_EQ(s.pool_misses.load(), 0u) << "every buffer must be a pool hit";
  EXPECT_EQ(s.writer_spills.load(), 0u) << "no Writer may spill to the heap";
  EXPECT_EQ(s.headroom_growths.load(), 0u) << "headroom budget must hold";
  EXPECT_EQ(s.wire_gather.load(), 0u) << "no frame may take the gather path";
  EXPECT_GE(s.wire_fastpath.load(), static_cast<std::uint64_t>(kCasts));
  EXPECT_GT(s.pool_hits.load(), 0u);

  // And the casts actually arrived, on every member.
  for (int m = 0; m < 3; ++m) {
    EXPECT_GE(w.logs[static_cast<std::size_t>(m)].casts.size(),
              static_cast<std::size_t>(kCasts));
  }
}

TEST(MessageAlloc, CaptureCountsEveryCopiedByte) {
  // A capture (MBRSHIP's flush log, NAK's retransmit buffer) copies the
  // header region and everything above the capturing layer; both copies
  // count in bytes_copied.
  Message m = Message::from_string("0123456789abcdef");  // 16 B payload
  m.push_block(to_bytes("HDR1"));                         // 4 B header
  m.region_mut(6);                                        // 6 B region
  auto& s = msg_path_stats();
  s.reset();
  layers::CapturedMsg cap = layers::CapturedMsg::capture(m);
  EXPECT_EQ(cap.region.size(), 6u);
  EXPECT_EQ(cap.rest.size(), 20u);
  EXPECT_EQ(s.bytes_copied.load(), 26u);

  // Re-injected as an rx message and captured again (a retransmission of a
  // retransmission): the same 26 bytes, counted again.
  Message rx = cap.to_rx();
  s.reset();
  EXPECT_EQ(layers::CapturedMsg::capture(rx).rest, cap.rest);
  EXPECT_EQ(s.bytes_copied.load(), 26u);
}

}  // namespace
}  // namespace horus
