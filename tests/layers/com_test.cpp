// COM layer behaviour: fan-out to the view, source tagging, group
// demultiplexing, checksum trailer (P10), spurious-traffic filtering.
#include "../common/test_util.hpp"
#include "horus/util/hotpath_stats.hpp"

namespace horus::testing {
namespace {

HorusSystem::Options quiet() {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  return o;
}

struct ComWorld : World {
  ComWorld(std::size_t n, const std::string& spec = "COM",
           HorusSystem::Options o = quiet())
      : World(n, spec, o) {
    std::vector<Address> members;
    members.reserve(n);
    for (auto* ep : eps) members.push_back(ep->address());
    for (auto* ep : eps) {
      ep->join(kGroup);
      ep->install_view(kGroup, members);
    }
    sys.run_for(10 * sim::kMillisecond);
  }
};

TEST(Com, CastFansOutToWholeView) {
  ComWorld w(4);
  w.eps[0]->cast(kGroup, Message::from_string("all"));
  w.sys.run_for(50 * sim::kMillisecond);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w.logs[i].casts.size(), 1u) << "member " << i;
  }
  // One datagram per member (including self-delivery).
  EXPECT_EQ(w.eps[0]->stack().stats().datagrams_sent, 4u);
}

TEST(Com, SendGoesOnlyToSubset) {
  ComWorld w(4);
  w.eps[0]->send(kGroup, {w.eps[2]->address()}, Message::from_string("pssst"));
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_TRUE(w.logs[1].sends.empty());
  EXPECT_TRUE(w.logs[3].sends.empty());
  ASSERT_EQ(w.logs[2].sends.size(), 1u);
  EXPECT_EQ(w.logs[2].sends[0].payload, "pssst");
  EXPECT_EQ(w.logs[2].sends[0].source, w.eps[0]->address());
}

TEST(Com, SourceAddressPushed) {
  ComWorld w(2);
  w.eps[1]->cast(kGroup, Message::from_string("x"));
  w.sys.run_for(50 * sim::kMillisecond);
  ASSERT_EQ(w.logs[0].casts.size(), 1u);
  EXPECT_EQ(w.logs[0].casts[0].source, w.eps[1]->address());
}

TEST(Com, UnknownGroupDropped) {
  ComWorld w(2);
  // Member 1 leaves the group table entirely: traffic for the group is
  // dropped at its COM (no crash, no upcall).
  w.eps[1]->destroy();
  w.eps[0]->cast(kGroup, Message::from_string("gone"));
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_TRUE(w.logs[1].casts.empty());
}

TEST(Com, ChecksumDropsGarbledDatagrams) {
  HorusSystem::Options o = quiet();
  o.net.corrupt = 1.0;  // every datagram garbled in transit
  ComWorld w(2, "COM", o);
  for (int i = 0; i < 20; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("junked"));
  }
  w.sys.run_for(sim::kSecond);
  EXPECT_TRUE(w.logs[1].casts.empty())
      << "corrupted datagrams must never be delivered through COM (P10)";
}

/// Capture the datagram a cast of `payload_size` bytes puts on the wire to
/// member 1, then hand member 1 copies of it, each with one bit flipped at
/// `flip` (byte offsets; negative counts back from the end), and finally
/// the intact datagram. Returns the frame size; no copy is re-sealed, so
/// each garbled one must fail COM's check and only the intact one deliver.
std::size_t expect_flips_dropped(std::size_t payload_size,
                                 const std::vector<std::ptrdiff_t>& flip) {
  ComWorld w(2);
  std::shared_ptr<const Bytes> clean;
  w.sys.net().attach(w.eps[1]->address().id,
                     [&](sim::NodeId, std::shared_ptr<const Bytes> d) { clean = d; });
  w.eps[0]->cast(kGroup, Message::from_string(std::string(payload_size, 'p')));
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_NE(clean, nullptr);
  if (clean == nullptr) return 0;
  const auto len = static_cast<std::ptrdiff_t>(clean->size());
  for (std::ptrdiff_t at : flip) {
    std::ptrdiff_t byte = at < 0 ? len + at : at;
    EXPECT_TRUE(byte >= 0 && byte < len) << "flip " << at;
    if (byte < 0 || byte >= len) continue;
    for (int bit : {0, 7}) {
      Bytes garbled = *clean;
      garbled[static_cast<std::size_t>(byte)] ^= static_cast<std::uint8_t>(1u << bit);
      w.eps[1]->deliver_datagram(w.eps[0]->address(),
                                 std::make_shared<const Bytes>(std::move(garbled)));
    }
  }
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_TRUE(w.logs[1].casts.empty()) << "a garbled datagram was delivered";
  w.eps[1]->deliver_datagram(w.eps[0]->address(), clean);
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(w.logs[1].casts.size(), 1u) << "the intact datagram must deliver";
  return clean->size();
}

TEST(Com, ChecksumDropsSingleBitFlipsInTrainSizedFrames) {
  // >= 64 B: CRC-32 folds the 16-byte blocks with carry-less multiplies and
  // runs the last < 16 B through the table loop. Flip bits in the folded
  // body (first block past the demux prefix, middle, last block), in the
  // byte tail just before the trailer and in the trailer itself.
  std::size_t frame = expect_flips_dropped(
      1100, {16, 17, 63, 64, 500, 1023, -21, -6, -5, -4, -3, -1});
  ASSERT_GE(frame, 1024u);
  EXPECT_NE((frame - 4) % 16, 0u) << "pick a size that leaves a byte tail";
}

TEST(Com, ChecksumDropsSingleBitFlipsInShortFrames) {
  // < 64 B: the whole frame takes the table loop.
  std::size_t frame = expect_flips_dropped(8, {10, 16, 20, -5, -4, -1});
  ASSERT_GT(frame, 20u);
  EXPECT_LT(frame, 64u);
}

TEST(Com, RawComDeliversGarbledDatagrams) {
  // RAWCOM has no checksum: corruption flows through (it provides only
  // P11). Payload-only corruption keeps the header parseable often enough
  // to observe deliveries.
  HorusSystem::Options o = quiet();
  o.net.corrupt = 0.5;
  ComWorld w(2, "RAWCOM", o);
  int garbled = 0;
  for (int i = 0; i < 200; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("AAAAAAAAAAAAAAAAAAAAAAAA"));
  }
  w.sys.run_for(sim::kSecond);
  for (const auto& d : w.logs[1].casts) {
    if (d.payload != "AAAAAAAAAAAAAAAAAAAAAAAA") ++garbled;
  }
  EXPECT_GT(garbled, 0) << "RAWCOM should have let some corruption through";
}

TEST(Com, ViewUpdateChangesFanOut) {
  ComWorld w(3);
  // Shrink the view at the sender: subsequent casts skip the removed member.
  w.eps[0]->install_view(kGroup, {w.eps[0]->address(), w.eps[1]->address()});
  w.sys.run_for(10 * sim::kMillisecond);
  w.eps[0]->cast(kGroup, Message::from_string("smaller"));
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(w.logs[1].casts.size(), 1u);
  EXPECT_TRUE(w.logs[2].casts.empty());
}

TEST(Com, EmptyPayloadCast) {
  ComWorld w(2);
  w.eps[0]->cast(kGroup, Message());
  w.sys.run_for(50 * sim::kMillisecond);
  ASSERT_EQ(w.logs[1].casts.size(), 1u);
  EXPECT_TRUE(w.logs[1].casts[0].payload.empty());
}

TEST(Com, CastUsesOneBatchedTransportSend) {
  // COM's fan-out goes through Transport::send_batch: one egress call per
  // cast (and one SimNetwork::send_multi burst), not one per member.
  ComWorld w(4);
  msg_path_stats().reset();
  w.eps[0]->cast(kGroup, Message::from_string("batched"));
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(msg_path_stats().batch_sends.load(), 1u);
  EXPECT_EQ(w.eps[0]->stack().stats().datagrams_sent, 4u)
      << "batching must not change per-destination accounting";
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w.logs[i].casts.size(), 1u) << "member " << i;
  }
}

TEST(Com, SelfSendWorks) {
  ComWorld w(2);
  w.eps[0]->send(kGroup, {w.eps[0]->address()}, Message::from_string("loop"));
  w.sys.run_for(50 * sim::kMillisecond);
  ASSERT_EQ(w.logs[0].sends.size(), 1u);
  EXPECT_EQ(w.logs[0].sends[0].payload, "loop");
}

}  // namespace
}  // namespace horus::testing
