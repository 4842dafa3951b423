// TOTAL layer: agreement on a single delivery order, token behaviour,
// and the deterministic re-ordering rule at view changes (Section 7).
#include <algorithm>

#include "../common/test_util.hpp"

namespace horus::testing {
namespace {

constexpr const char* kStack = "TOTAL:MBRSHIP:FRAG:NAK:COM";

/// A numeric `key=value` field of a member's TOTAL dump.
std::uint64_t total_field(Endpoint& ep, const std::string& key) {
  std::string d = ep.dump(kGroup, "TOTAL");
  auto pos = d.find(" " + key + "=");
  if (pos == std::string::npos) pos = d.find(key + "=");
  EXPECT_NE(pos, std::string::npos) << key << " missing from: " << d;
  if (pos == std::string::npos) return 0;
  return std::stoull(d.substr(d.find('=', pos) + 1));
}

void cast_str(Endpoint& ep, const std::string& s) {
  ep.cast(kGroup, Message::from_string(s));
}

/// Lone-sender warm-up: after it the token is parked at `sender`.
void warm_up(World& w, std::size_t sender, int casts = 3) {
  for (int i = 0; i < casts; ++i) {
    cast_str(*w.eps[sender], "warm-" + std::to_string(sender) + "-" +
                                 std::to_string(i));
    w.sys.run_for(sim::kMillisecond);
  }
  w.sys.run_for(50 * sim::kMillisecond);
}

TEST(Total, AllMembersSameOrderConcurrentSenders) {
  HorusSystem::Options o;
  o.net.loss = 0.05;
  World w(4, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  // Everyone casts concurrently, repeatedly.
  for (int round = 0; round < 10; ++round) {
    for (std::size_t m = 0; m < 4; ++m) {
      w.eps[m]->cast(kGroup, Message::from_string(
                                 "r" + std::to_string(round) + "." + std::to_string(m)));
    }
    w.sys.run_for(30 * sim::kMillisecond);
  }
  w.sys.run_for(10 * sim::kSecond);
  auto ref = w.logs[0].all_cast_payloads();
  ASSERT_EQ(ref.size(), 40u);
  for (std::size_t m = 1; m < 4; ++m) {
    EXPECT_EQ(w.logs[m].all_cast_payloads(), ref)
        << "member " << m << " delivered a different total order";
  }
}

TEST(Total, OrderIsFifoPerSender) {
  // Total order must extend each sender's FIFO order.
  HorusSystem::Options o;
  o.net.loss = 0.0;
  World w(3, kStack, o);
  w.form_group();
  for (int i = 0; i < 20; ++i) {
    w.eps[1]->cast(kGroup, Message::from_string(std::to_string(i)));
  }
  w.sys.run_for(5 * sim::kSecond);
  auto got = w.logs[2].casts_from(w.eps[1]->address());
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

TEST(Total, TokenRotatesAmongSenders) {
  // With several active senders the token must visit them all (no sender
  // starves): every member's casts eventually appear.
  HorusSystem::Options o;
  o.net.loss = 0.0;
  World w(5, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  for (std::size_t m = 0; m < 5; ++m) {
    for (int i = 0; i < 5; ++i) {
      w.eps[m]->cast(kGroup, Message::from_string("s" + std::to_string(m)));
    }
  }
  w.sys.run_for(10 * sim::kSecond);
  for (std::size_t m = 0; m < 5; ++m) {
    EXPECT_EQ(w.logs[0].casts_from(w.eps[m]->address()).size(), 5u)
        << "sender " << m << " starved";
  }
}

TEST(Total, SurvivesTokenHolderCrash) {
  // Section 7: "In case of a failure, the token may be lost. This,
  // however, is not a problem."
  HorusSystem::Options o;
  o.net.loss = 0.0;
  World w(4, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  // Rank 0 holds the first token; crash it while traffic flows.
  for (std::size_t m = 1; m < 4; ++m) {
    w.eps[m]->cast(kGroup, Message::from_string("pre" + std::to_string(m)));
  }
  w.sys.run_for(20 * sim::kMillisecond);
  w.sys.crash(*w.eps[0]);
  for (std::size_t m = 1; m < 4; ++m) {
    w.eps[m]->cast(kGroup, Message::from_string("post" + std::to_string(m)));
  }
  w.sys.run_for(10 * sim::kSecond);
  // All survivors agree on one order containing all six messages.
  auto ref = w.logs[1].all_cast_payloads();
  EXPECT_EQ(ref.size(), 6u);
  for (std::size_t m = 2; m < 4; ++m) {
    EXPECT_EQ(w.logs[m].all_cast_payloads(), ref) << "member " << m;
  }
}

TEST(Total, ViewChangeOrderDeterministic) {
  // Messages in flight at a crash get the deterministic rank-order rule;
  // run the same scenario at every member and require identical orders.
  HorusSystem::Options o;
  o.net.loss = 0.1;
  o.seed = 77;
  World w(5, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  for (int burst = 0; burst < 3; ++burst) {
    for (std::size_t m = 0; m < 5; ++m) {
      w.eps[m]->cast(kGroup,
                     Message::from_string("b" + std::to_string(burst) + "." +
                                          std::to_string(m)));
    }
    if (burst == 1) w.sys.crash(*w.eps[2]);
    w.sys.run_for(50 * sim::kMillisecond);
  }
  w.sys.run_for(10 * sim::kSecond);
  auto ref = w.logs[0].all_cast_payloads();
  for (std::size_t m : {1u, 3u, 4u}) {
    EXPECT_EQ(w.logs[m].all_cast_payloads(), ref)
        << "member " << m << " diverged across the view change";
  }
}

TEST(Total, NoDuplicatesNoReordersLongRun) {
  HorusSystem::Options o;
  o.net.loss = 0.08;
  o.net.duplicate = 0.05;
  World w(3, kStack, o);
  w.form_group();
  for (int i = 0; i < 60; ++i) {
    w.eps[static_cast<std::size_t>(i % 3)]->cast(
        kGroup, Message::from_string("n" + std::to_string(i)));
    w.sys.run_for(10 * sim::kMillisecond);
  }
  w.sys.run_for(10 * sim::kSecond);
  auto all = w.logs[0].all_cast_payloads();
  ASSERT_EQ(all.size(), 60u);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end()) << "duplicates";
}

TEST(Total, LoneSenderParksTheToken) {
  // Once the token is parked at a lone sender, each cast costs exactly its
  // own datagrams (one per member) and no token traffic at all.
  HorusSystem::Options o;
  o.net.loss = 0.0;
  // Keep NAK status and MBRSHIP gossip out of the measured window, so the
  // datagram count is the casts' alone.
  o.stack.nak_status_interval = 10 * sim::kSecond;
  o.stack.stability_gossip_interval = 10 * sim::kSecond;
  o.stack.fail_timeout = 60 * sim::kSecond;
  World w(3, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  warm_up(w, 0);
  EXPECT_EQ(total_field(*w.eps[0], "parked"), 1u);

  std::vector<std::uint64_t> passed;
  for (Endpoint* ep : w.eps) passed.push_back(total_field(*ep, "tokens_passed"));
  const std::uint64_t sent0 = w.sys.net().stats().sent.load();
  constexpr int kCasts = 50;
  for (int i = 0; i < kCasts; ++i) {
    cast_str(*w.eps[0], "c" + std::to_string(i));
    w.sys.run_for(sim::kMillisecond);
  }
  EXPECT_EQ(w.sys.net().stats().sent.load() - sent0, 3u * kCasts);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(total_field(*w.eps[m], "tokens_passed"), passed[m])
        << "member " << m << " passed the token while it was parked";
    EXPECT_EQ(w.logs[m].casts_from(w.eps[0]->address()).size(),
              3u + kCasts);
  }
}

TEST(Total, SecondSenderGetsParkedTokenWithinOneRequestRoundTrip) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  World w(3, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  warm_up(w, 0);
  ASSERT_EQ(total_field(*w.eps[0], "parked"), 1u);

  const std::uint64_t requests0 = total_field(*w.eps[1], "requests_sent");
  const std::uint64_t stamp0 = total_field(*w.eps[1], "next_stamp");
  const sim::Time t0 = w.sys.now();
  // Request out, token back, plus one idle delay of slack.
  const sim::Duration bound =
      2 * o.net.delay_max + o.stack.token_idle_delay;
  cast_str(*w.eps[1], "from-1");
  // Member 1 stamps the moment the token arrives (and, since member 0
  // stamped while holding it, sends it on round the ring at once).
  while (total_field(*w.eps[1], "next_stamp") == stamp0 &&
         w.sys.now() - t0 <= bound) {
    w.sys.run_for(10 * sim::kMicrosecond);
  }
  EXPECT_GT(total_field(*w.eps[1], "next_stamp"), stamp0);
  EXPECT_LE(w.sys.now() - t0, bound);
  EXPECT_EQ(total_field(*w.eps[1], "requests_sent"), requests0 + 1);

  // Nobody else casts: the token comes round and parks at member 1.
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(total_field(*w.eps[1], "parked"), 1u);
  EXPECT_EQ(total_field(*w.eps[0], "parked"), 0u);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(w.logs[m].casts_from(w.eps[1]->address()),
              std::vector<std::string>{"from-1"});
    EXPECT_EQ(w.logs[m].all_cast_payloads(), w.logs[0].all_cast_payloads());
  }
}

TEST(Total, ParkedHolderCrashReseedsToken) {
  // The token dies with its parked holder; the view change re-seeds it at
  // rank 0 and every survivor's casts -- including those whose requests
  // went to the dead holder -- are delivered in one agreed order.
  HorusSystem::Options o;
  o.net.loss = 0.0;
  World w(4, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  warm_up(w, 2);
  ASSERT_EQ(total_field(*w.eps[2], "parked"), 1u);
  w.sys.crash(*w.eps[2]);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t m : {0u, 1u, 3u}) {
      cast_str(*w.eps[m],
               "s" + std::to_string(m) + "." + std::to_string(round));
    }
    w.sys.run_for(2 * sim::kMillisecond);
  }
  w.sys.run_for(5 * sim::kSecond);
  auto ref = w.logs[0].all_cast_payloads();
  EXPECT_EQ(ref.size(), 3u + 9u);
  for (std::size_t m : {1u, 3u}) {
    EXPECT_EQ(w.logs[m].all_cast_payloads(), ref) << "member " << m;
    ASSERT_FALSE(w.logs[m].views.empty());
    EXPECT_EQ(w.logs[m].views.back().size(), 3u);
  }
  for (std::size_t m : {0u, 1u, 3u}) {
    EXPECT_EQ(w.logs[0].casts_from(w.eps[m]->address()).size(), 3u)
        << "sender " << m;
  }
  // The new view's token parks again once traffic stops.
  warm_up(w, 3);
  EXPECT_EQ(total_field(*w.eps[3], "parked"), 1u);
}

TEST(Total, LateInstallingJoinerHandsOverTheTokenParkedAtIt) {
  // A joiner leaves its singleton view for the group's next one, so its
  // view seq jumps. Here it installs the 4-member view last, after the
  // token rotated idle to it (it holds the token early) and after member 1,
  // skipped since its idle pass, asked for the token. The joiner must keep
  // that request for its install and hand the token over, or member 1's
  // cast waits for a view change that never comes.
  HorusSystem::Options o;
  o.net.loss = 0.0;
  World w(4, kStack, o);
  w.eps[0]->join(kGroup);
  w.sys.run_for(50 * sim::kMillisecond);
  for (std::size_t i = 1; i < 3; ++i) {
    w.eps[i]->join(kGroup, w.eps[0]->address());
    w.sys.run_for(50 * sim::kMillisecond);
  }
  w.sys.run_for(2 * sim::kSecond);
  ASSERT_EQ(w.logs[1].views.back().size(), 3u);

  // The coordinator's traffic to the joiner, its install included, is slow.
  sim::LinkParams slow;
  slow.delay_min = slow.delay_max = 40 * sim::kMillisecond;
  w.sys.net().set_link_params(w.eps[0]->address().id, w.eps[3]->address().id,
                              slow);
  w.eps[3]->join(kGroup, w.eps[0]->address());
  auto installed = [&](std::size_t m) {
    return !w.logs[m].views.empty() && w.logs[m].views.back().size() == 4u;
  };
  const sim::Time limit = w.sys.now() + 2 * sim::kSecond;
  while (!installed(0) && w.sys.now() < limit) {
    w.sys.run_for(100 * sim::kMicrosecond);
  }
  ASSERT_TRUE(installed(0));
  ASSERT_EQ(w.logs[0].views.back().member(3), w.eps[3]->address());
  // Three idle passes (rank 0 -> 1 -> 2 -> 3) put the token, with idle_run
  // n-1, at the joiner, which has not installed yet.
  const std::uint64_t passed2 = total_field(*w.eps[2], "tokens_passed");
  w.sys.run_for(3 * o.stack.token_idle_delay + sim::kMillisecond);
  EXPECT_EQ(total_field(*w.eps[2], "tokens_passed"), passed2 + 1);
  ASSERT_FALSE(installed(3));

  const std::uint64_t requests0 = total_field(*w.eps[1], "requests_sent");
  cast_str(*w.eps[1], "late");
  w.sys.run_for(sim::kMillisecond);
  EXPECT_EQ(total_field(*w.eps[1], "requests_sent"), requests0 + 1);
  ASSERT_FALSE(installed(3));

  w.sys.run_for(sim::kSecond);
  ASSERT_TRUE(installed(3));
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(w.logs[m].casts_from(w.eps[1]->address()),
              std::vector<std::string>{"late"})
        << "member " << m;
  }
  EXPECT_EQ(total_field(*w.eps[1], "parked"), 1u);
}

TEST(Total, LiveReconfigureWhileParked) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  World w(3, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  warm_up(w, 1);
  ASSERT_EQ(total_field(*w.eps[1], "parked"), 1u);

  w.eps[0]->reconfigure(kGroup, "TOTAL:MBRSHIP:FRAG:NAK:COMPRESS:COM");
  for (std::size_t m = 0; m < 3; ++m) cast_str(*w.eps[m], "mid-" + std::to_string(m));
  w.sys.run_for(3 * sim::kSecond);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(w.eps[m]->group(kGroup).epoch_number(), 1u) << "member " << m;
  }

  // The new epoch's token parks at the next lone sender and stays put.
  warm_up(w, 2);
  EXPECT_EQ(total_field(*w.eps[2], "parked"), 1u);
  std::vector<std::uint64_t> passed;
  for (Endpoint* ep : w.eps) passed.push_back(total_field(*ep, "tokens_passed"));
  warm_up(w, 2, 10);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(total_field(*w.eps[m], "tokens_passed"), passed[m]);
    EXPECT_EQ(w.logs[m].all_cast_payloads(), w.logs[0].all_cast_payloads());
    EXPECT_EQ(w.logs[m].casts_from(w.eps[m]->address()).size(),
              m == 1 ? 4u : m == 2 ? 14u : 1u);
  }
}

}  // namespace
}  // namespace horus::testing
