#include "horus/layers/total.hpp"

#include <algorithm>

#include "horus/util/log.hpp"

namespace horus::layers {
namespace {

using props::Property;

LayerInfo make_info() {
  LayerInfo li;
  li.name = "TOTAL";
  li.fields = {{"kind", 2}, {"gseq", 32}};
  li.spec.name = li.name;
  li.spec.requires_below = props::make_set(
      {Property::kFifoUnicast, Property::kVirtualSemiSync,
       Property::kVirtualSync, Property::kConsistentViews});
  li.spec.inherits = props::kAllProperties;
  li.spec.provides = props::make_set({Property::kTotalOrder});
  li.spec.cost = 4;
  li.up_emits = make_up_emits({UpType::kCast});
  return li;
}

}  // namespace

Total::Total() : info_(make_info()) {}

std::unique_ptr<LayerState> Total::make_state(Group&) {
  auto st = std::make_unique<State>();
  // Until the first view arrives we behave as a singleton holder.
  st->have_token = true;
  st->parked = true;
  return st;
}

void Total::down(Group& g, DownEvent& ev) {
  switch (ev.type) {
    case DownType::kCast: {
      State& st = state<State>(g);
      st.pending.push_back(std::move(ev.msg));
      if (st.have_token) {
        stamp_pending(g, st);
        if (!st.parked) rotate(g, st);
      } else if (st.last_pass_idle && !st.requested && !st.in_flush) {
        request_token(g, st);
      }
      return;
    }
    case DownType::kSend: {
      std::uint64_t fields[] = {kPass, 0};
      stack().push_header(ev.msg, *this, fields);
      pass_down(g, ev);
      return;
    }
    default:
      pass_down(g, ev);
      return;
  }
}

void Total::stamp_pending(Group& g, State& st) {
  if (st.pending.empty()) return;
  st.stamped_hold = true;
  for (Message& m : st.pending) {
    HLOG_TRACE("TOTAL") << stack().address().id << " stamp gseq="
                        << st.next_stamp;
    std::uint64_t fields[] = {kOrdered, st.next_stamp++};
    stack().push_header(m, *this, fields);
    DownEvent out;
    out.type = DownType::kCast;
    out.msg = std::move(m);
    pass_down(g, out);
  }
  st.pending.clear();
}

void Total::take_token(Group& g, State& st, std::uint64_t stamp,
                       std::uint64_t run) {
  st.have_token = true;
  st.requested = false;
  st.idle_run = run;
  st.next_stamp = std::max(st.next_stamp, stamp);
  st.stamped_hold = false;
  stamp_pending(g, st);
  if (run + 1 >= g.view().size()) {
    // Every other member passed it on idle: nobody else wants it.
    park_or_hand_over(g, st);
  } else if (st.stamped_hold) {
    rotate(g, st);
  } else {
    schedule_idle_pass(g, st);
  }
}

void Total::park_or_hand_over(Group& g, State& st) {
  if (!st.requests.empty()) {
    Address to = st.requests.front().from;
    st.requests.erase(st.requests.begin());
    HLOG_TRACE("TOTAL") << stack().address().id << " hand token to "
                        << to.id;
    hand_over(g, st, to);
    return;
  }
  HLOG_TRACE("TOTAL") << stack().address().id << " park token";
  st.parked = true;
}

void Total::hand_over(Group& g, State& st, const Address& to) {
  // Every other member's last pass was idle. If ours is too, nobody but the
  // requester wants the token, so it parks it. If we stamped, the run
  // restarts at the requester and must come round to us before it parks.
  st.last_pass_idle = !st.stamped_hold;
  send_token(g, st, to, st.stamped_hold ? 0 : g.view().size() - 1);
}

void Total::rotate(Group& g, State& st) {
  auto my_rank = g.view().rank_of(stack().address());
  if (!my_rank.has_value() || g.view().size() <= 1) return;
  st.last_pass_idle = !st.stamped_hold;
  send_token(g, st, g.view().member((*my_rank + 1) % g.view().size()),
             st.stamped_hold ? 0 : st.idle_run + 1);
}

void Total::send_token(Group& g, State& st, const Address& to,
                       std::uint64_t run) {
  stack().cancel(st.idle_timer);
  st.idle_timer = 0;
  st.have_token = false;
  st.parked = false;
  ++st.tokens_passed;
  Writer w;
  w.varint(g.view().id().seq);
  w.varint(st.next_stamp);
  w.varint(run);
  Message m = Message::from_payload(w.take());
  std::uint64_t fields[] = {kToken, kTokenPass};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  out.dests = {to};
  out.msg = std::move(m);
  pass_down(g, out);
}

void Total::request_token(Group& g, State& st) {
  st.requested = true;
  ++st.requests_sent;
  Writer w;
  w.varint(g.view().id().seq);
  w.varint(st.next_stamp);
  Message m = Message::from_payload(w.take());
  std::uint64_t fields[] = {kToken, kTokenRequest};
  stack().push_header(m, *this, fields);
  DownEvent out;
  out.type = DownType::kSend;
  for (const Address& a : g.view().members()) {
    if (a != stack().address()) out.dests.push_back(a);
  }
  out.msg = std::move(m);
  pass_down(g, out);
}

namespace {

/// Remember `rq`, once per requester; a repeated request raises the floor.
template <typename Request>
void remember(std::vector<Request>& v, const Request& rq) {
  for (Request& r : v) {
    if (r.from == rq.from) {
      r.floor = std::max(r.floor, rq.floor);
      return;
    }
  }
  v.push_back(rq);
}

}  // namespace

void Total::on_request(Group& g, State& st, const Request& rq,
                       std::uint64_t vseq) {
  const std::uint64_t cur = g.view().id().seq;
  if (vseq > cur) {
    // Its sender installed a view we have not (view seqs jump for a joiner
    // or a merge): keep it for then, as an early token is kept. Without it
    // the token could park here after our install while the requester
    // waits. That view's members are unknown yet, so a cap bounds this.
    constexpr std::size_t kMaxEarly = 256;
    if (vseq < st.early_requests_view) return;
    if (vseq > st.early_requests_view) {
      st.early_requests.clear();
      st.early_requests_view = vseq;
    }
    if (st.early_requests.size() < kMaxEarly) remember(st.early_requests, rq);
    return;
  }
  if (vseq < cur || st.in_flush || !g.view().contains(rq.from)) return;
  if (st.parked) {
    HLOG_TRACE("TOTAL") << stack().address().id << " hand parked token to "
                        << rq.from.id;
    hand_over(g, st, rq.from);
    return;
  }
  remember(st.requests, rq);
}

void Total::schedule_idle_pass(Group& g, State& st) {
  if (st.idle_timer != 0 || g.view().size() <= 1) return;
  st.idle_timer = stack().schedule(
      g.gid(), stack().config().token_idle_delay, [this](Group& gg) {
        State& s2 = state<State>(gg);
        s2.idle_timer = 0;
        if (!s2.have_token || s2.parked) return;
        stamp_pending(gg, s2);
        rotate(gg, s2);
      });
}

void Total::up(Group& g, UpEvent& ev) {
  State& st = state<State>(g);
  switch (ev.type) {
    case UpType::kCast:
    case UpType::kSend: {
      PoppedHeader h;
      try {
        h = stack().pop_header(ev.msg, *this);
      } catch (const DecodeError&) {
        return;
      }
      std::uint64_t kind = h.fields[0];
      std::uint64_t gseq = h.fields[1];
      switch (kind) {
        case kOrdered: {
          // The sender held the token for this stamp: a request it sent
          // before stamping it has been served.
          std::erase_if(st.requests, [&](const Request& rq) {
            return rq.from == ev.source && gseq >= rq.floor;
          });
          bool fresh =
              st.ordered
                  .emplace(gseq,
                           Buffered{ev.source, ev.msg_id, std::move(ev.msg)})
                  .second;
          HLOG_TRACE("TOTAL")
              << stack().address().id << " recv gseq=" << gseq << " from "
              << ev.source.id << (fresh ? "" : " DUPLICATE-STAMP")
              << " next_deliver=" << st.next_deliver;
          deliver_in_order(g, st);
          return;
        }
        case kUnordered:
          HLOG_TRACE("TOTAL") << stack().address().id << " recv unordered from "
                              << ev.source.id;
          st.unordered.emplace_back(
              ev.source, Buffered{ev.source, ev.msg_id, std::move(ev.msg)});
          return;
        case kToken: {
          try {
            Reader r = ev.msg.reader();
            std::uint64_t vseq = r.varint();
            if (gseq == kTokenRequest) {
              on_request(g, st, Request{ev.source, r.varint()}, vseq);
              return;
            }
            std::uint64_t stamp = r.varint();
            std::uint64_t run = r.varint();
            if (vseq < g.view().id().seq) return;  // stale token: let it die
            if (vseq == g.view().id().seq && st.in_flush) {
              // This view already flushed: its token is dead. Claiming it
              // would stamp post-flush casts with gseqs the survivors can
              // never deliver after the install resets the sequence.
              HLOG_TRACE("TOTAL") << stack().address().id
                                  << " drop dead token vseq=" << vseq;
              return;
            }
            if (vseq > g.view().id().seq) {
              // Token for a view we have not installed yet (its first
              // holder installed before us): hold it, claim it at install.
              st.pending_token_view = vseq;
              st.pending_token_stamp = stamp;
              st.pending_token_run = run;
              return;
            }
            take_token(g, st, stamp, run);
          } catch (const DecodeError&) {
          }
          return;
        }
        case kPass:
        default:
          pass_up(g, ev);
          return;
      }
    }
    case UpType::kFlush: {
      // Cast everything that is still waiting for the token; MBRSHIP logs
      // these into the old view's message set. They are buffered at the
      // receivers and delivered in deterministic order at the view change.
      // A repeated flush of the same view (a retry under a new
      // coordinator) keeps casts issued since the first one for the next
      // view's token, as MBRSHIP defers casts issued during a flush: the
      // retry may end in a merge whose install replays nothing of this
      // view, not even to its own sender.
      std::vector<Message> pend;
      if (!st.in_flush) pend.swap(st.pending);
      HLOG_TRACE("TOTAL") << stack().address().id << " flush: recast "
                          << pend.size() << " pending as unordered";
      for (Message& m : pend) {
        std::uint64_t fields[] = {kUnordered, 0};
        stack().push_header(m, *this, fields);
        DownEvent out;
        out.type = DownType::kCast;
        out.msg = std::move(m);
        pass_down(g, out);
      }
      st.have_token = false;  // the old token is dead either way
      st.parked = false;
      st.in_flush = true;
      pass_up(g, ev);
      return;
    }
    case UpType::kView:
      on_view(g, st, ev);
      return;
    default:
      pass_up(g, ev);
      return;
  }
}

void Total::deliver_in_order(Group& g, State& st) {
  while (true) {
    auto it = st.ordered.find(st.next_deliver);
    if (it == st.ordered.end()) return;
    Buffered b = std::move(it->second);
    st.ordered.erase(it);
    ++st.next_deliver;
    ++st.delivered;
    UpEvent out;
    out.type = UpType::kCast;
    out.source = b.source;
    out.msg_id = b.msg_id;
    out.msg = std::move(b.msg);
    pass_up(g, out);
  }
}

void Total::on_view(Group& g, State& st, UpEvent& ev) {
  HLOG_TRACE("TOTAL") << stack().address().id << " view "
                      << ev.view.id().seq << ": deliver ordered="
                      << st.ordered.size() << " unordered="
                      << st.unordered.size() << " pending="
                      << st.pending.size();
  // 1. Remaining stamped messages: all survivors hold the same set (virtual
  //    synchrony), so delivering in gseq order -- skipping gaps, which are
  //    identical everywhere -- is deterministic.
  for (auto& [gseq, b] : st.ordered) {
    ++st.delivered;
    UpEvent out;
    out.type = UpType::kCast;
    out.source = b.source;
    out.msg_id = b.msg_id;
    out.msg = std::move(b.msg);
    pass_up(g, out);
  }
  st.ordered.clear();
  // 2. Flush-window (unordered) messages: "a deterministic order can easily
  //    be constructed (e.g., messages are delivered in the order of the
  //    rank of the source)". Stable-sort by source; per-source order is the
  //    FIFO arrival order, identical at every survivor.
  std::stable_sort(st.unordered.begin(), st.unordered.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [src, b] : st.unordered) {
    ++st.delivered;
    UpEvent out;
    out.type = UpType::kCast;
    out.source = b.source;
    out.msg_id = b.msg_id;
    out.msg = std::move(b.msg);
    pass_up(g, out);
  }
  st.unordered.clear();
  // 3. Reset: "another deterministic rule decides who the first token
  //    holder in this view is (e.g., the lowest ranked member)". Nobody has
  //    passed the new token yet, so nobody may be skipped: the first
  //    rotation visits everyone before the token can park.
  st.next_stamp = 1;
  st.next_deliver = 1;
  st.in_flush = false;
  st.have_token = false;
  st.parked = false;
  st.last_pass_idle = false;
  st.requested = false;
  st.requests.clear();
  if (st.early_requests_view == ev.view.id().seq) {
    for (const Request& rq : st.early_requests) {
      if (ev.view.contains(rq.from)) st.requests.push_back(rq);
    }
  }
  st.early_requests.clear();
  st.early_requests_view = 0;
  stack().cancel(st.idle_timer);
  st.idle_timer = 0;
  const bool claim_early = st.pending_token_view == ev.view.id().seq;
  st.pending_token_view = 0;
  pass_up(g, ev);
  if (claim_early) {
    // The new view's token already reached us before the install did.
    take_token(g, st, st.pending_token_stamp, st.pending_token_run);
  } else if (ev.view.rank_of(stack().address()) == 0u) {
    take_token(g, st, 1, 0);
  }
}

void Total::export_state(Group& g, Writer& w) {
  State& st = state<State>(g);
  w.varint(st.ordered.size());
  for (auto& [gseq, b] : st.ordered) {
    w.varint(gseq);
    w.varint(b.source.id);
    w.varint(b.msg_id);
    CapturedMsg::capture(b.msg).encode(w);
  }
  w.varint(st.unordered.size());
  for (auto& [src, b] : st.unordered) {
    w.varint(src.id);
    w.varint(b.source.id);
    w.varint(b.msg_id);
    CapturedMsg::capture(b.msg).encode(w);
  }
  w.varint(st.pending.size());
  for (const Message& m : st.pending) CapturedMsg::capture(m).encode(w);
}

void Total::import_state(Group& g, Reader& r) {
  // The install-time kView upcall (from the membership layer, right after
  // this import) delivers ordered + unordered and re-seeds the token, so
  // no counters transfer: on_view resets them.
  constexpr std::uint64_t kSane = 100'000;
  State& st = state<State>(g);
  std::uint64_t n = r.varint();
  if (n > kSane) throw DecodeError("TOTAL state: ordered count");
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t gseq = r.varint();
    Buffered b;
    b.source = Address{r.varint()};
    b.msg_id = r.varint();
    b.msg = CapturedMsg::decode(r).to_rx();
    st.ordered.emplace(gseq, std::move(b));
  }
  n = r.varint();
  if (n > kSane) throw DecodeError("TOTAL state: unordered count");
  for (std::uint64_t i = 0; i < n; ++i) {
    Address key{r.varint()};
    Buffered b;
    b.source = Address{r.varint()};
    b.msg_id = r.varint();
    b.msg = CapturedMsg::decode(r).to_rx();
    st.unordered.emplace_back(key, std::move(b));
  }
  n = r.varint();
  if (n > kSane) throw DecodeError("TOTAL state: pending count");
  for (std::uint64_t i = 0; i < n; ++i) {
    st.pending.push_back(CapturedMsg::decode(r).to_tx());
  }
}

void Total::dump(Group& g, std::string& out) const {
  State& st = state<State>(const_cast<Group&>(g));
  out += "TOTAL: token=" + std::to_string(st.have_token) +
         " parked=" + std::to_string(st.parked) +
         " tokens_passed=" + std::to_string(st.tokens_passed) +
         " requests_sent=" + std::to_string(st.requests_sent) +
         " next_stamp=" + std::to_string(st.next_stamp) +
         " next_deliver=" + std::to_string(st.next_deliver) +
         " pending=" + std::to_string(st.pending.size()) +
         " delivered=" + std::to_string(st.delivered) + "\n";
}

}  // namespace horus::layers
