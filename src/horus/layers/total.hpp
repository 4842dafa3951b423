// TOTAL: token-based totally ordered multicast (Section 7).
//
// "During normal operation, it utilizes a token. A special 'oracle' at
//  each member decides who should get the token next. ... In case of a
//  failure, the token may be lost. This, however, is not a problem. During
//  the flush, all members that did not get the token in time send their
//  messages. These messages are not delivered, but buffered. When the new
//  view is installed, each member that remains connected to the system is
//  guaranteed to have all messages from the previous view, and a
//  deterministic order can easily be constructed ... Another deterministic
//  rule decides who the first token holder in this view is (e.g., the
//  lowest ranked member)."
//
// The oracle here parks an idle token at the member that uses it. The
// holder stamps its pending casts with consecutive global sequence numbers
// and passes the token to the next rank (after `token_idle_delay` when it
// has nothing to send). The token carries `idle_run`, the number of holders
// in a row that passed it with nothing to stamp; a member that receives it
// after n-1 idle passes keeps it ("parks"), because nobody else had
// anything to send. A parked holder stamps its own casts at once and sends
// no token traffic, so a lone sender pays for its casts and nothing else.
//
// A member whose last pass was idle may be skipped: the token can park
// elsewhere without coming back. Such a member, when a cast arrives while
// it does not hold the token, sends every other member a token request (a
// kToken send with gseq = 1, carrying the view seq and its stamp counter).
// A parked holder hands the token straight to the requester; any other
// member remembers the request and, when it would next park, hands the
// token to the oldest remembered requester instead. A cast the requester
// stamps after asking shows the request was served and clears it. A
// hand-over from a holder that stamped nothing carries idle_run = n-1, so
// the requester parks it in turn; one from a holder that stamped carries 0,
// so the token comes round to that holder again before it parks. A member
// whose last pass stamped never requests: the token must visit it again
// before it can park, so steady rotation under load sends no extra
// datagram.
//
// The token dies at the flush; at install rank 0 holds it, and park state
// and remembered requests start afresh. Tokens and requests from an older
// view are dropped; those from a view not yet installed here (view seqs
// jump for a joiner or a merge) are held until the install catches up.
//
// TOTAL requires virtual synchrony from below and -- as Section 7 notes --
// needs no failure detector of its own: view changes from MBRSHIP carry all
// the failure information it needs.
#pragma once

#include <map>

#include "horus/core/layer.hpp"
#include "horus/layers/common.hpp"

namespace horus::layers {

class Total final : public Layer {
 public:
  Total();

  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

  /// Live-switch state transfer: the buffers a normal view change would
  /// have drained (stamped messages awaiting order, flush-window casts,
  /// casts awaiting the token) cross into the new epoch, where the
  /// install-time view upcall delivers them by the usual deterministic
  /// view-change rules.
  void export_state(Group& g, Writer& w) override;
  void import_state(Group& g, Reader& r) override;

 private:
  static constexpr std::uint64_t kOrdered = 0;  ///< token-stamped cast
  static constexpr std::uint64_t kUnordered = 1; ///< flush-window cast
  static constexpr std::uint64_t kToken = 2;     ///< token traffic (subset send)
  static constexpr std::uint64_t kPass = 3;      ///< app subset send
  /// kToken subtypes, carried in the gseq field.
  static constexpr std::uint64_t kTokenPass = 0;    ///< the token itself
  static constexpr std::uint64_t kTokenRequest = 1; ///< "hand it to me"

  struct Buffered {
    Address source;
    std::uint64_t msg_id = 0;
    Message msg;
  };

  /// A remembered token request. `floor` is the requester's stamp counter
  /// when it asked: a cast it stamps at gseq >= floor shows it has held the
  /// token since, so the request is served.
  struct Request {
    Address from;
    std::uint64_t floor = 0;
  };

  struct State final : LayerState {
    bool have_token = false;
    /// Holding a token every other member passed on idle: kept until a
    /// request arrives, with no idle timer.
    bool parked = false;
    /// Set between the flush upcall and the next install: the old view's
    /// token is dead, and a late kToken for it must not revive stamping
    /// (a post-flush stamp would leak a stale gseq into the next view).
    bool in_flush = false;
    /// Our last pass stamped nothing: the token may park without visiting
    /// us again, so a cast must request it.
    bool last_pass_idle = false;
    bool requested = false;          ///< a request is out, no token since
    bool stamped_hold = false;       ///< stamped since the token arrived
    std::uint64_t idle_run = 0;      ///< idle passes before this hold
    std::uint64_t next_stamp = 1;    ///< next global seq to assign (holder)
    std::uint64_t next_deliver = 1;  ///< next global seq to deliver
    std::map<std::uint64_t, Buffered> ordered;  ///< received, awaiting order
    std::vector<Message> pending;               ///< casts awaiting the token
    /// Flush-window casts, keyed for the deterministic view-change order.
    std::vector<std::pair<Address, Buffered>> unordered;
    /// Requesters to hand the token to instead of parking, oldest first.
    std::vector<Request> requests;
    /// Requests for a view we have not installed yet (their sender
    /// installed it first): those for the highest such view seen.
    std::vector<Request> early_requests;
    std::uint64_t early_requests_view = 0;
    sim::TimerId idle_timer = 0;
    std::uint64_t tokens_passed = 0;
    std::uint64_t requests_sent = 0;
    std::uint64_t delivered = 0;
    /// A token that arrived for a view we have not installed yet (the
    /// sender installed it first); claimed when our install catches up.
    std::uint64_t pending_token_view = 0;
    std::uint64_t pending_token_stamp = 0;
    std::uint64_t pending_token_run = 0;
  };

  /// Stamp and cast every pending message.
  void stamp_pending(Group& g, State& st);
  /// The token arrived (or was seeded at install) after `run` idle passes.
  void take_token(Group& g, State& st, std::uint64_t stamp, std::uint64_t run);
  /// Hand the token to the oldest remembered requester, or park it.
  void park_or_hand_over(Group& g, State& st);
  /// Pass a parked (or would-be parked) token to a requester.
  void hand_over(Group& g, State& st, const Address& to);
  /// Pass to the next rank.
  void rotate(Group& g, State& st);
  void send_token(Group& g, State& st, const Address& to, std::uint64_t run);
  /// Ask every other member for the token.
  void request_token(Group& g, State& st);
  void on_request(Group& g, State& st, const Request& rq,
                  std::uint64_t vseq);
  void schedule_idle_pass(Group& g, State& st);
  void deliver_in_order(Group& g, State& st);
  void on_view(Group& g, State& st, UpEvent& ev);

  LayerInfo info_;
};

}  // namespace horus::layers
