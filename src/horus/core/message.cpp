#include "horus/core/message.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace horus {

Message Message::from_payload(Bytes payload) {
  auto buf = std::make_shared<const Bytes>(std::move(payload));
  std::size_t len = buf->size();
  return from_shared(std::move(buf), 0, len);
}

Message Message::from_shared(std::shared_ptr<const Bytes> buf, std::size_t off,
                             std::size_t len) {
  assert(off + len <= buf->size());
  Message m;
  if (len > 0) m.chunks_.push_back(Chunk{std::move(buf), off, len});
  return m;
}

Message Message::from_wire(std::shared_ptr<const Bytes> datagram,
                           std::size_t region_bytes, std::size_t len,
                           std::size_t offset) {
  Message m;
  std::size_t end = std::min(len, datagram->size());
  if (offset > end || end - offset < region_bytes) {
    throw DecodeError("datagram shorter than header region");
  }
  m.rx_region_off_ = offset;
  m.rx_region_len_ = region_bytes;
  m.rx_cursor_ = offset + region_bytes;
  m.rx_end_ = end;
  m.rx_buf_ = std::move(datagram);
  return m;
}

Message Message::from_wire(ByteSpan datagram, std::size_t region_bytes) {
  return from_wire(std::make_shared<const Bytes>(datagram.begin(), datagram.end()),
                   region_bytes);
}

Message Message::from_parts(Bytes region, Bytes rest) {
  Message m;
  m.region_ = std::move(region);
  m.rx_buf_ = std::make_shared<const Bytes>(std::move(rest));
  m.rx_cursor_ = 0;
  m.rx_end_ = m.rx_buf_->size();
  return m;
}

// -- linear tx --------------------------------------------------------------

Message Message::make_linear(WireBufRef wb, std::size_t region_cap,
                             std::size_t tailroom, ByteSpan payload) {
  assert(wb && region_cap + tailroom + payload.size() <= wb->capacity());
  Message m;
  std::size_t off = wb->capacity() - tailroom - payload.size();
  if (!payload.empty()) {
    std::memcpy(wb->data() + off, payload.data(), payload.size());
  }
  msg_path_stats().bytes_copied.fetch_add(payload.size(),
                                          std::memory_order_relaxed);
  m.wb_ = std::move(wb);
  m.region_cap_ = region_cap;
  m.head_ = off;
  m.pay_off_ = off;
  m.pay_len_ = payload.size();
  return m;
}

bool Message::linearize(WireBufRef wb, std::size_t region_cap,
                        std::size_t tailroom) {
  if (rx() || linear() || !wb || region_.size() > region_cap) return false;
  std::size_t psz = payload_size();
  std::size_t bsz = pending_block_bytes();
  std::size_t cap = wb->capacity();
  if (region_cap + tailroom + psz + bsz > cap) return false;
  std::size_t off = cap - tailroom - psz;
  std::uint8_t* base = wb->data();
  std::size_t at = off;
  for (const auto& c : chunks_) {
    std::memcpy(base + at, c.buf->data() + c.off, c.len);
    at += c.len;
  }
  // Blocks already pushed (messages built mid-stack) move into the
  // headroom, innermost nearest the payload, preserving wire order.
  at = off;
  for (const auto& b : blocks_) {
    at -= b.size();
    std::memcpy(base + at, b.data(), b.size());
  }
  if (!region_.empty()) std::memcpy(base, region_.data(), region_.size());
  msg_path_stats().bytes_copied.fetch_add(psz + bsz + region_.size(),
                                          std::memory_order_relaxed);
  wb_ = std::move(wb);
  region_cap_ = region_cap;
  region_len_ = region_.size();
  head_ = at;
  pay_off_ = off;
  pay_len_ = psz;
  blocks_.clear();
  chunks_.clear();
  region_.clear();
  return true;
}

void Message::unshare(std::size_t extra_headroom) {
  std::size_t used = pay_off_ + pay_len_ - head_;
  std::size_t old_headroom = head_ - region_cap_;
  std::size_t headroom = std::max(old_headroom, extra_headroom + 16);
  std::size_t tail = wb_->capacity() - (pay_off_ + pay_len_);
  WireBufRef fresh =
      WireBufRef::make_unpooled(region_cap_ + headroom + used + tail);
  std::uint8_t* dst = fresh->data();
  std::memcpy(dst, wb_->data(), region_len_);
  std::memcpy(dst + region_cap_ + headroom, wb_->data() + head_, used);
  msg_path_stats().unshare_copies.fetch_add(1, std::memory_order_relaxed);
  msg_path_stats().bytes_copied.fetch_add(region_len_ + used,
                                          std::memory_order_relaxed);
  head_ = region_cap_ + headroom;
  pay_off_ = head_ + (used - pay_len_);
  wb_ = std::move(fresh);
}

void Message::grow_headroom(std::size_t need) {
  std::size_t used = pay_off_ + pay_len_ - head_;
  std::size_t tail = wb_->capacity() - (pay_off_ + pay_len_);
  std::size_t headroom = (head_ - region_cap_) + std::max(need + 64, wb_->capacity());
  WireBufRef fresh =
      WireBufRef::make_unpooled(region_cap_ + headroom + used + tail);
  std::uint8_t* dst = fresh->data();
  std::memcpy(dst, wb_->data(), region_len_);
  std::memcpy(dst + region_cap_ + headroom, wb_->data() + head_, used);
  msg_path_stats().headroom_growths.fetch_add(1, std::memory_order_relaxed);
  msg_path_stats().bytes_copied.fetch_add(region_len_ + used,
                                          std::memory_order_relaxed);
  head_ = region_cap_ + headroom;
  pay_off_ = head_ + (used - pay_len_);
  wb_ = std::move(fresh);
}

void Message::delinearize() {
  assert(linear());
  Bytes region(wb_->data(), wb_->data() + region_len_);
  // [head_, pay_off_) already holds every pushed header in wire order
  // (outermost first); keeping it as the single innermost legacy block
  // preserves that order under further pushes.
  blocks_.clear();
  if (pay_off_ > head_) {
    blocks_.emplace_back(wb_->data() + head_, wb_->data() + pay_off_);
  }
  chunks_.clear();
  if (pay_len_ > 0) {
    chunks_.push_back(Chunk{share_buffer(), pay_off_, pay_len_});
  }
  region_ = std::move(region);
  wb_.reset();
  region_cap_ = region_len_ = head_ = pay_off_ = pay_len_ = 0;
}

std::shared_ptr<const Bytes> Message::share_buffer() const {
  // Aliasing shared_ptr: owns a WireBufRef (keeping the buffer alive and,
  // importantly, marking it shared for copy-on-write), points at the
  // storage vector.
  auto keep = std::make_shared<WireBufRef>(wb_);
  const Bytes* storage = &(*keep)->storage();
  return std::shared_ptr<const Bytes>(std::move(keep), storage);
}

MutByteSpan Message::prepend(std::size_t n) {
  assert(!rx() && "prepend on a received message");
  if (!linear() || n == 0) return {};
  if (!wb_.unique()) unshare(n);
  if (head_ - region_cap_ < n) grow_headroom(n);
  head_ -= n;
  return MutByteSpan(wb_->data() + head_, n);
}

void Message::push_block(ByteSpan block) {
  assert(!rx() && "push_block on a received message");
  if (linear()) {
    if (block.empty()) return;  // no wire effect; stay linear
    MutByteSpan dst = prepend(block.size());
    std::memcpy(dst.data(), block.data(), block.size());
    msg_path_stats().bytes_copied.fetch_add(block.size(),
                                            std::memory_order_relaxed);
    return;
  }
  blocks_.emplace_back(block.begin(), block.end());
}

MutByteSpan Message::region_mut(std::size_t bytes) {
  assert(!rx() && "region_mut on a received message");
  if (linear()) {
    if (bytes > region_cap_) {
      delinearize();  // staging undersized (never happens for stack-built
                      // messages: region_cap is the layout size)
    } else {
      if (!wb_.unique()) unshare(0);
      if (region_len_ < bytes) {
        std::memset(wb_->data() + region_len_, 0, bytes - region_len_);
        region_len_ = bytes;
      }
      return MutByteSpan(wb_->data(), region_len_);
    }
  }
  if (region_.size() < bytes) region_.resize(bytes, 0);
  return MutByteSpan(region_);
}

ByteSpan Message::region() const {
  if (linear()) return ByteSpan(wb_->data(), region_len_);
  if (rx_buf_ != nullptr && rx_region_len_ > 0) {
    return ByteSpan(rx_buf_->data() + rx_region_off_, rx_region_len_);
  }
  return ByteSpan(region_);
}

Bytes Message::region_copy() const {
  ByteSpan r = region();
  msg_path_stats().bytes_copied.fetch_add(r.size(), std::memory_order_relaxed);
  return Bytes(r.begin(), r.end());
}

Bytes Message::to_wire(std::size_t region_bytes) const {
  assert(!rx() && "to_wire on a received message");
  if (linear()) {
    Bytes out;
    std::size_t hdrs = pay_off_ - head_;
    out.reserve(region_bytes + hdrs + pay_len_);
    const std::uint8_t* base = wb_->data();
    out.insert(out.end(), base, base + std::min(region_len_, region_bytes));
    if (out.size() < region_bytes) out.resize(region_bytes, 0);
    out.insert(out.end(), base + head_, base + pay_off_ + pay_len_);
    return out;
  }
  Bytes out;
  std::size_t total = region_bytes;
  for (const auto& b : blocks_) total += b.size();
  for (const auto& c : chunks_) total += c.len;
  out.reserve(total);
  // Region, zero-padded to the stack's layout size.
  out.insert(out.end(), region_.begin(), region_.end());
  if (out.size() < region_bytes) out.resize(region_bytes, 0);
  // Blocks, outermost (last pushed) first, so the receiving stack pops them
  // bottom layer first.
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    out.insert(out.end(), it->begin(), it->end());
  }
  for (const auto& c : chunks_) {
    out.insert(out.end(), c.buf->begin() + static_cast<std::ptrdiff_t>(c.off),
               c.buf->begin() + static_cast<std::ptrdiff_t>(c.off + c.len));
  }
  return out;
}

MutByteSpan Message::finalize_wire(std::uint64_t gid, std::size_t region_bytes,
                                   std::size_t trailer_room,
                                   std::uint16_t epoch_stamp) {
  assert(!rx() && "finalize_wire on a received message");
  if (!linear()) return {};
  if (pay_off_ + pay_len_ + trailer_room > wb_->capacity()) return {};
  if (!wb_.unique()) unshare(10 + region_bytes);
  std::size_t prefix = 10 + region_bytes;  // gid + epoch stamp
  if (head_ - region_cap_ < prefix) grow_headroom(prefix);
  std::uint8_t* base = wb_->data();
  std::uint8_t* p = base + head_ - prefix;
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(gid >> (8 * i));
  }
  p[8] = static_cast<std::uint8_t>(epoch_stamp);
  p[9] = static_cast<std::uint8_t>(epoch_stamp >> 8);
  std::size_t staged = std::min(region_len_, region_bytes);
  std::memcpy(p + 10, base, staged);
  std::memset(p + 10 + staged, 0, region_bytes - staged);
  msg_path_stats().wire_fastpath.fetch_add(1, std::memory_order_relaxed);
  return MutByteSpan(p, prefix + (pay_off_ - head_) + pay_len_ + trailer_room);
}

// -- rx ---------------------------------------------------------------------

Reader Message::reader() const {
  assert(rx() && "reader on a tx message");
  return Reader(ByteSpan(*rx_buf_).subspan(rx_cursor_, rx_end_ - rx_cursor_));
}

void Message::consume(std::size_t n) {
  assert(rx());
  if (rx_cursor_ + n > rx_end_) throw DecodeError("consume past end");
  rx_cursor_ += n;
}

// -- payload ----------------------------------------------------------------

Bytes Message::payload_bytes() const {
  if (rx()) {
    return Bytes(rx_buf_->begin() + static_cast<std::ptrdiff_t>(rx_cursor_),
                 rx_buf_->begin() + static_cast<std::ptrdiff_t>(rx_end_));
  }
  if (linear()) {
    const std::uint8_t* base = wb_->data();
    return Bytes(base + pay_off_, base + pay_off_ + pay_len_);
  }
  Bytes out;
  out.reserve(payload_size());
  for (const auto& c : chunks_) {
    out.insert(out.end(), c.buf->begin() + static_cast<std::ptrdiff_t>(c.off),
               c.buf->begin() + static_cast<std::ptrdiff_t>(c.off + c.len));
  }
  return out;
}

Message Message::slice_payload(std::size_t off, std::size_t len) const {
  Message m;
  if (rx()) {
    if (rx_cursor_ + off + len > rx_end_) throw DecodeError("slice past end");
    if (len > 0) m.chunks_.push_back(Chunk{rx_buf_, rx_cursor_ + off, len});
    return m;
  }
  if (linear()) {
    assert(head_ == pay_off_ && "slice_payload with pushed headers");
    if (off + len > pay_len_) throw std::out_of_range("slice_payload past end");
    if (len > 0) m.chunks_.push_back(Chunk{share_buffer(), pay_off_ + off, len});
    return m;
  }
  assert(blocks_.empty() && "slice_payload with pushed headers");
  std::size_t skip = off;
  std::size_t want = len;
  for (const auto& c : chunks_) {
    if (want == 0) break;
    if (skip >= c.len) {
      skip -= c.len;
      continue;
    }
    std::size_t take = std::min(c.len - skip, want);
    m.chunks_.push_back(Chunk{c.buf, c.off + skip, take});
    want -= take;
    skip = 0;
  }
  if (want != 0) throw std::out_of_range("slice_payload past end");
  return m;
}

// -- capture ----------------------------------------------------------------

Bytes Message::upper_wire() const {
  Bytes out;
  if (rx() || linear()) {
    ByteSpan contiguous = upper_span();
    out.assign(contiguous.begin(), contiguous.end());
  } else {
    std::size_t total = 0;
    for (const auto& b : blocks_) total += b.size();
    for (const auto& c : chunks_) total += c.len;
    out.reserve(total);
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
      out.insert(out.end(), it->begin(), it->end());
    }
    for (const auto& c : chunks_) {
      out.insert(out.end(), c.buf->begin() + static_cast<std::ptrdiff_t>(c.off),
                 c.buf->begin() + static_cast<std::ptrdiff_t>(c.off + c.len));
    }
  }
  msg_path_stats().bytes_copied.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

ByteSpan Message::upper_span() const {
  if (rx()) {
    return ByteSpan(rx_buf_->data() + rx_cursor_, rx_end_ - rx_cursor_);
  }
  if (linear()) {
    return ByteSpan(wb_->data() + head_, pay_off_ + pay_len_ - head_);
  }
  return {};
}

std::size_t Message::header_overhead() const {
  if (linear()) return region_len_ + (pay_off_ - head_);
  std::size_t rsz = region().size();
  std::size_t n = rsz;
  for (const auto& b : blocks_) n += b.size();
  if (rx()) n += rx_cursor_ >= rsz ? rx_cursor_ - rsz : 0;
  return n;
}

}  // namespace horus
