// Cheaply-shareable immutable payload buffer.
//
// A Payload is a (shared buffer, offset, length) view: copying one is two
// pointer-sized copies plus a refcount bump, and substr() is O(1) because it
// shares the same underlying bytes. The packet plane moves Packets by value
// through the fabric, the L7 tunnel re-addresses and re-sequences segments
// without touching their bytes, and TCP reassembly stashes out-of-order
// segments — all of which used to deep-copy a std::string per hop and now
// share one allocation for the lifetime of the bytes.
//
// Payloads are immutable by construction: there is no way to mutate the
// bytes behind a live Payload, so sharing across packets, reassembly maps
// and the delivery pool is safe without copy-on-write machinery. To build
// bytes incrementally, build a std::string and convert once.

#ifndef SRC_NET_PAYLOAD_H_
#define SRC_NET_PAYLOAD_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace net {

class Payload {
 public:
  static constexpr std::size_t npos = std::string_view::npos;

  Payload() = default;

  // Implicit on purpose: `p.payload = sendq_.substr(...)` and
  // `p.payload = "abc"` are pervasive and safe (one allocation, then shared).
  Payload(std::string s) {
    if (!s.empty()) {
      buf_ = std::make_shared<const std::string>(std::move(s));
      len_ = buf_->size();
    }
  }
  Payload(std::string_view s) : Payload(std::string(s)) {}
  Payload(const char* s) : Payload(std::string(s)) {}
  Payload(const char* data, std::size_t len) : Payload(std::string(data, len)) {}

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const char* data() const { return buf_ == nullptr ? "" : buf_->data() + off_; }

  std::string_view view() const {
    return buf_ == nullptr ? std::string_view() : std::string_view(buf_->data() + off_, len_);
  }
  operator std::string_view() const { return view(); }

  // Materializes a private copy; for callers that need ownership of a
  // mutable string.
  std::string str() const { return std::string(view()); }

  char operator[](std::size_t i) const { return view()[i]; }

  // O(1): the result shares this payload's buffer.
  Payload substr(std::size_t pos, std::size_t count = npos) const {
    Payload out;
    if (pos >= len_) {
      return out;
    }
    out.buf_ = buf_;
    out.off_ = off_ + pos;
    out.len_ = std::min(count, len_ - pos);
    return out;
  }

  // Grows this payload by `next` in place when `next` continues it in the
  // same buffer, as consecutive segments cut from one send do; returns
  // whether it did.
  bool Extend(const Payload& next) {
    if (buf_ == nullptr || next.buf_ != buf_ || next.off_ != off_ + len_) {
      return false;
    }
    len_ += next.len_;
    return true;
  }

  std::size_t find(std::string_view needle, std::size_t pos = 0) const {
    return view().find(needle, pos);
  }
  std::size_t find(char c, std::size_t pos = 0) const { return view().find(c, pos); }

  // One comparison operator (plus its C++20 rewrite) keeps overload
  // resolution unambiguous for Payload==Payload, ==string_view and
  // ==literal alike — everything funnels through the string_view conversion.
  bool operator==(std::string_view other) const { return view() == other; }

  friend std::ostream& operator<<(std::ostream& os, const Payload& p) { return os << p.view(); }

 private:
  std::shared_ptr<const std::string> buf_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace net

#endif  // SRC_NET_PAYLOAD_H_
