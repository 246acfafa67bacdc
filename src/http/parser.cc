#include "src/http/parser.h"

#include <algorithm>
#include <charconv>
#include <utility>
#include <vector>

namespace http {
namespace {

// Splits "a: b" header lines; returns false on malformed lines.
bool ParseHeaderLine(std::string_view line, std::string* name, std::string* value) {
  std::size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    return false;
  }
  *name = ToLower(std::string(line.substr(0, colon)));
  std::size_t vb = line.find_first_not_of(" \t", colon + 1);
  if (vb == std::string_view::npos) {
    *value = "";
  } else {
    *value = std::string(line.substr(vb));
  }
  return true;
}

// Finds end of headers; returns npos if incomplete.
std::size_t HeaderBlockEnd(const std::string& buf) { return buf.find("\r\n\r\n"); }

std::vector<std::string_view> SplitLines(std::string_view block) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < block.size()) {
    std::size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) {
      lines.push_back(block.substr(pos));
      break;
    }
    lines.push_back(block.substr(pos, eol - pos));
    pos = eol + 2;
  }
  return lines;
}

std::optional<std::size_t> ContentLength(const HeaderMap& headers) {
  auto it = headers.find("content-length");
  if (it == headers.end()) {
    return 0;  // No body framed (we do not model chunked encoding).
  }
  std::size_t n = 0;
  auto [p, ec] = std::from_chars(it->second.data(), it->second.data() + it->second.size(), n);
  if (ec != std::errc() || p != it->second.data() + it->second.size()) {
    return std::nullopt;
  }
  return n;
}

// Returns the offset in `in` just past the blank line that ends a header
// block whose earlier bytes are `head`, or npos if `in` does not end it. The
// blank line may straddle the two, so the last bytes of `head` and the first
// of `in` are searched together (at most six bytes, no allocation).
std::size_t HeadEnd(std::string_view head, std::string_view in) {
  const std::size_t keep = std::min<std::size_t>(head.size(), 3);
  std::string edge(head.substr(head.size() - keep));
  edge.append(in.substr(0, 3));
  const std::size_t at = edge.find("\r\n\r\n");
  if (at != std::string::npos) {
    return at + 4 - keep;
  }
  const std::size_t pos = in.find("\r\n\r\n");
  return pos == std::string_view::npos ? pos : pos + 4;
}

// Moves a buffer that holds exactly the body out whole, so the message owns
// the bytes without a copy. Move-constructing (not move-assigning) leaves
// *buf with no heap buffer; erase() would have kept its capacity.
std::string TakeBuffer(std::string* buf) {
  std::string out = std::move(*buf);
  buf->clear();
  return out;
}

}  // namespace

ParseStatus RequestParser::Feed(std::string_view bytes) {
  if (status_ == ParseStatus::kError) {
    return status_;
  }
  buf_.append(bytes);
  return Advance();
}

ParseStatus RequestParser::Advance() {
  if (!have_headers_) {
    std::size_t end = HeaderBlockEnd(buf_);
    if (end == std::string::npos) {
      status_ = ParseStatus::kNeedMore;
      return status_;
    }
    auto lines = SplitLines(std::string_view(buf_).substr(0, end));
    if (lines.empty()) {
      error_ = "empty request";
      status_ = ParseStatus::kError;
      return status_;
    }
    // Request line: METHOD SP URL SP VERSION.
    std::string_view rl = lines[0];
    std::size_t sp1 = rl.find(' ');
    std::size_t sp2 = rl.rfind(' ');
    if (sp1 == std::string_view::npos || sp2 == sp1) {
      error_ = "malformed request line";
      status_ = ParseStatus::kError;
      return status_;
    }
    request_ = Request{};
    request_.method = std::string(rl.substr(0, sp1));
    request_.url = std::string(rl.substr(sp1 + 1, sp2 - sp1 - 1));
    request_.version = std::string(rl.substr(sp2 + 1));
    for (std::size_t i = 1; i < lines.size(); ++i) {
      std::string name;
      std::string value;
      if (!ParseHeaderLine(lines[i], &name, &value)) {
        error_ = "malformed header line";
        status_ = ParseStatus::kError;
        return status_;
      }
      request_.headers[name] = value;
    }
    auto cl = ContentLength(request_.headers);
    if (!cl) {
      error_ = "bad content-length";
      status_ = ParseStatus::kError;
      return status_;
    }
    body_needed_ = *cl;
    have_headers_ = true;
    buf_.erase(0, end + 4);
  }
  if (buf_.size() == body_needed_) {
    request_.body = TakeBuffer(&buf_);
    status_ = ParseStatus::kComplete;
  } else if (buf_.size() > body_needed_) {
    // Pipelined bytes follow the body; they stay buffered for the next message.
    request_.body = buf_.substr(0, body_needed_);
    buf_.erase(0, body_needed_);
    status_ = ParseStatus::kComplete;
  } else {
    status_ = ParseStatus::kNeedMore;
  }
  return status_;
}

Request RequestParser::TakeRequest() {
  Request out = std::move(request_);
  request_ = Request{};
  have_headers_ = false;
  body_needed_ = 0;
  status_ = ParseStatus::kNeedMore;
  if (!buf_.empty()) {
    Advance();  // Pipelined request may already be complete.
  }
  return out;
}

ParseStatus ResponseParser::Feed(net::Payload bytes) {
  if (status_ == ParseStatus::kError) {
    return status_;
  }
  if (status_ == ParseStatus::kComplete) {
    if (!bytes.empty()) {
      pending_.push_back(std::move(bytes));
    }
    return status_;
  }
  if (!have_headers_) {
    const std::size_t end = HeadEnd(head_, bytes.view());
    head_.append(bytes.view().substr(0, end));
    if (end == std::string_view::npos) {
      return status_;
    }
    bytes = bytes.substr(end);
    if (!ParseHead()) {
      status_ = ParseStatus::kError;
      return status_;
    }
    have_headers_ = true;
  }
  const std::size_t take = std::min(bytes.size(), body_needed_ - body_bytes_);
  if (take > 0) {
    const net::Payload piece = bytes.substr(0, take);
    if (body_.empty() || !body_.back().Extend(piece)) {
      body_.push_back(piece);
    }
    body_bytes_ += take;
  }
  if (body_bytes_ < body_needed_) {
    return status_;
  }
  response_.body.reserve(body_bytes_);
  for (const net::Payload& piece : body_) {
    response_.body.append(piece.view());
  }
  body_.clear();
  body_bytes_ = 0;
  if (take < bytes.size()) {
    pending_.push_back(bytes.substr(take));
  }
  status_ = ParseStatus::kComplete;
  return status_;
}

bool ResponseParser::ParseHead() {
  auto lines = SplitLines(std::string_view(head_).substr(0, head_.size() - 4));
  if (lines.empty()) {
    error_ = "empty response";
    return false;
  }
  // Status line: VERSION SP CODE SP REASON.
  std::string_view sl = lines[0];
  std::size_t sp1 = sl.find(' ');
  if (sp1 == std::string_view::npos) {
    error_ = "malformed status line";
    return false;
  }
  std::size_t sp2 = sl.find(' ', sp1 + 1);
  response_ = Response{};
  response_.version = std::string(sl.substr(0, sp1));
  std::string_view code = sp2 == std::string_view::npos ? sl.substr(sp1 + 1)
                                                        : sl.substr(sp1 + 1, sp2 - sp1 - 1);
  int status_code = 0;
  auto [p, ec] = std::from_chars(code.data(), code.data() + code.size(), status_code);
  if (ec != std::errc() || p != code.data() + code.size()) {
    error_ = "malformed status code";
    return false;
  }
  response_.status = status_code;
  if (sp2 != std::string_view::npos) {
    response_.reason = std::string(sl.substr(sp2 + 1));
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string name;
    std::string value;
    if (!ParseHeaderLine(lines[i], &name, &value)) {
      error_ = "malformed header line";
      return false;
    }
    response_.headers[name] = value;
  }
  auto cl = ContentLength(response_.headers);
  if (!cl) {
    error_ = "bad content-length";
    return false;
  }
  body_needed_ = *cl;
  return true;
}

Response ResponseParser::TakeResponse() {
  Response out = std::move(response_);
  response_ = Response{};
  head_.clear();
  have_headers_ = false;
  body_needed_ = 0;
  status_ = ParseStatus::kNeedMore;
  // A pipelined response may already be complete.
  std::vector<net::Payload> pending = std::move(pending_);
  pending_.clear();
  for (net::Payload& piece : pending) {
    Feed(std::move(piece));
  }
  return out;
}

}  // namespace http
