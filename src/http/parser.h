// Incremental HTTP parsers.
//
// Bytes arrive from TCP in arbitrary segment boundaries; these parsers
// accumulate until a full message (headers + Content-Length body) is
// available, then surface it. They also expose `HaveHeaders()` early, which
// is what a Yoda instance needs: the backend is selected as soon as the
// request *header* is complete, before any body arrives.
//
// The response parser is fed the receiver's segment slices. It copies only
// header bytes; the body stays in the slices it arrived in, sharing the
// sender's buffers, until it is complete and joined once into
// Response::body. A client with many responses in flight therefore holds no
// copy of their bodies.

#ifndef SRC_HTTP_PARSER_H_
#define SRC_HTTP_PARSER_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/http/message.h"
#include "src/net/payload.h"

namespace http {

enum class ParseStatus {
  kNeedMore,   // Incomplete; feed more bytes.
  kComplete,   // A full message is ready via Take*().
  kError,      // Malformed input.
};

class RequestParser {
 public:
  // Appends bytes and attempts to advance. Returns the current status.
  ParseStatus Feed(std::string_view bytes);

  // True once the request line + headers have been fully received.
  bool HaveHeaders() const { return have_headers_; }

  // Valid once HaveHeaders(); body may still be incomplete.
  const Request& request() const { return request_; }

  // Once kComplete, removes and returns the parsed request, retaining any
  // pipelined bytes that followed it; the parser is then ready for the next
  // request on the same connection.
  Request TakeRequest();

  // Current status without feeding more data.
  ParseStatus status() const { return status_; }

  const std::string& error() const { return error_; }

 private:
  ParseStatus Advance();

  std::string buf_;
  Request request_;
  bool have_headers_ = false;
  std::size_t body_needed_ = 0;
  ParseStatus status_ = ParseStatus::kNeedMore;
  std::string error_;
};

class ResponseParser {
 public:
  // Consumes `bytes` into the response being parsed. Bytes that follow a
  // complete response stay pending, as slices, until TakeResponse.
  ParseStatus Feed(net::Payload bytes);
  bool HaveHeaders() const { return have_headers_; }
  const Response& response() const { return response_; }
  Response TakeResponse();
  ParseStatus status() const { return status_; }
  const std::string& error() const { return error_; }

 private:
  // Parses head_ (status line and headers); false on malformed input.
  bool ParseHead();

  std::string head_;                // Header bytes of the response being parsed.
  std::vector<net::Payload> body_;  // Its body bytes so far, as received.
  std::size_t body_bytes_ = 0;
  std::vector<net::Payload> pending_;  // Bytes after a complete response.
  Response response_;
  bool have_headers_ = false;
  std::size_t body_needed_ = 0;
  ParseStatus status_ = ParseStatus::kNeedMore;
  std::string error_;
};

}  // namespace http

#endif  // SRC_HTTP_PARSER_H_
