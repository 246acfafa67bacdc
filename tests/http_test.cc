// HTTP message and incremental-parser tests.

#include <gtest/gtest.h>

#include "src/http/message.h"
#include "src/http/parser.h"

namespace http {
namespace {

TEST(Message, SerializeRequestIncludesHostAndBody) {
  Request r = MakeGet("/index.html", "mysite.com");
  r.body = "payload";
  std::string wire = r.Serialize();
  EXPECT_NE(wire.find("GET /index.html HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("host: mysite.com\r\n"), std::string::npos);
  EXPECT_NE(wire.find("content-length: 7\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 7), "payload");
}

TEST(Message, HeaderLookupIsCaseInsensitive) {
  Request r;
  r.SetHeader("X-Custom-Header", "v1");
  EXPECT_EQ(r.Header("x-custom-header"), "v1");
  EXPECT_EQ(r.Header("X-CUSTOM-HEADER"), "v1");
  EXPECT_FALSE(r.Header("missing").has_value());
}

TEST(Message, CookieParsing) {
  Request r;
  r.SetHeader("cookie", "session=abc123; lang=en-GB;  theme=dark");
  auto cookies = r.Cookies();
  EXPECT_EQ(cookies["session"], "abc123");
  EXPECT_EQ(cookies["lang"], "en-GB");
  EXPECT_EQ(cookies["theme"], "dark");
  EXPECT_EQ(cookies.size(), 3u);
}

TEST(Message, CookiesAbsentWhenNoHeader) {
  Request r;
  EXPECT_TRUE(r.Cookies().empty());
}

TEST(Message, KeepAliveDefaults) {
  Request r11 = MakeGet("/", "h", "HTTP/1.1");
  EXPECT_TRUE(r11.KeepAlive());
  Request r10 = MakeGet("/", "h", "HTTP/1.0");
  EXPECT_FALSE(r10.KeepAlive());
  r10.SetHeader("connection", "keep-alive");
  EXPECT_TRUE(r10.KeepAlive());
  r11.SetHeader("connection", "close");
  EXPECT_FALSE(r11.KeepAlive());
}

TEST(Message, ResponseSerializeAndFactories) {
  Response ok = MakeOk("hello");
  std::string wire = ok.Serialize();
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("content-length: 5\r\n"), std::string::npos);
  Response nf = MakeNotFound();
  EXPECT_EQ(nf.status, 404);
}

TEST(RequestParser, ParsesCompleteRequestAtOnce) {
  RequestParser p;
  ASSERT_EQ(p.Feed("GET /a.jpg HTTP/1.0\r\nHost: x.com\r\n\r\n"), ParseStatus::kComplete);
  Request r = p.TakeRequest();
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.url, "/a.jpg");
  EXPECT_EQ(r.version, "HTTP/1.0");
  EXPECT_EQ(r.Header("host"), "x.com");
}

TEST(RequestParser, ByteAtATime) {
  RequestParser p;
  const std::string wire = "POST /form HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(p.Feed(std::string_view(&wire[i], 1)), ParseStatus::kNeedMore) << i;
  }
  ASSERT_EQ(p.Feed(std::string_view(&wire.back(), 1)), ParseStatus::kComplete);
  Request r = p.TakeRequest();
  EXPECT_EQ(r.method, "POST");
  EXPECT_EQ(r.body, "abcd");
}

TEST(RequestParser, HaveHeadersBeforeBody) {
  RequestParser p;
  p.Feed("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
  EXPECT_TRUE(p.HaveHeaders());
  EXPECT_EQ(p.status(), ParseStatus::kNeedMore);
  EXPECT_EQ(p.request().url, "/x");
  p.Feed("defghij");
  EXPECT_EQ(p.status(), ParseStatus::kComplete);
}

TEST(RequestParser, PipelinedRequestsQueue) {
  RequestParser p;
  ASSERT_EQ(p.Feed("GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n"), ParseStatus::kComplete);
  Request first = p.TakeRequest();
  EXPECT_EQ(first.url, "/1");
  EXPECT_EQ(p.status(), ParseStatus::kComplete);  // Second is already parsed.
  Request second = p.TakeRequest();
  EXPECT_EQ(second.url, "/2");
  EXPECT_EQ(p.status(), ParseStatus::kNeedMore);
}

TEST(RequestParser, MalformedRequestLine) {
  RequestParser p;
  EXPECT_EQ(p.Feed("BROKEN\r\n\r\n"), ParseStatus::kError);
  EXPECT_FALSE(p.error().empty());
}

TEST(RequestParser, MalformedHeaderLine) {
  RequestParser p;
  EXPECT_EQ(p.Feed("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"), ParseStatus::kError);
}

TEST(RequestParser, BadContentLength) {
  RequestParser p;
  EXPECT_EQ(p.Feed("GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"), ParseStatus::kError);
}

TEST(RequestParser, ErrorStateIsSticky) {
  RequestParser p;
  p.Feed("BROKEN\r\n\r\n");
  EXPECT_EQ(p.Feed("GET / HTTP/1.1\r\n\r\n"), ParseStatus::kError);
}

TEST(ResponseParser, ParsesResponseWithBody) {
  ResponseParser p;
  ASSERT_EQ(p.Feed("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"),
            ParseStatus::kComplete);
  Response r = p.TakeResponse();
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.reason, "OK");
  EXPECT_EQ(r.body, "hello");
}

TEST(ResponseParser, SplitAcrossSegments) {
  ResponseParser p;
  EXPECT_EQ(p.Feed("HTTP/1.0 404 Not"), ParseStatus::kNeedMore);
  EXPECT_EQ(p.Feed(" Found\r\nContent-Len"), ParseStatus::kNeedMore);
  EXPECT_EQ(p.Feed("gth: 3\r\n\r\nab"), ParseStatus::kNeedMore);
  EXPECT_EQ(p.Feed("c"), ParseStatus::kComplete);
  Response r = p.TakeResponse();
  EXPECT_EQ(r.status, 404);
  EXPECT_EQ(r.reason, "Not Found");
  EXPECT_EQ(r.body, "abc");
}

// Keep-alive pipelining: bytes of the next response follow the first body
// in one Feed, so they stay pending until the first response is taken.
TEST(ResponseParser, PipelinedResponsesQueue) {
  ResponseParser p;
  ASSERT_EQ(p.Feed("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"
                   "HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nxy"),
            ParseStatus::kComplete);
  Response first = p.TakeResponse();
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body, "abc");
  EXPECT_EQ(p.status(), ParseStatus::kComplete);  // Second is already parsed.
  Response second = p.TakeResponse();
  EXPECT_EQ(second.status, 404);
  EXPECT_EQ(second.body, "xy");
  EXPECT_EQ(p.status(), ParseStatus::kNeedMore);

  // A body fed as many pieces, the last of which also carries the start of
  // the next response: once as slices of one buffer, as a TCP receiver
  // delivers a sender's segments, and once as separate buffers.
  const net::Payload wire(
      "HTTP/1.1 200 OK\r\nContent-Length: 26\r\n\r\nabcdefghijklmnopqrstuvwxyz"
      "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n!");
  const std::size_t body_at = wire.find("abc");
  const std::size_t next_at = wire.find("HTTP", body_at);
  for (const bool slices : {true, false}) {
    SCOPED_TRACE(slices ? "slices" : "copies");
    auto piece = [&](std::size_t from, std::size_t to) {
      const net::Payload slice = wire.substr(from, to - from);
      return slices ? slice : net::Payload(slice.str());
    };
    std::size_t from = 0;
    for (const std::size_t to : {body_at - 3, body_at + 1, body_at + 9, body_at + 20}) {
      EXPECT_EQ(p.Feed(piece(from, to)), ParseStatus::kNeedMore);
      from = to;
    }
    ASSERT_EQ(p.Feed(piece(from, next_at + 20)), ParseStatus::kComplete);
    Response third = p.TakeResponse();
    EXPECT_EQ(third.body, "abcdefghijklmnopqrstuvwxyz");
    EXPECT_EQ(p.status(), ParseStatus::kNeedMore);
    ASSERT_EQ(p.Feed(piece(next_at + 20, wire.size())), ParseStatus::kComplete);
    EXPECT_EQ(p.TakeResponse().body, "!");
    EXPECT_EQ(p.status(), ParseStatus::kNeedMore);
  }

  // A zero-length body followed by pipelined bytes.
  ASSERT_EQ(p.Feed("HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n"
                   "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"),
            ParseStatus::kComplete);
  Response empty = p.TakeResponse();
  EXPECT_EQ(empty.status, 204);
  EXPECT_EQ(empty.body, "");
  EXPECT_EQ(p.status(), ParseStatus::kComplete);
  EXPECT_EQ(p.TakeResponse().body, "ok");
  EXPECT_EQ(p.status(), ParseStatus::kNeedMore);
}

// Keep-alive without pipelining: the fed bytes end exactly with the first
// body; the parser must then take the next response.
TEST(ResponseParser, NextResponseAfterBodyMovedOut) {
  ResponseParser p;
  const std::string body(5000, 'b');
  ASSERT_EQ(p.Feed("HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n" + body),
            ParseStatus::kComplete);
  Response first = p.TakeResponse();
  EXPECT_EQ(first.body, body);
  EXPECT_EQ(p.status(), ParseStatus::kNeedMore);
  EXPECT_FALSE(p.HaveHeaders());
  EXPECT_EQ(p.Feed("HTTP/1.1 304 Not Modified\r\nContent-Le"), ParseStatus::kNeedMore);
  EXPECT_EQ(p.Feed("ngth: 4\r\n\r\nnext"), ParseStatus::kComplete);
  Response second = p.TakeResponse();
  EXPECT_EQ(second.status, 304);
  EXPECT_EQ(second.body, "next");
  EXPECT_EQ(first.body, body);
  EXPECT_EQ(p.status(), ParseStatus::kNeedMore);
}

TEST(ResponseParser, MalformedStatusCode) {
  ResponseParser p;
  EXPECT_EQ(p.Feed("HTTP/1.1 two-hundred OK\r\n\r\n"), ParseStatus::kError);
}

TEST(ResponseParser, RoundTripWithSerializer) {
  Response out = MakeOk(std::string(5000, 'b'));
  out.SetHeader("content-type", "image/jpeg");
  ResponseParser p;
  ASSERT_EQ(p.Feed(out.Serialize()), ParseStatus::kComplete);
  Response in = p.TakeResponse();
  EXPECT_EQ(in.status, 200);
  EXPECT_EQ(in.body.size(), 5000u);
  EXPECT_EQ(in.Header("content-type"), "image/jpeg");
}

TEST(RequestParser, RoundTripWithSerializer) {
  Request out = MakeGet("/path/file.css?q=1", "site.org");
  out.SetHeader("accept-language", "en-GB");
  out.SetHeader("cookie", "sid=42");
  RequestParser p;
  ASSERT_EQ(p.Feed(out.Serialize()), ParseStatus::kComplete);
  Request in = p.TakeRequest();
  EXPECT_EQ(in.url, "/path/file.css?q=1");
  EXPECT_EQ(in.Header("accept-language"), "en-GB");
  EXPECT_EQ(in.Cookies()["sid"], "42");
}

// Property: any serialized request round-trips regardless of how the bytes
// are chunked on the wire.
class RequestChunkFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RequestChunkFuzz, ArbitraryChunkingRoundTrips) {
  const int seed = GetParam();
  Request out = MakeGet("/p/" + std::to_string(seed) + "/x.php?q=" + std::to_string(seed * 7),
                        "host" + std::to_string(seed) + ".example");
  out.SetHeader("cookie", "sid=u" + std::to_string(seed));
  out.body = std::string(static_cast<std::size_t>(seed * 13 % 97), 'b');
  const std::string wire = out.Serialize();

  RequestParser parser;
  std::size_t pos = 0;
  std::size_t step = 1 + static_cast<std::size_t>(seed % 7);
  while (pos < wire.size()) {
    const std::size_t n = std::min(step, wire.size() - pos);
    parser.Feed(std::string_view(wire).substr(pos, n));
    pos += n;
    step = step * 3 % 11 + 1;  // Vary chunk sizes deterministically.
  }
  ASSERT_EQ(parser.status(), ParseStatus::kComplete) << "seed " << seed;
  Request in = parser.TakeRequest();
  EXPECT_EQ(in.url, out.url);
  EXPECT_EQ(in.body, out.body);
  EXPECT_EQ(in.Header("host"), out.Header("host"));
  EXPECT_EQ(in.Cookies(), out.Cookies());
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RequestChunkFuzz, ::testing::Range(1, 16));

TEST(ToLower, LowersAscii) {
  EXPECT_EQ(ToLower("AbC-XyZ"), "abc-xyz");
}

}  // namespace
}  // namespace http
