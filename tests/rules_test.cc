// Rule engine tests: glob matching, rule parsing, priority scan semantics,
// and the Table 3 policy compilers.

#include <gtest/gtest.h>

#include "src/rules/policy.h"
#include "src/rules/rule.h"
#include "src/rules/rule_table.h"

namespace rules {
namespace {

http::Request Req(const std::string& url) { return http::MakeGet(url, "mysite.com"); }

// ---------------------------------------------------------------------------
// GlobMatch (parameterized truth table).
// ---------------------------------------------------------------------------

struct GlobCase {
  const char* name;
  const char* pattern;
  const char* text;
  bool expect;
};

// Without this gtest prints the raw bytes of the case, pointers included, so
// the test names that ctest discovers would change with every load address.
void PrintTo(const GlobCase& c, std::ostream* os) { *os << c.name; }

class GlobMatchTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatchTest, Matches) {
  const GlobCase& c = GetParam();
  EXPECT_EQ(GlobMatch(c.pattern, c.text), c.expect)
      << "pattern=" << c.pattern << " text=" << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Table, GlobMatchTest,
    ::testing::Values(GlobCase{"suffix_match", "*.jpg", "/images/cat.jpg", true},
                      GlobCase{"suffix_mismatch", "*.jpg", "/images/cat.jpeg", false},
                      GlobCase{"star_matches_empty_prefix", "*.jpg", ".jpg", true},
                      GlobCase{"star_matches_empty", "*", "", true},
                      GlobCase{"star_matches_any", "*", "anything", true},
                      GlobCase{"empty_matches_empty", "", "", true},
                      GlobCase{"empty_rejects_text", "", "x", false},
                      GlobCase{"literal_equal", "abc", "abc", true},
                      GlobCase{"literal_differs", "abc", "abd", false},
                      GlobCase{"question_matches_one_char", "a?c", "abc", true},
                      GlobCase{"question_needs_a_char", "a?c", "ac", false},
                      GlobCase{"prefix_match", "/news/*", "/news/today", true},
                      GlobCase{"prefix_mismatch", "/news/*", "/sports/today", false},
                      GlobCase{"infix_match", "*news*", "/a/news/b", true},
                      GlobCase{"css_suffix", "*.css", "/styles/site.css", true},
                      GlobCase{"double_star", "**", "whatever", true},
                      GlobCase{"stars_in_order", "a*b*c", "aXXbYYc", true},
                      GlobCase{"stars_out_of_order", "a*b*c", "aXXcYYb", false},
                      GlobCase{"php_suffix", "*.php", "/index.php", true},
                      GlobCase{"language_prefix", "en-*", "en-GB", true}));

// ---------------------------------------------------------------------------
// Match.
// ---------------------------------------------------------------------------

TEST(Match, UrlGlob) {
  Match m;
  m.url_glob = "*.jpg";
  EXPECT_TRUE(m.Matches(Req("/x.jpg")));
  EXPECT_FALSE(m.Matches(Req("/x.css")));
}

TEST(Match, EmptyMatchIsWildcard) {
  Match m;
  EXPECT_TRUE(m.Matches(Req("/anything")));
}

TEST(Match, HostGlob) {
  Match m;
  m.host_glob = "*.mysite.com";
  http::Request r = http::MakeGet("/", "cdn.mysite.com");
  EXPECT_TRUE(m.Matches(r));
  http::Request r2 = http::MakeGet("/", "other.org");
  EXPECT_FALSE(m.Matches(r2));
}

TEST(Match, Method) {
  Match m;
  m.method = "POST";
  http::Request r = Req("/");
  EXPECT_FALSE(m.Matches(r));
  r.method = "POST";
  EXPECT_TRUE(m.Matches(r));
}

TEST(Match, CookiePresenceAndValue) {
  Match m;
  m.cookie_name = "session";
  http::Request r = Req("/");
  EXPECT_FALSE(m.Matches(r));
  r.SetHeader("cookie", "session=abc");
  EXPECT_TRUE(m.Matches(r));
  m.cookie_value_glob = "x*";
  EXPECT_FALSE(m.Matches(r));
  m.cookie_value_glob = "a*";
  EXPECT_TRUE(m.Matches(r));
}

TEST(Match, HeaderValueGlob) {
  Match m;
  m.header_name = "accept-language";
  m.header_value_glob = "en-GB*";
  http::Request r = Req("/");
  EXPECT_FALSE(m.Matches(r));
  r.SetHeader("Accept-Language", "en-GB,en;q=0.9");
  EXPECT_TRUE(m.Matches(r));
}

TEST(Match, ConjunctionOfFields) {
  Match m;
  m.url_glob = "*.php";
  m.method = "GET";
  http::Request r = Req("/a.php");
  EXPECT_TRUE(m.Matches(r));
  m.method = "PUT";
  EXPECT_FALSE(m.Matches(r));
}

// ---------------------------------------------------------------------------
// ParseRule.
// ---------------------------------------------------------------------------

TEST(ParseRule, WeightedSplit) {
  std::string err;
  auto r = ParseRule("name=r-jpg priority=3 url=*.jpg split=10.0.2.1:0.5,10.0.3.1:0.5", &err);
  ASSERT_TRUE(r.has_value()) << err;
  EXPECT_EQ(r->name, "r-jpg");
  EXPECT_EQ(r->priority, 3);
  EXPECT_EQ(r->match.url_glob, "*.jpg");
  ASSERT_EQ(r->action.backends.size(), 2u);
  EXPECT_EQ(r->action.backends[0].ip, net::MakeIp(10, 0, 2, 1));
  EXPECT_DOUBLE_EQ(r->action.backends[0].weight, 0.5);
}

TEST(ParseRule, DefaultWeightIsOne) {
  auto r = ParseRule("name=r split=10.0.0.1");
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->action.backends[0].weight, 1.0);
}

TEST(ParseRule, StickyTable) {
  auto r = ParseRule("name=r-cookie priority=0 cookie=session table=session");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->action.type, ActionType::kStickyTable);
  EXPECT_EQ(r->action.sticky_cookie, "session");
  EXPECT_EQ(r->match.cookie_name, "session");
}

TEST(ParseRule, LeastLoaded) {
  auto r = ParseRule("name=r-least url=/api/* least=10.0.2.1,10.0.2.2");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->action.type, ActionType::kLeastLoaded);
  EXPECT_EQ(r->action.backends.size(), 2u);
}

TEST(ParseRule, Mirror) {
  auto r = ParseRule("name=r-mirror url=/api/* mirror=10.0.2.1,10.0.2.2");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->action.type, ActionType::kMirror);
  EXPECT_EQ(r->action.backends.size(), 2u);
}

TEST(ParseRule, RejectsMalformed) {
  std::string err;
  EXPECT_FALSE(ParseRule("priority=1 split=10.0.0.1", &err).has_value());  // No name.
  EXPECT_FALSE(ParseRule("name=r", &err).has_value());                     // No action.
  EXPECT_FALSE(ParseRule("name=r split=999.0.0.1", &err).has_value());     // Bad IP.
  EXPECT_FALSE(ParseRule("name=r priority=abc split=10.0.0.1", &err).has_value());
  EXPECT_FALSE(ParseRule("name=r bogus=1 split=10.0.0.1", &err).has_value());
  EXPECT_FALSE(ParseRule("name=r noequals split=10.0.0.1", &err).has_value());
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// RuleTable.
// ---------------------------------------------------------------------------

Backend B(int last, double weight = 1.0) {
  return Backend{net::MakeIp(10, 0, 2, static_cast<std::uint8_t>(last)), 80, weight};
}

Rule SplitRule(const std::string& name, int priority, const std::string& glob,
               std::vector<Backend> backends) {
  Rule r;
  r.name = name;
  r.priority = priority;
  r.match.url_glob = glob;
  r.action.type = ActionType::kWeightedSplit;
  r.action.backends = std::move(backends);
  return r;
}

class RuleTableTest : public ::testing::Test {
 protected:
  RuleTable table;
  sim::Rng rng{11};
  SelectionContext Ctx() {
    SelectionContext ctx;
    ctx.rng = &rng;
    ctx.sticky = &sticky_;
    return ctx;
  }
  StickyTable sticky_;
};

TEST_F(RuleTableTest, FirstMatchWinsInPriorityOrder) {
  table.Add(SplitRule("low", 1, "*", {B(1)}));
  table.Add(SplitRule("high", 5, "*.jpg", {B(2)}));
  auto sel = table.Select(Req("/a.jpg"), Ctx());
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->rule_name, "high");
  EXPECT_EQ(sel->backend, B(2));
  auto sel2 = table.Select(Req("/a.css"), Ctx());
  ASSERT_TRUE(sel2.has_value());
  EXPECT_EQ(sel2->rule_name, "low");
}

TEST_F(RuleTableTest, EqualPriorityPreservesInsertionOrder) {
  table.Add(SplitRule("first", 3, "*", {B(1)}));
  table.Add(SplitRule("second", 3, "*", {B(2)}));
  auto sel = table.Select(Req("/"), Ctx());
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->rule_name, "first");
}

TEST_F(RuleTableTest, RulesScannedCountsLinearScan) {
  for (int i = 0; i < 50; ++i) {
    table.Add(SplitRule("r" + std::to_string(i), 100 - i, "/never/*", {B(1)}));
  }
  table.Add(SplitRule("last", 0, "*", {B(2)}));
  auto sel = table.Select(Req("/x"), Ctx());
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->rules_scanned, 51);
}

TEST_F(RuleTableTest, NoMatchReturnsNullopt) {
  table.Add(SplitRule("r", 1, "*.jpg", {B(1)}));
  EXPECT_FALSE(table.Select(Req("/a.css"), Ctx()).has_value());
}

TEST_F(RuleTableTest, WeightedSplitFollowsWeights) {
  table.Add(SplitRule("r", 1, "*", {B(1, 1.0), B(2, 3.0)}));
  int count_b2 = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    auto sel = table.Select(Req("/"), Ctx());
    ASSERT_TRUE(sel.has_value());
    if (sel->backend == B(2)) {
      ++count_b2;
    }
  }
  EXPECT_NEAR(static_cast<double>(count_b2) / n, 0.75, 0.02);
}

TEST_F(RuleTableTest, ZeroWeightBackendNeverChosen) {
  table.Add(SplitRule("r", 1, "*", {B(1, 0.0), B(2, 1.0)}));
  for (int i = 0; i < 100; ++i) {
    auto sel = table.Select(Req("/"), Ctx());
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(sel->backend, B(2));
  }
}

TEST_F(RuleTableTest, UnhealthyBackendsSkipped) {
  table.Add(SplitRule("r", 1, "*", {B(1), B(2)}));
  SelectionContext ctx = Ctx();
  ctx.is_healthy = [](const Backend& b) { return b.ip != net::MakeIp(10, 0, 2, 1); };
  for (int i = 0; i < 50; ++i) {
    auto sel = table.Select(Req("/"), ctx);
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(sel->backend, B(2));
  }
}

TEST_F(RuleTableTest, PrimaryBackupFallsThroughOnPrimaryFailure) {
  // Same match at two priorities (Table 3 rules 2-3).
  table.Add(SplitRule("primary", 3, "*.css", {B(1)}));
  table.Add(SplitRule("backup", 2, "*.css", {B(3), B(4)}));
  auto sel = table.Select(Req("/s.css"), Ctx());
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->rule_name, "primary");
  SelectionContext ctx = Ctx();
  ctx.is_healthy = [](const Backend& b) { return b.ip != net::MakeIp(10, 0, 2, 1); };
  auto sel2 = table.Select(Req("/s.css"), ctx);
  ASSERT_TRUE(sel2.has_value());
  EXPECT_EQ(sel2->rule_name, "backup");
}

TEST_F(RuleTableTest, StickyTableRoutesBoundSessions) {
  Rule sticky_rule;
  sticky_rule.name = "sticky";
  sticky_rule.priority = 5;
  sticky_rule.match.cookie_name = "sid";
  sticky_rule.action.type = ActionType::kStickyTable;
  sticky_rule.action.sticky_cookie = "sid";
  table.Add(sticky_rule);
  table.Add(SplitRule("fallback", 1, "*", {B(1), B(2)}));

  http::Request r = Req("/");
  r.SetHeader("cookie", "sid=user42");
  // Unbound: falls through to the split.
  auto first = table.Select(r, Ctx());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->rule_name, "fallback");
  sticky_.Bind("user42", first->backend);
  // Bound: the sticky rule wins and returns the same backend.
  for (int i = 0; i < 10; ++i) {
    auto again = table.Select(r, Ctx());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->rule_name, "sticky");
    EXPECT_EQ(again->backend, first->backend);
  }
}

TEST_F(RuleTableTest, StickyIgnoredWithoutTable) {
  Rule sticky_rule;
  sticky_rule.name = "sticky";
  sticky_rule.priority = 5;
  sticky_rule.action.type = ActionType::kStickyTable;
  sticky_rule.action.sticky_cookie = "sid";
  table.Add(sticky_rule);
  SelectionContext ctx;
  ctx.rng = &rng;
  ctx.sticky = nullptr;
  http::Request r = Req("/");
  r.SetHeader("cookie", "sid=z");
  EXPECT_FALSE(table.Select(r, ctx).has_value());
}

TEST_F(RuleTableTest, LeastLoadedPicksColdestBackend) {
  Rule r;
  r.name = "least";
  r.priority = 1;
  r.action.type = ActionType::kLeastLoaded;
  r.action.backends = {B(1), B(2), B(3)};
  table.Add(r);
  SelectionContext ctx = Ctx();
  std::map<std::uint32_t, int> loads{{B(1).ip, 5}, {B(2).ip, 1}, {B(3).ip, 9}};
  ctx.load_of = [&loads](const Backend& b) { return loads[b.ip]; };
  auto sel = table.Select(Req("/"), ctx);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->backend, B(2));
}

TEST_F(RuleTableTest, MirrorSelectionListsSecondaryBackends) {
  Rule r;
  r.name = "mirror";
  r.priority = 1;
  r.action.type = ActionType::kMirror;
  r.action.backends = {B(1), B(2), B(3)};
  table.Add(r);
  auto sel = table.Select(Req("/"), Ctx());
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->backend, B(1));  // First healthy backend is primary.
  ASSERT_EQ(sel->mirrors.size(), 2u);
  EXPECT_EQ(sel->mirrors[0], B(2));
  EXPECT_EQ(sel->mirrors[1], B(3));
}

TEST_F(RuleTableTest, MirrorSkipsUnhealthyBackends) {
  Rule r;
  r.name = "mirror";
  r.priority = 1;
  r.action.type = ActionType::kMirror;
  r.action.backends = {B(1), B(2), B(3)};
  table.Add(r);
  SelectionContext ctx = Ctx();
  ctx.is_healthy = [](const Backend& b) { return b.ip != net::MakeIp(10, 0, 2, 1); };
  auto sel = table.Select(Req("/"), ctx);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->backend, B(2));
  ASSERT_EQ(sel->mirrors.size(), 1u);
  EXPECT_EQ(sel->mirrors[0], B(3));
}

TEST_F(RuleTableTest, RemoveByNameRemovesAllInstances) {
  table.Add(SplitRule("dup", 1, "*", {B(1)}));
  table.Add(SplitRule("dup", 2, "*", {B(2)}));
  table.Add(SplitRule("keep", 3, "*", {B(3)}));
  EXPECT_EQ(table.Remove("dup"), 2);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.rules()[0].name, "keep");
}

TEST_F(RuleTableTest, ReplaceAllReordersByPriority) {
  std::vector<Rule> rs{SplitRule("a", 1, "*", {B(1)}), SplitRule("b", 9, "*", {B(2)}),
                       SplitRule("c", 5, "*", {B(3)})};
  table.ReplaceAll(rs);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.rules()[0].name, "b");
  EXPECT_EQ(table.rules()[1].name, "c");
  EXPECT_EQ(table.rules()[2].name, "a");
}

// ---------------------------------------------------------------------------
// Policy compilers.
// ---------------------------------------------------------------------------

TEST(Policy, WeightedSplitCompiles) {
  WeightedSplitPolicy p;
  p.name = "w";
  p.backends = {B(1, 2.0), B(2, 1.0)};
  auto rs = Compile(p);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].action.type, ActionType::kWeightedSplit);
  EXPECT_EQ(rs[0].action.backends.size(), 2u);
}

TEST(Policy, PrimaryBackupCompilesToTwoPriorities) {
  PrimaryBackupPolicy p;
  p.name = "pb";
  p.priority = 7;
  p.primaries = {B(1)};
  p.backups = {B(2), B(3)};
  auto rs = Compile(p);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].priority, 7);
  EXPECT_EQ(rs[1].priority, 6);
  EXPECT_EQ(rs[0].name, "pb-primary");
  EXPECT_EQ(rs[1].name, "pb-backup");
}

TEST(Policy, StickySessionCompilesStickyAboveFallback) {
  StickySessionPolicy p;
  p.name = "ss";
  p.priority = 2;
  p.cookie = "sid";
  p.fallback = {B(1)};
  auto rs = Compile(p);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].action.type, ActionType::kStickyTable);
  EXPECT_GT(rs[0].priority, rs[1].priority);
  EXPECT_EQ(rs[0].match.cookie_name, "sid");
}

TEST(Policy, LeastLoadedCompiles) {
  LeastLoadedPolicy p;
  p.name = "ll";
  p.backends = {B(1), B(2)};
  auto rs = Compile(p);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].action.type, ActionType::kLeastLoaded);
}

TEST(RuleToString, HumanReadable) {
  auto r = ParseRule("name=r priority=3 url=*.jpg split=10.0.2.1:0.5");
  ASSERT_TRUE(r.has_value());
  const std::string s = r->ToString();
  EXPECT_NE(s.find("r prio=3"), std::string::npos);
  EXPECT_NE(s.find("*.jpg"), std::string::npos);
}

}  // namespace
}  // namespace rules
