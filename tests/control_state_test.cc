// ControlState tests: epoch monotonicity, changelog records, desired-pool
// semantics (all-to-all vs assigned), instance scrubbing, and the flight-
// recorder mirror that makes the changelog replayable from a trace.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/control_state.h"
#include "src/sim/simulator.h"

namespace yoda {
namespace {

std::vector<rules::Rule> OneRule() {
  rules::Rule r;
  r.name = "r0";
  return {r};
}

TEST(ControlStateTest, EveryMutationBumpsTheEpochOnce) {
  sim::Simulator sim;
  ControlState state(&sim);
  EXPECT_EQ(state.epoch(), 0u);
  const net::IpAddr vip = net::MakeIp(10, 200, 0, 1);

  EXPECT_EQ(state.DefineVip(vip, 80, OneRule()), 1u);
  EXPECT_EQ(state.UpdateRules(vip, OneRule()), 2u);
  EXPECT_EQ(state.SetAssignments({{vip, {net::MakeIp(10, 1, 0, 1)}}}), 3u);
  EXPECT_EQ(state.NoteInstance(ChangeKind::kInstanceAdmitted, net::MakeIp(10, 1, 0, 2)), 4u);
  EXPECT_EQ(state.RemoveVip(vip), 5u);
  // Updating rules for an unknown VIP mutates nothing.
  EXPECT_EQ(state.UpdateRules(vip, OneRule()), 5u);
  EXPECT_EQ(state.changelog().size(), 5u);
}

TEST(ControlStateTest, DesiredPoolDistinguishesAllToAllFromAssigned) {
  sim::Simulator sim;
  ControlState state(&sim);
  const net::IpAddr vip = net::MakeIp(10, 200, 0, 1);
  const net::IpAddr a = net::MakeIp(10, 1, 0, 1);
  const net::IpAddr b = net::MakeIp(10, 1, 0, 2);
  state.DefineVip(vip, 80, OneRule());

  // Bootstrap: no assignment entry = all-to-all = contains every instance.
  EXPECT_EQ(state.DesiredPool(vip), nullptr);
  EXPECT_TRUE(state.PoolContains(vip, a));
  EXPECT_TRUE(state.PoolContains(vip, b));

  state.SetAssignments({{vip, {a}}});
  ASSERT_NE(state.DesiredPool(vip), nullptr);
  EXPECT_EQ(*state.DesiredPool(vip), (std::vector<net::IpAddr>{a}));
  EXPECT_TRUE(state.PoolContains(vip, a));
  EXPECT_FALSE(state.PoolContains(vip, b));

  state.RemoveVip(vip);
  EXPECT_FALSE(state.HasVip(vip));
  EXPECT_EQ(state.DesiredPool(vip), nullptr);
}

TEST(ControlStateTest, ScrubInstanceShrinksEveryPoolAndBumpsOnce) {
  sim::Simulator sim;
  ControlState state(&sim);
  const net::IpAddr vip1 = net::MakeIp(10, 200, 0, 1);
  const net::IpAddr vip2 = net::MakeIp(10, 200, 0, 2);
  const net::IpAddr dead = net::MakeIp(10, 1, 0, 1);
  const net::IpAddr ok = net::MakeIp(10, 1, 0, 2);
  state.DefineVip(vip1, 80, OneRule());
  state.DefineVip(vip2, 80, OneRule());
  state.SetAssignments({{vip1, {dead, ok}}, {vip2, {ok}}});
  const std::uint64_t before = state.epoch();

  const std::vector<net::IpAddr> affected = state.ScrubInstance(dead);
  EXPECT_EQ(affected, (std::vector<net::IpAddr>{vip1}));
  EXPECT_EQ(state.epoch(), before + 1);
  EXPECT_EQ(*state.DesiredPool(vip1), (std::vector<net::IpAddr>{ok}));
  EXPECT_EQ(*state.DesiredPool(vip2), (std::vector<net::IpAddr>{ok}));

  // Scrubbing an instance in no pool changes nothing.
  EXPECT_TRUE(state.ScrubInstance(dead).empty());
  EXPECT_EQ(state.epoch(), before + 1);
}

TEST(ControlStateTest, ChangelogMirrorsIntoFlightRecorder) {
  sim::Simulator sim;
  ControlState state(&sim);
  const net::IpAddr vip = net::MakeIp(10, 200, 0, 1);
  state.DefineVip(vip, 80, OneRule());
  state.SetAssignments({{vip, {net::MakeIp(10, 1, 0, 1)}}});

  const auto& events = sim.recorder().system_events();
  ASSERT_EQ(events.size(), 2u);
  for (const obs::TraceEvent& e : events) {
    EXPECT_EQ(e.type, obs::EventType::kConfigChange);
  }
  // detail packs (kind << 32) | epoch, so the changelog can be rebuilt from
  // a trace alone (tools/ctl_dump does exactly this).
  EXPECT_EQ(events[0].detail >> 32,
            static_cast<std::uint64_t>(ChangeKind::kVipDefined));
  EXPECT_EQ(events[0].detail & 0xffffffffULL, 1u);
  EXPECT_EQ(events[1].detail >> 32,
            static_cast<std::uint64_t>(ChangeKind::kAssignmentSet));
  EXPECT_EQ(events[1].detail & 0xffffffffULL, 2u);

  const auto& log = state.changelog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, ChangeKind::kVipDefined);
  EXPECT_EQ(log[0].epoch, 1u);
  EXPECT_EQ(log[1].kind, ChangeKind::kAssignmentSet);
  EXPECT_EQ(log[1].subject, vip);
}

}  // namespace
}  // namespace yoda
