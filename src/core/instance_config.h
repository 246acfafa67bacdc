// YodaInstance configuration, split into its own header so the pipeline
// stage engines can see the data-plane knobs without including the instance
// (which is wiring on top of them).

#ifndef SRC_CORE_INSTANCE_CONFIG_H_
#define SRC_CORE_INSTANCE_CONFIG_H_

#include <cstdint>

#include "src/core/cpu_model.h"
#include "src/net/packet.h"
#include "src/sim/time.h"

namespace yoda {

struct YodaInstanceConfig {
  net::IpAddr ip = 0;
  CpuCosts cpu_costs = YodaUserSpaceCosts();
  double cores = 1.0;
  // Base latency of the rule scan (Fig 6 intercept); per-rule cost is in
  // CpuCosts::per_rule_scanned via the latency model below.
  sim::Duration rule_scan_base_delay = sim::Usec(300);
  sim::Duration rule_scan_per_rule_delay = sim::Nsec(900);
  // How long after both FINs a flow's state lingers before deletion.
  sim::Duration flow_cleanup_delay = sim::Sec(1);
  // Flows with no packets for this long are garbage-collected (handles
  // half-closed flows orphaned by takeovers that split the two directions
  // across instances). 0 disables.
  sim::Duration flow_idle_timeout = sim::Minutes(5);
  sim::Duration idle_scan_interval = sim::Sec(30);
  // Resend the server-side SYN if no SYN-ACK within this long.
  sim::Duration server_syn_timeout = sim::Sec(3);
  int server_syn_retries = 2;
  // A TCPStore miss during takeover is treated as recoverable (the replica
  // may be lagging or mid-restart): the lookup is re-issued up to this many
  // times with doubling backoff. Only after the final miss is the flow
  // explicitly reset toward the client (kFlowReset/kTakeoverMiss) instead of
  // silently dropped. 0 restores the drop-on-first-miss behavior.
  int takeover_retry_limit = 2;
  sim::Duration takeover_retry_backoff = sim::Msec(5);
  std::uint32_t mss = 1400;
  // Stateless fast path (per-VIP StoreMode::kStateless): fleet-wide key for
  // the signed SYN-cookie MAC — every instance must share it so any adopter
  // can verify a cookie minted elsewhere.
  std::uint64_t cookie_secret = 0x59eda11c00c1e5ecULL;
  // Write-behind takeover journal: how long dirty flow states may coalesce
  // before a batched flush to TCPStore. Bounds the takeover-visible staleness
  // window in stateless mode.
  sim::Duration journal_flush_interval = sim::Msec(5);
};

}  // namespace yoda

#endif  // SRC_CORE_INSTANCE_CONFIG_H_
