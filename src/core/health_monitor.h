// HealthMonitor: the actual-state observer of the reconciliation control
// plane. It owns the active/suspended fleet lists, probes Yoda instances
// (Network::ProbePath, so gray SYN-filters do not blind it but partitions
// cost it probes) and backend servers, and folds probe results through the
// hysteresis / readmission / flap-suppression state machine from PR 2.
//
// It deliberately does NOT touch instances or the fabric: each Tick() returns
// the health TRANSITIONS it observed, and the reconciler (Controller) turns
// those into epoch-stamped UpdatePlans for the FleetActuator.

#ifndef SRC_CORE_HEALTH_MONITOR_H_
#define SRC_CORE_HEALTH_MONITOR_H_

#include <map>
#include <vector>

#include "src/core/yoda_instance.h"
#include "src/net/network.h"

namespace yoda {

struct HealthMonitorConfig {
  // An instance is declared dead only after this many CONSECUTIVE missed
  // probes (1 = paper behavior: first miss kills).
  int fail_after_misses = 1;
  // When enabled, a removed instance is parked as "suspended" and readmitted
  // after this many consecutive healthy probes.
  bool readmit_instances = false;
  int readmit_after_successes = 2;
  // Flap suppression: every failure after a readmission doubles the healthy
  // streak required next time, capped here.
  int readmit_penalty_cap = 8;
};

struct HealthTransition {
  enum class Kind {
    kInstanceFailed,     // Declared dead; already moved out of active().
    kInstanceSuspected,  // Missed a probe but still within hysteresis.
    kInstanceReadmitted, // Healthy streak met; already moved back to active().
    kBackendDown,
    kBackendUp,
  };
  Kind kind = Kind::kInstanceFailed;
  YodaInstance* instance = nullptr;  // Instance transitions.
  net::IpAddr addr = 0;              // Instance ip or backend ip.
  int detail = 0;                    // Miss streak / required successes.
};

class HealthMonitor {
 public:
  HealthMonitor(net::Network* network, HealthMonitorConfig config)
      : net_(network), cfg_(config) {}

  void AddActive(YodaInstance* instance) { active_.push_back(instance); }
  void AddBackend(net::IpAddr backend) {
    backends_.push_back(backend);
    backend_up_[backend] = true;
  }

  // One monitor pass: probes actives (fail path), suspended (readmit path)
  // and backends, mutates the fleet lists, and returns every transition in
  // deterministic (list) order.
  std::vector<HealthTransition> Tick();

  const std::vector<YodaInstance*>& active() const { return active_; }
  const std::vector<YodaInstance*>& suspended() const { return suspended_; }
  const std::vector<net::IpAddr>& backends() const { return backends_; }
  bool IsBackendUp(net::IpAddr backend) const;
  std::vector<net::IpAddr> ActiveIps() const;
  int detected_failures() const { return detected_failures_; }
  int readmissions() const { return readmissions_; }

 private:
  struct HealthState {
    int miss_streak = 0;
    int success_streak = 0;
    int flaps = 0;  // Failures observed after at least one readmission.
    int required_successes = 0;
  };

  bool ProbeInstance(const YodaInstance* instance) const;
  void OnDeclaredDead(YodaInstance* instance);

  net::Network* net_;
  HealthMonitorConfig cfg_;
  std::vector<YodaInstance*> active_;
  std::vector<YodaInstance*> suspended_;
  std::vector<net::IpAddr> backends_;
  std::map<net::IpAddr, bool> backend_up_;
  std::map<net::IpAddr, HealthState> health_;
  int detected_failures_ = 0;
  int readmissions_ = 0;
};

}  // namespace yoda

#endif  // SRC_CORE_HEALTH_MONITOR_H_
