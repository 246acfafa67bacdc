#include "src/assign/greedy_solver.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/assign/validator.h"

namespace assign {
namespace {

constexpr double kEps = 1e-9;

// Mutable placement state shared by the greedy pass and the local search.
struct State {
  const Problem* p = nullptr;
  const Assignment* prev = nullptr;
  bool limit_transient = false;
  bool limit_migration = false;
  double migration_limit = 1.0;

  std::vector<double> load;       // Eq 1 LHS per instance.
  std::vector<int> rules;         // Eq 2 LHS per instance.
  std::vector<double> transient;  // Eq 4,5 LHS per instance.
  std::vector<bool> used;
  double total_traffic = 0;
  double migrated = 0;  // Traffic units migrated so far.

  // Per-VIP old data.
  std::vector<std::set<int>> old_sets;
  std::vector<double> old_share;

  void Init(const Problem& problem, const SolveOptions& opts, double mig_limit) {
    p = &problem;
    prev = opts.previous;
    limit_transient = opts.limit_transient && prev != nullptr;
    limit_migration = opts.limit_migration && prev != nullptr && mig_limit >= 0;
    migration_limit = mig_limit;
    total_traffic = problem.TotalTraffic();

    int cap = problem.max_instances > 0 ? problem.max_instances : 0;
    // With an unbounded instance pool we grow lazily; reserve a sane start.
    int start = cap > 0 ? cap : static_cast<int>(problem.vips.size()) + 8;
    load.assign(static_cast<std::size_t>(start), 0.0);
    rules.assign(static_cast<std::size_t>(start), 0);
    transient.assign(static_cast<std::size_t>(start), 0.0);
    used.assign(static_cast<std::size_t>(start), false);

    old_sets.assign(problem.vips.size(), {});
    old_share.assign(problem.vips.size(), 0.0);
    if (prev != nullptr) {
      for (std::size_t v = 0; v < problem.vips.size() && v < prev->vip_instances.size(); ++v) {
        old_sets[v].insert(prev->vip_instances[v].begin(), prev->vip_instances[v].end());
        if (!old_sets[v].empty()) {
          old_share[v] = problem.vips[v].traffic / static_cast<double>(old_sets[v].size());
          for (int y : old_sets[v]) {
            Grow(y);
            // Until re-assigned, the instance still carries the old share
            // during the transition window.
            transient[static_cast<std::size_t>(y)] += old_share[v];
          }
        }
      }
    }
  }

  void Grow(int y) {
    while (static_cast<int>(load.size()) <= y) {
      load.push_back(0);
      rules.push_back(0);
      transient.push_back(0);
      used.push_back(false);
    }
  }

  int InstanceUniverse() const {
    return p->max_instances > 0 ? p->max_instances : static_cast<int>(load.size()) + 1;
  }

  // Transient contribution of putting VIP v (new share `share`) on y.
  double TransientDelta(std::size_t v, int y, double new_share) const {
    const bool was_old = old_sets[v].contains(y);
    if (!was_old) {
      return new_share;
    }
    return std::max(old_share[v], new_share) - old_share[v];
  }

  bool Fits(std::size_t v, int y, double fail_share, double new_share) const {
    const auto yi = static_cast<std::size_t>(y);
    if (yi < load.size()) {
      if (load[yi] + fail_share > p->traffic_capacity + kEps) {
        return false;
      }
      if (rules[yi] + p->vips[v].rules > p->rule_capacity) {
        return false;
      }
      if (limit_transient &&
          transient[yi] + TransientDelta(v, y, new_share) > p->traffic_capacity + kEps) {
        return false;
      }
    }
    return true;
  }

  void Place(std::size_t v, int y, double fail_share, double new_share) {
    Grow(y);
    const auto yi = static_cast<std::size_t>(y);
    load[yi] += fail_share;
    rules[yi] += p->vips[v].rules;
    transient[yi] += TransientDelta(v, y, new_share);
    used[yi] = true;
  }

  void Unplace(std::size_t v, int y, double fail_share, double new_share) {
    const auto yi = static_cast<std::size_t>(y);
    load[yi] -= fail_share;
    rules[yi] -= p->vips[v].rules;
    transient[yi] -= TransientDelta(v, y, new_share);
  }
};

// Greedy pass: hardest VIPs first (decreasing post-failure share, rules as
// tie-break), each replica on the best-fitting instance. False, with `note`
// set, when some VIP cannot be placed under this budget.
bool PlaceGreedy(const Problem& problem, State& st, Assignment& assignment, std::string* note) {
  std::vector<std::size_t> order(problem.vips.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&problem](std::size_t a, std::size_t b) {
    const double sa = problem.vips[a].ShareAfterFailures();
    const double sb = problem.vips[b].ShareAfterFailures();
    if (sa != sb) {
      return sa > sb;
    }
    return problem.vips[a].rules > problem.vips[b].rules;
  });

  for (std::size_t v : order) {
    const VipSpec& vip = problem.vips[v];
    if (vip.failures >= vip.replicas) {
      *note = "vip " + std::to_string(vip.id) + ": f_v >= n_v";
      return false;
    }
    const double fail_share = vip.ShareAfterFailures();
    const double new_share = vip.traffic / static_cast<double>(vip.replicas);
    std::vector<int>& chosen = assignment.vip_instances[v];

    for (int slot = 0; slot < vip.replicas; ++slot) {
      int best = -1;
      double best_key = -1;
      bool best_is_old = false;
      const int universe = st.InstanceUniverse();
      for (int y = 0; y < universe; ++y) {
        if (std::find(chosen.begin(), chosen.end(), y) != chosen.end()) {
          continue;
        }
        if (!st.Fits(v, y, fail_share, new_share)) {
          continue;
        }
        const bool is_old = st.old_sets[v].contains(y);
        const bool is_used = static_cast<std::size_t>(y) < st.used.size() &&
                             st.used[static_cast<std::size_t>(y)];
        // Preference: old instance (no migration) > already-used (packing) >
        // fresh. Within a class, best fit (highest current load).
        double key = (is_old ? 2e6 : 0) + (is_used ? 1e6 : 0) +
                     (static_cast<std::size_t>(y) < st.load.size()
                          ? st.load[static_cast<std::size_t>(y)]
                          : 0);
        if (key > best_key) {
          best_key = key;
          best = y;
          best_is_old = is_old;
        }
      }
      if (best < 0) {
        *note = "vip " + std::to_string(vip.id) + ": no feasible instance for replica " +
                std::to_string(slot);
        return false;  // Infeasible under this budget.
      }
      // Migration accounting: a replica placed off the old set migrates
      // old_share worth of connections (if the VIP had an old footprint).
      if (!best_is_old && !st.old_sets[v].empty()) {
        if (st.limit_migration &&
            st.migrated + st.old_share[v] > st.migration_limit * st.total_traffic + kEps) {
          *note = "migration budget exhausted at vip " + std::to_string(vip.id);
          return false;
        }
        st.migrated += st.old_share[v];
      }
      st.Place(v, best, fail_share, new_share);
      chosen.push_back(best);
    }
    std::sort(chosen.begin(), chosen.end());
  }
  return true;
}

// Moves every tenant VIP of `victim` onto another used instance. True when
// all of them moved; otherwise every move is rolled back.
bool TryEvacuate(const Problem& problem, State& st, Assignment& assignment, int victim,
                 const std::vector<std::size_t>& tenants) {
  struct Move {
    std::size_t v;
    int to;
    double fail_share;
    double new_share;
    bool migrates;
  };
  std::vector<Move> moves;
  bool all_moved = true;
  for (std::size_t v : tenants) {
    const VipSpec& vip = problem.vips[v];
    const double fail_share = vip.ShareAfterFailures();
    const double new_share = vip.traffic / static_cast<double>(vip.replicas);
    st.Unplace(v, victim, fail_share, new_share);
    auto& insts = assignment.vip_instances[v];
    insts.erase(std::find(insts.begin(), insts.end(), victim));

    int target = -1;
    double best_key = -1;
    for (std::size_t y = 0; y < st.used.size(); ++y) {
      const int yi = static_cast<int>(y);
      if (yi == victim || !st.used[y]) {
        continue;
      }
      if (std::find(insts.begin(), insts.end(), yi) != insts.end()) {
        continue;
      }
      if (!st.Fits(v, yi, fail_share, new_share)) {
        continue;
      }
      const bool migrates = !st.old_sets[v].contains(yi) && !st.old_sets[v].empty() &&
                            st.old_sets[v].contains(victim);
      if (migrates && st.limit_migration &&
          st.migrated + st.old_share[v] > st.migration_limit * st.total_traffic + kEps) {
        continue;
      }
      double key = st.load[y];
      if (key > best_key) {
        best_key = key;
        target = yi;
      }
    }
    if (target < 0) {
      // Undo this tenant and abort the eviction.
      st.Place(v, victim, fail_share, new_share);
      insts.push_back(victim);
      std::sort(insts.begin(), insts.end());
      all_moved = false;
      break;
    }
    const bool migrates = !st.old_sets[v].contains(target) && !st.old_sets[v].empty() &&
                          st.old_sets[v].contains(victim);
    if (migrates) {
      st.migrated += st.old_share[v];
    }
    st.Place(v, target, fail_share, new_share);
    insts.push_back(target);
    std::sort(insts.begin(), insts.end());
    moves.push_back(Move{v, target, fail_share, new_share, migrates});
  }
  if (all_moved) {
    return true;
  }
  // Roll back the successful moves of this eviction attempt.
  for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
    st.Unplace(it->v, it->to, it->fail_share, it->new_share);
    if (it->migrates) {
      st.migrated -= st.old_share[it->v];
    }
    auto& insts = assignment.vip_instances[it->v];
    insts.erase(std::find(insts.begin(), insts.end(), it->to));
    st.Place(it->v, victim, it->fail_share, it->new_share);
    insts.push_back(victim);
    std::sort(insts.begin(), insts.end());
  }
  return false;
}

// Local search: repeatedly try to evacuate the least-loaded used instance.
void LocalSearch(const Problem& problem, State& st, Assignment& assignment) {
  bool improved = true;
  while (improved) {
    improved = false;
    // Collect used instances ordered by ascending load.
    std::vector<int> by_load;
    for (std::size_t y = 0; y < st.used.size(); ++y) {
      if (st.used[y]) {
        by_load.push_back(static_cast<int>(y));
      }
    }
    std::sort(by_load.begin(), by_load.end(), [&st](int a, int b) {
      return st.load[static_cast<std::size_t>(a)] < st.load[static_cast<std::size_t>(b)];
    });
    for (int victim : by_load) {
      // Tenants of the victim: (vip, slot) pairs.
      std::vector<std::size_t> tenants;
      for (std::size_t v = 0; v < assignment.vip_instances.size(); ++v) {
        const auto& insts = assignment.vip_instances[v];
        if (std::find(insts.begin(), insts.end(), victim) != insts.end()) {
          tenants.push_back(v);
        }
      }
      if (tenants.empty()) {
        st.used[static_cast<std::size_t>(victim)] = false;
        continue;
      }
      if (!TryEvacuate(problem, st, assignment, victim, tenants)) {
        continue;
      }
      st.used[static_cast<std::size_t>(victim)] = false;
      improved = true;
      break;  // Re-rank instances after a successful eviction.
    }
  }
}

}  // namespace

SolveResult GreedySolver::SolveOnce(const Problem& problem, const SolveOptions& options,
                                    double migration_limit) const {
  State st;
  st.Init(problem, options, migration_limit);

  SolveResult result;
  result.assignment.vip_instances.assign(problem.vips.size(), {});
  if (!PlaceGreedy(problem, st, result.assignment, &result.note)) {
    return result;
  }
  if (options.local_search) {
    LocalSearch(problem, st, result.assignment);
  }

  result.feasible = true;
  result.instances_used = result.assignment.UsedInstanceCount();
  result.migrated_fraction = st.total_traffic > 0 ? st.migrated / st.total_traffic : 0;
  result.effective_migration_limit = st.limit_migration ? st.migration_limit : -1.0;
  return result;
}

SolveResult GreedySolver::Solve(const Problem& problem, const SolveOptions& options) const {
  const bool with_budget =
      options.limit_migration && options.previous != nullptr && problem.migration_limit >= 0;
  if (!with_budget) {
    return SolveOnce(problem, options, -1.0);
  }
  // Paper fallback: when delta is infeasible, relax in +10% increments.
  double delta = problem.migration_limit;
  SolveResult last;
  while (delta <= 1.0 + kEps) {
    last = SolveOnce(problem, options, delta);
    if (last.feasible) {
      return last;
    }
    delta += 0.10;
    last.note += " (relaxing delta to " + std::to_string(delta) + ")";
  }
  return last;
}

}  // namespace assign
