#include "src/kv/replicating_client.h"

#include <cassert>
#include <utility>

#include "src/sim/sharded_sim.h"

namespace kv {
namespace {

// Book-keeping for one write (Set/Delete) attempt: fires `done` exactly once,
// after all replicas answered or the timeout fired.
struct WriteOp {
  int outstanding = 0;
  int acks = 0;
  bool finished = false;
};

}  // namespace

// One in-flight Get attempt across the key's replicas.
struct ReplicatingClient::GetOp {
  struct Slot {
    KvServer* server = nullptr;
    bool started = false;
    bool answered = false;
    bool hit = false;
    bool hedged = false;  // Launched by the hedge timer (not by a miss).
  };

  std::string key;
  std::vector<Slot> slots;
  int started = 0;
  int answered = 0;
  bool finished = false;
  bool timed_out = false;  // Some queried replica exhausted its op_timeout.
  std::optional<std::string> value;
  int winner = -1;
  std::function<void(std::optional<std::string>, bool indefinite)> done;

  int NextUnstarted() const {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].started) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

ReplicatingClient::ReplicatingClient(sim::Simulator* simulator, std::vector<KvServer*> servers,
                                     ReplicatingClientConfig config)
    : sim_(simulator), cfg_(config) {
  assert(sim_->engine() != nullptr && "ReplicatingClient must be built on an engine shard");
  for (KvServer* s : servers) {
    assert(s->simulator()->engine() == sim_->engine() &&
           "every replica must run on the client's engine");
    ring_.AddServer(s->id());
    by_id_[s->id()] = s;
  }
  obs::Registry& registry = sim_->registry();
  ctr_.gets = &registry.GetCounter("kv.client.gets");
  ctr_.sets = &registry.GetCounter("kv.client.sets");
  ctr_.deletes = &registry.GetCounter("kv.client.deletes");
  ctr_.cas_ops = &registry.GetCounter("kv.client.cas_ops");
  ctr_.cas_wins = &registry.GetCounter("kv.client.cas_wins");
  ctr_.cas_repairs = &registry.GetCounter("kv.client.cas_repairs");
  ctr_.replica_timeouts = &registry.GetCounter("kv.client.replica_timeouts");
  ctr_.retries = &registry.GetCounter("kv.client.retries");
  ctr_.hedged_gets = &registry.GetCounter("kv.client.hedged_gets");
  ctr_.hedge_wins = &registry.GetCounter("kv.client.hedge_wins");
  ctr_.read_repairs = &registry.GetCounter("kv.client.read_repairs");
  ctr_.get_latency_us = &registry.GetHistogram("kv.client.get_latency_us");
  ctr_.set_latency_us = &registry.GetHistogram("kv.client.set_latency_us");
  ctr_.delete_latency_us = &registry.GetHistogram("kv.client.delete_latency_us");
}

std::vector<KvServer*> ReplicatingClient::ReplicasFor(const std::string& key) const {
  std::vector<KvServer*> out;
  for (const std::string& id : ring_.Replicas(key, cfg_.replicas)) {
    out.push_back(by_id_.at(id));
  }
  return out;
}

sim::Duration ReplicatingClient::BackoffFor(int attempt) const {
  sim::Duration d = cfg_.retry_backoff;
  for (int i = 0; i < attempt; ++i) {
    d *= 2;
  }
  return d;
}

void ReplicatingClient::CountReplicaTimeouts(std::uint64_t n) {
  if (n == 0) {
    return;
  }
  stats_.replica_timeouts += n;
  ctr_.replica_timeouts->Add(n);
}

void ReplicatingClient::ToServer(KvServer* server, std::function<void()> fn) {
  // Issued from this client's shard; `fn` executes where the replica lives.
  sim_->engine()->Post(server->simulator()->shard_index(), sim_->now() + cfg_.network_delay,
                       std::move(fn));
}

void ReplicatingClient::ToHome(KvServer* server, std::function<void()> fn) {
  // Issued while executing on the replica's shard, so the departure time is
  // read off THAT shard's clock — sim_ is this client's simulator, whose
  // clock this thread must not touch mid-epoch.
  sim_->engine()->Post(sim_->shard_index(), server->simulator()->now() + cfg_.network_delay,
                       std::move(fn));
}

// --- writes -----------------------------------------------------------------

void ReplicatingClient::SetAttempt(const std::string& key, const std::string& value,
                                   std::function<void(bool, bool)> done) {
  auto replicas = ReplicasFor(key);
  if (replicas.empty()) {
    done(false, false);
    return;
  }
  auto state = std::make_shared<WriteOp>();
  state->outstanding = static_cast<int>(replicas.size());
  auto finish = [state, done = std::move(done)](bool timed_out) {
    if (state->finished) {
      return;
    }
    state->finished = true;
    done(state->acks > 0, timed_out && state->acks == 0);
  };
  for (KvServer* server : replicas) {
    // Request travels one network delay; the ack travels one back. The op
    // state only ever mutates on the home shard (inside ToHome's landing).
    ToServer(server, [this, server, key, value, state, finish]() {
      server->Set(key, value, [this, server, state, finish](bool) {
        ToHome(server, [state, finish]() {
          ++state->acks;
          if (--state->outstanding == 0) {
            finish(false);
          }
        });
      });
    });
  }
  sim_->After(cfg_.op_timeout, [this, state, finish]() {
    // Attribution: replicas still silent when the deadline passed, whether or
    // not the op itself already completed off the others.
    CountReplicaTimeouts(static_cast<std::uint64_t>(state->outstanding > 0 ? state->outstanding : 0));
    finish(true);
  });
}

void ReplicatingClient::DeleteAttempt(const std::string& key,
                                      std::function<void(bool, bool)> done) {
  auto replicas = ReplicasFor(key);
  if (replicas.empty()) {
    done(false, false);
    return;
  }
  auto state = std::make_shared<WriteOp>();
  state->outstanding = static_cast<int>(replicas.size());
  // `acks` counts replicas that actually deleted something; a unanimous
  // "not found" is a definitive false, not grounds for a retry.
  auto finish = [state, done = std::move(done)](bool timed_out) {
    if (state->finished) {
      return;
    }
    state->finished = true;
    done(state->acks > 0, timed_out && state->acks == 0);
  };
  for (KvServer* server : replicas) {
    ToServer(server, [this, server, key, state, finish]() {
      server->Delete(key, [this, server, state, finish](bool ok) {
        ToHome(server, [state, finish, ok]() {
          if (ok) {
            ++state->acks;
          }
          if (--state->outstanding == 0) {
            finish(false);
          }
        });
      });
    });
  }
  sim_->After(cfg_.op_timeout, [this, state, finish]() {
    CountReplicaTimeouts(static_cast<std::uint64_t>(state->outstanding > 0 ? state->outstanding : 0));
    finish(true);
  });
}

void ReplicatingClient::RunSet(const std::string& key, const std::string& value, int attempt,
                               sim::Time start, AckCallback cb) {
  SetAttempt(key, value, [this, key, value, attempt, start, cb](bool ok, bool indefinite) {
    if (!ok && indefinite && attempt < cfg_.max_retries) {
      ++stats_.retries;
      ctr_.retries->Inc();
      sim_->After(BackoffFor(attempt), [this, key, value, attempt, start, cb]() {
        RunSet(key, value, attempt + 1, start, cb);
      });
      return;
    }
    const double us = sim::ToMicros(sim_->now() - start);
    stats_.set_latency_us.Add(us);
    ctr_.set_latency_us->Add(us);
    cb(ok);
  });
}

void ReplicatingClient::RunDelete(const std::string& key, int attempt, sim::Time start,
                                  AckCallback cb) {
  DeleteAttempt(key, [this, key, attempt, start, cb](bool ok, bool indefinite) {
    if (!ok && indefinite && attempt < cfg_.max_retries) {
      ++stats_.retries;
      ctr_.retries->Inc();
      sim_->After(BackoffFor(attempt), [this, key, attempt, start, cb]() {
        RunDelete(key, attempt + 1, start, cb);
      });
      return;
    }
    const double us = sim::ToMicros(sim_->now() - start);
    stats_.delete_latency_us.Add(us);
    ctr_.delete_latency_us->Add(us);
    cb(ok);
  });
}

void ReplicatingClient::Set(const std::string& key, std::string value, AckCallback cb) {
  ++stats_.sets;
  ctr_.sets->Inc();
  RunSet(key, value, 0, sim_->now(), std::move(cb));
}

void ReplicatingClient::Delete(const std::string& key, AckCallback cb) {
  ++stats_.deletes;
  ctr_.deletes->Inc();
  RunDelete(key, 0, sim_->now(), std::move(cb));
}

void ReplicatingClient::Cas(const std::string& key, std::optional<std::string> expected,
                            std::string value, AckCallback cb) {
  ++stats_.cas_ops;
  ctr_.cas_ops->Inc();
  auto replicas = ReplicasFor(key);
  if (replicas.empty()) {
    cb(false);
    return;
  }
  // Per-replica outcome: answered + compare verdict. Majority is computed
  // over the CONFIGURED replica count, so silent (down/slow) replicas count
  // against the op — a CAS can only win while a majority is reachable.
  struct CasOp {
    int outstanding = 0;
    int acks = 0;
    bool finished = false;
    std::vector<bool> answered;
    std::vector<bool> ok;
  };
  auto state = std::make_shared<CasOp>();
  state->outstanding = static_cast<int>(replicas.size());
  state->answered.assign(replicas.size(), false);
  state->ok.assign(replicas.size(), false);
  const int majority = static_cast<int>(replicas.size()) / 2 + 1;
  auto finish = [this, state, replicas, key, value, majority, cb = std::move(cb)]() {
    if (state->finished) {
      return;
    }
    state->finished = true;
    const bool won = state->acks >= majority;
    if (won) {
      ++stats_.cas_wins;
      ctr_.cas_wins->Inc();
      // Heal replicas that answered with a conflict: the majority decided,
      // so the minority value (a previous contested CAS that won nowhere)
      // is overwritten with the winner.
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        if (state->answered[i] && !state->ok[i]) {
          ++stats_.cas_repairs;
          ctr_.cas_repairs->Inc();
          KvServer* server = replicas[i];
          ToServer(server,
                   [server, key, value]() { server->Set(key, value, [](bool) {}); });
        }
      }
    }
    cb(won);
  };
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    KvServer* server = replicas[i];
    ToServer(server, [this, server, key, expected, value, state, i, finish]() {
      server->Cas(key, expected, value, [this, server, state, i, finish](bool ok) {
        ToHome(server, [state, i, ok, finish]() {
          state->answered[i] = true;
          state->ok[i] = ok;
          if (ok) {
            ++state->acks;
          }
          if (--state->outstanding == 0) {
            finish();
          }
        });
      });
    });
  }
  sim_->After(cfg_.op_timeout, [this, state, finish]() {
    CountReplicaTimeouts(
        static_cast<std::uint64_t>(state->outstanding > 0 ? state->outstanding : 0));
    finish();
  });
}

// --- reads ------------------------------------------------------------------

void ReplicatingClient::ArmHedge(const std::shared_ptr<GetOp>& op) {
  sim_->After(cfg_.hedge_delay, [this, op]() {
    if (op->finished) {
      return;
    }
    const int next = op->NextUnstarted();
    if (next < 0) {
      return;
    }
    StartGetSlot(op, static_cast<std::size_t>(next), true);
    ArmHedge(op);
  });
}

void ReplicatingClient::StartGetSlot(const std::shared_ptr<GetOp>& op, std::size_t i,
                                     bool hedged) {
  GetOp::Slot& slot = op->slots[i];
  slot.started = true;
  slot.hedged = hedged;
  ++op->started;
  if (hedged) {
    ++stats_.hedged_gets;
    ctr_.hedged_gets->Inc();
  }
  if (cfg_.read_mode == ReadMode::kSingle) {
    // Sequential baseline: each replica gets the full op_timeout to itself.
    sim_->After(cfg_.op_timeout, [this, op, i]() {
      if (op->slots[i].answered) {
        return;
      }
      CountReplicaTimeouts(1);
      if (op->finished) {
        return;
      }
      op->timed_out = true;
      const int next = op->NextUnstarted();
      if (next >= 0) {
        StartGetSlot(op, static_cast<std::size_t>(next), false);
      } else {
        FinishGet(op);
      }
    });
  }
  // Capture the replica pointer directly: the op's slot fields keep mutating
  // on the home shard (hedge launches, answers) while this hop is in flight.
  KvServer* server = slot.server;
  ToServer(server, [this, server, op, i]() {
    server->Get(op->key, [this, server, op, i](std::optional<std::string> v) {
      ToHome(server, [this, op, i, v = std::move(v)]() {
        OnGetAnswer(op, i, std::move(v));
      });
    });
  });
}

void ReplicatingClient::OnGetAnswer(const std::shared_ptr<GetOp>& op, std::size_t i,
                                    std::optional<std::string> v) {
  GetOp::Slot& slot = op->slots[i];
  slot.answered = true;
  slot.hit = v.has_value();
  ++op->answered;
  if (op->finished) {
    return;  // Late answer; recorded only for timeout attribution.
  }
  if (v.has_value()) {
    op->value = std::move(v);
    op->winner = static_cast<int>(i);
    FinishGet(op);
    return;
  }
  // Definitive miss from this replica.
  if (cfg_.read_mode != ReadMode::kFanout) {
    const int next = op->NextUnstarted();
    if (next >= 0) {
      StartGetSlot(op, static_cast<std::size_t>(next), false);
      return;
    }
  }
  if (op->answered == op->started &&
      op->started == static_cast<int>(op->slots.size())) {
    FinishGet(op);  // Every replica answered; clean miss.
  }
}

void ReplicatingClient::FinishGet(const std::shared_ptr<GetOp>& op) {
  op->finished = true;
  if (op->value.has_value()) {
    if (op->winner >= 0 && op->slots[static_cast<std::size_t>(op->winner)].hedged) {
      ++stats_.hedge_wins;
      ctr_.hedge_wins->Inc();
    }
    if (cfg_.read_repair) {
      // Heal replicas that definitively missed (a silent replica may just be
      // down; writing at it would teach us nothing).
      for (GetOp::Slot& slot : op->slots) {
        if (slot.started && slot.answered && !slot.hit) {
          ++stats_.read_repairs;
          ctr_.read_repairs->Inc();
          KvServer* server = slot.server;
          ToServer(server, [server, key = op->key, value = *op->value]() {
            server->Set(key, value, [](bool) {});
          });
        }
      }
    }
  }
  op->done(op->value, !op->value.has_value() && op->timed_out);
}

void ReplicatingClient::GetAttempt(const std::string& key,
                                   std::function<void(std::optional<std::string>, bool)> done) {
  auto replicas = ReplicasFor(key);
  if (replicas.empty()) {
    done(std::nullopt, false);
    return;
  }
  auto op = std::make_shared<GetOp>();
  op->key = key;
  op->done = std::move(done);
  op->slots.reserve(replicas.size());
  for (KvServer* server : replicas) {
    op->slots.push_back(GetOp::Slot{server});
  }
  switch (cfg_.read_mode) {
    case ReadMode::kFanout:
      for (std::size_t i = 0; i < op->slots.size(); ++i) {
        StartGetSlot(op, i, false);
      }
      break;
    case ReadMode::kSingle:
      StartGetSlot(op, 0, false);  // Per-slot timeouts armed in StartGetSlot.
      return;
    case ReadMode::kHedged: {
      StartGetSlot(op, 0, false);
      // Hedge chain: every hedge_delay of overall silence launches one more
      // replica, until an answer arrives or the replicas run out.
      ArmHedge(op);
      break;
    }
  }
  // Shared deadline for the parallel modes (kSingle pays per slot instead).
  sim_->After(cfg_.op_timeout, [this, op]() {
    std::uint64_t silent = 0;
    for (const GetOp::Slot& slot : op->slots) {
      if (slot.started && !slot.answered) {
        ++silent;
      }
    }
    CountReplicaTimeouts(silent);
    if (!op->finished) {
      op->timed_out = true;
      FinishGet(op);
    }
  });
}

void ReplicatingClient::RunGet(const std::string& key, int attempt, sim::Time start,
                               GetCallback cb) {
  GetAttempt(key, [this, key, attempt, start, cb](std::optional<std::string> v,
                                                  bool indefinite) {
    if (!v.has_value() && indefinite && attempt < cfg_.max_retries) {
      ++stats_.retries;
      ctr_.retries->Inc();
      sim_->After(BackoffFor(attempt), [this, key, attempt, start, cb]() {
        RunGet(key, attempt + 1, start, cb);
      });
      return;
    }
    const double us = sim::ToMicros(sim_->now() - start);
    stats_.get_latency_us.Add(us);
    ctr_.get_latency_us->Add(us);
    cb(std::move(v));
  });
}

void ReplicatingClient::Get(const std::string& key, GetCallback cb) {
  ++stats_.gets;
  ctr_.gets->Inc();
  RunGet(key, 0, sim_->now(), std::move(cb));
}

}  // namespace kv
