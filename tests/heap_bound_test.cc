// Live-heap bounds on finished and in-flight fetches.
//
// A browser fetch that has finished lingers for 3 s so its TCP teardown can
// complete and its tuple is not reused too soon, and a backend connection
// lingers through TIME_WAIT. Thousands of each sit in those windows at high
// load, so whatever they still own is most of the simulator's footprint.
// This binary replaces the global allocation functions to count live heap
// bytes, completes a batch of 10 KB HTTP/1.0 fetches between one client and
// one backend (no load balancer in between), and bounds the heap those
// finished fetches still hold while they are inside the 3 s window.
//
// Measured with g++ 12 and glibc on x86-64 (usable sizes), bytes per
// finished fetch: 13,828 when a finished fetch kept its whole response
// buffer, 2,563 once it keeps only its endpoint and tuple besides the
// lingering backend connection. The 6,000-byte bound leaves a margin above
// 2x on both sides.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/net/network.h"
#include "src/sim/sharded_sim.h"
#include "src/workload/browser_client.h"
#include "src/workload/http_server_node.h"
#include "src/workload/object_catalog.h"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

void* Allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void Release(void* p) {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    std::free(p);
  }
}

}  // namespace

// Aligned new/delete keep their default implementation, which bypasses these
// functions in both directions, so they are simply not counted.
void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }

namespace workload {
namespace {

constexpr net::IpAddr kClientIp = net::MakeIp(1, 0, 0, 1);
constexpr net::IpAddr kServerIp = net::MakeIp(10, 0, 0, 2);
constexpr std::size_t kObjectBytes = 10'000;
constexpr std::int64_t kBytesPerFinishedFetchBound = 6'000;

TEST(HeapBound, FinishedFetchesKeepNoResponseBuffers) {
  sim::ShardedSim engine(sim::ShardedSim::Config{.shards = 1, .workers = 1});
  sim::Simulator& simulator = engine.shard(0);
  net::Network network(&engine, 1);
  network.SetLatency(net::Region::kInternet, net::Region::kDatacenter, sim::Msec(1));

  sim::Rng rng(1);
  CatalogConfig catalog_cfg;
  catalog_cfg.objects = 1;
  catalog_cfg.pages = 1;
  catalog_cfg.min_size = kObjectBytes;
  catalog_cfg.max_size = kObjectBytes;
  catalog_cfg.median_size = kObjectBytes;
  const ObjectCatalog catalog(rng, catalog_cfg);
  const std::string url = catalog.objects()[0].url;

  HttpServerConfig server_cfg;
  server_cfg.ip = kServerIp;
  HttpServerNode server(&simulator, &network, &catalog, 2, server_cfg);
  BrowserClient client(&simulator, &network, kClientIp, 3);

  int ok = 0;
  std::size_t bytes = 0;
  // Fetches start every 2 ms from `from` on; each takes a few ms, so at
  // most a couple are ever in flight.
  auto run_batch = [&](sim::Time from, int count) {
    for (int i = 0; i < count; ++i) {
      simulator.At(from + i * sim::Msec(2), [&]() {
        client.FetchObject(kServerIp, 80, url, FetchOptions{}, [&](const FetchResult& r) {
          ok += r.ok ? 1 : 0;
          bytes += r.bytes;
        });
      });
    }
    engine.RunUntil(from + count * sim::Msec(2) + sim::Msec(100));
  };

  // A first batch grows the tables, pools and event slab that any batch
  // needs; running past every linger window then leaves only that
  // footprint, which the measured batch reuses.
  run_batch(0, 20);
  engine.RunUntil(sim::Sec(10));
  ASSERT_EQ(ok, 20);

  constexpr int kFetches = 200;
  ok = 0;
  bytes = 0;
  const std::int64_t before = g_live_bytes.load();
  run_batch(sim::Sec(10), kFetches);  // Ends 0.5 s in: every fetch lingers.
  const std::int64_t per_fetch = (g_live_bytes.load() - before) / kFetches;

  ASSERT_EQ(ok, kFetches);
  EXPECT_EQ(bytes, kFetches * kObjectBytes);
  EXPECT_LT(per_fetch, kBytesPerFinishedFetchBound)
      << "live heap bytes per finished fetch: " << per_fetch;
}

// While a response is in flight, its bytes should exist once: in the
// catalog's shared filler, sliced by the backend's send queue, the packets
// and the client's parser. 50 fetches of one 300 KB object run at once over a
// 20 ms path and are stopped 250 ms in, when every fetch is mid-transfer.
// Measured as above, bytes per in-flight fetch: 680,739 when the backend
// built each body and the client's parser copied every segment, 22,799 once
// they share the filler. The bound is a fifth of the object.
TEST(HeapBound, InFlightResponsesHoldNoCopyOfTheObject) {
  constexpr std::size_t kLargeObjectBytes = 300'000;
  constexpr int kFetches = 50;
  sim::ShardedSim engine(sim::ShardedSim::Config{.shards = 1, .workers = 1});
  sim::Simulator& simulator = engine.shard(0);
  net::Network network(&engine, 1);
  network.SetLatency(net::Region::kInternet, net::Region::kDatacenter, sim::Msec(20));

  sim::Rng rng(1);
  CatalogConfig catalog_cfg;
  catalog_cfg.objects = 1;
  catalog_cfg.pages = 1;
  catalog_cfg.min_size = kLargeObjectBytes;
  catalog_cfg.max_size = kLargeObjectBytes;
  catalog_cfg.median_size = kLargeObjectBytes;
  const ObjectCatalog catalog(rng, catalog_cfg);
  const std::string url = catalog.objects()[0].url;

  HttpServerConfig server_cfg;
  server_cfg.ip = kServerIp;
  HttpServerNode server(&simulator, &network, &catalog, 2, server_cfg);
  BrowserClient client(&simulator, &network, kClientIp, 3);

  int finished = 0;
  const std::int64_t before = g_live_bytes.load();
  for (int i = 0; i < kFetches; ++i) {
    client.FetchObject(kServerIp, 80, url, FetchOptions{},
                       [&finished](const FetchResult&) { ++finished; });
  }
  engine.RunUntil(sim::Msec(250));
  const std::int64_t per_fetch = (g_live_bytes.load() - before) / kFetches;

  // Every request has been served and no response has finished arriving.
  ASSERT_EQ(server.stats().requests, static_cast<std::uint64_t>(kFetches));
  ASSERT_EQ(finished, 0);
  EXPECT_LT(per_fetch, static_cast<std::int64_t>(kLargeObjectBytes / 5))
      << "live heap bytes per in-flight fetch: " << per_fetch;

  engine.RunUntil(sim::Sec(2));
  EXPECT_EQ(finished, kFetches);
}

}  // namespace
}  // namespace workload
