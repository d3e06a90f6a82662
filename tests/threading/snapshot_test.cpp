#include "threading/snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace scd::threading {
namespace {

/// Payload that counts live instances, so retirement (delete after the
/// last reader lets go) is observable.
struct Tracked {
  static std::atomic<int> live;
  explicit Tracked(int v) : value(v) { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
  int value;
};
std::atomic<int> Tracked::live{0};

/// Payload whose destructor bumps a counter of the test's choosing, so a
/// test can tell when (and how often) one particular snapshot was freed.
struct CountsFrees {
  explicit CountsFrees(std::atomic<int>* counter) : frees(counter) {}
  ~CountsFrees() { frees->fetch_add(1); }
  std::atomic<int>* frees;
};

using CountingManager = SnapshotManager<CountsFrees>;

TEST(SnapshotManagerTest, EmptyBeforeFirstPublish) {
  SnapshotManager<int> manager;
  const auto ref = manager.acquire();
  EXPECT_FALSE(ref);
  EXPECT_EQ(ref.get(), nullptr);
  EXPECT_EQ(manager.epoch(), 0u);
}

TEST(SnapshotManagerTest, PublishMakesSnapshotVisible) {
  SnapshotManager<int> manager;
  manager.publish(std::make_unique<const int>(42));
  const auto ref = manager.acquire();
  ASSERT_TRUE(ref);
  EXPECT_EQ(*ref, 42);
  EXPECT_EQ(manager.epoch(), 1u);
}

TEST(SnapshotManagerTest, ConstructorPublishesInitialSnapshot) {
  SnapshotManager<int> manager(std::make_unique<const int>(7));
  EXPECT_EQ(manager.epoch(), 1u);
  EXPECT_EQ(*manager.acquire(), 7);
}

TEST(SnapshotManagerTest, PublishNullRejected) {
  SnapshotManager<int> manager;
  EXPECT_THROW(manager.publish(nullptr), scd::UsageError);
}

TEST(SnapshotManagerTest, RepublishRetiresPreviousSnapshot) {
  Tracked::live.store(0);
  {
    SnapshotManager<Tracked> manager;
    manager.publish(std::make_unique<const Tracked>(1));
    EXPECT_EQ(Tracked::live.load(), 1);
    manager.publish(std::make_unique<const Tracked>(2));
    // No reader held the first snapshot, so the publish retired it.
    EXPECT_EQ(Tracked::live.load(), 1);
    EXPECT_EQ(manager.acquire()->value, 2);
  }
  // Destructor releases the remaining snapshot.
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(SnapshotManagerTest, LiveReaderKeepsItsSnapshotThroughPublishes) {
  Tracked::live.store(0);
  SnapshotManager<Tracked> manager;
  manager.publish(std::make_unique<const Tracked>(1));
  auto held = manager.acquire();

  // Retire of the held snapshot must wait for the reader, so it runs on
  // a separate publisher thread while we observe both generations live.
  std::thread publisher(
      [&] { manager.publish(std::make_unique<const Tracked>(2)); });
  while (manager.epoch() != 2) std::this_thread::yield();
  EXPECT_EQ(held->value, 1);
  EXPECT_EQ(Tracked::live.load(), 2);
  EXPECT_EQ(manager.acquire()->value, 2);

  held = {};  // release; the publisher's drain can now finish
  publisher.join();
  EXPECT_EQ(Tracked::live.load(), 1);
}

TEST(SnapshotManagerTest, RefMoveTransfersOwnership) {
  SnapshotManager<int> manager;
  manager.publish(std::make_unique<const int>(5));
  auto a = manager.acquire();
  auto b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): post-move probe
  ASSERT_TRUE(b);
  EXPECT_EQ(*b, 5);
  SnapshotManager<int>::Ref c;
  c = std::move(b);
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, 5);
}

// Threads take stripes round-robin, so 2 * kStripes + 1 fresh reader
// threads cover every stripe at least twice. Each holds a Ref to the
// first snapshot while another thread publishes the second; the readers
// then let go one at a time, and the old snapshot must outlive every
// Ref but the last — wherever that last reader's stripe is.
TEST(SnapshotManagerTest, PublishWaitsForReadersOnEveryStripe) {
  constexpr unsigned kHolders = 2 * CountingManager::kStripes + 1;
  std::atomic<int> old_frees{0};
  std::atomic<int> new_frees{0};
  {
    CountingManager manager(std::make_unique<const CountsFrees>(&old_frees));
    std::atomic<unsigned> holding{0};
    std::atomic<unsigned> release_below{0};  // holders < this let go
    std::atomic<unsigned> released{0};
    std::vector<std::thread> holders;
    holders.reserve(kHolders);
    for (unsigned h = 0; h < kHolders; ++h) {
      holders.emplace_back([&, h] {
        auto ref = manager.acquire();
        EXPECT_EQ(ref->frees, &old_frees);
        holding.fetch_add(1);
        while (release_below.load() <= h) std::this_thread::yield();
        ref = {};
        released.fetch_add(1);
      });
    }
    while (holding.load() != kHolders) std::this_thread::yield();

    std::thread publisher([&] {
      manager.publish(std::make_unique<const CountsFrees>(&new_frees));
    });
    while (manager.epoch() != 2) std::this_thread::yield();
    for (unsigned h = 0; h + 1 < kHolders; ++h) {
      release_below.store(h + 1);
      while (released.load() != h + 1) std::this_thread::yield();
      // Holders h+1.. still pin the old snapshot.
      EXPECT_EQ(old_frees.load(), 0)
          << "freed with " << kHolders - h - 1 << " readers still holding it";
    }
    release_below.store(kHolders);
    publisher.join();
    for (auto& t : holders) t.join();
    EXPECT_EQ(old_frees.load(), 1);
    EXPECT_EQ(new_frees.load(), 0);
    EXPECT_EQ(manager.stalled_acquires(), 0u);
  }
  EXPECT_EQ(old_frees.load(), 1);
  EXPECT_EQ(new_frees.load(), 1);
}

// A Ref remembers the stripe it incremented, not its releasing thread's:
// acquired on thread A and released on thread B (which has a stripe of
// its own), it must drain A's stripe so the pending publish completes
// and frees the old snapshot exactly once.
TEST(SnapshotManagerTest, RefReleasedOnAnotherThreadDrainsItsStripe) {
  std::atomic<int> old_frees{0};
  std::atomic<int> new_frees{0};
  {
    CountingManager manager(std::make_unique<const CountsFrees>(&old_frees));
    CountingManager::Ref handed_over;
    std::thread a([&] { handed_over = manager.acquire(); });
    a.join();
    ASSERT_TRUE(handed_over);

    std::thread publisher([&] {
      manager.publish(std::make_unique<const CountsFrees>(&new_frees));
    });
    while (manager.epoch() != 2) std::this_thread::yield();
    EXPECT_EQ(old_frees.load(), 0);

    std::thread b([&] {
      const auto own = manager.acquire();  // takes B's own stripe
      EXPECT_EQ(own->frees, &new_frees);
      CountingManager::Ref moved = std::move(handed_over);
      EXPECT_EQ(moved->frees, &old_frees);
    });  // `moved` releases here, on B
    b.join();
    publisher.join();
    EXPECT_EQ(old_frees.load(), 1);
    EXPECT_EQ(new_frees.load(), 0);
  }
  EXPECT_EQ(old_frees.load(), 1);
  EXPECT_EQ(new_frees.load(), 1);
}

// The headline concurrency property: readers hammer acquire() while a
// writer publishes many generations; every observed snapshot is
// coherent (value == generation stamp), nothing is read after free
// (asan would catch it), and no acquire ever stalls. More readers than
// stripes, so some stripes carry two readers. Run under the tsan preset
// this is also the data-race proof.
constexpr std::uint64_t kStampMask = 0x5ca1ab1e5ca1ab1eULL;

TEST(SnapshotManagerTest, ConcurrentPublishAndReadHammering) {
  struct Stamped {
    explicit Stamped(std::uint64_t g) : generation(g), check(g ^ kStampMask) {}
    std::uint64_t generation;
    std::uint64_t check;
  };

  SnapshotManager<Stamped> manager;
  manager.publish(std::make_unique<const Stamped>(0));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  constexpr unsigned kReaders = SnapshotManager<Stamped>::kStripes + 3;
  constexpr std::uint64_t kGenerations = 400;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_seen = 0;
      while (!stop.load()) {
        const auto ref = manager.acquire();
        ASSERT_TRUE(ref);
        // Coherent: both fields from the same generation.
        ASSERT_EQ(ref->check, ref->generation ^ kStampMask);
        // Monotone: generations never go backwards for one reader.
        ASSERT_GE(ref->generation, last_seen);
        last_seen = ref->generation;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint64_t g = 1; g <= kGenerations; ++g) {
    manager.publish(std::make_unique<const Stamped>(g));
  }
  // On a loaded (or single-CPU) box the readers may not have been
  // scheduled at all yet — keep the final snapshot live until every
  // reader has observed at least one generation, so the assertions
  // actually exercise the swap.
  while (reads.load() < kReaders) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(manager.epoch(), kGenerations + 1);
  EXPECT_EQ(manager.acquire()->generation, kGenerations);
  EXPECT_GT(reads.load(), 0u);
  // Readers may retry (bounded, once per racing publish) but never stall.
  EXPECT_EQ(manager.stalled_acquires(), 0u);
}

}  // namespace
}  // namespace scd::threading
