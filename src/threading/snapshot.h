// Lock-free snapshot publication for read-mostly services.
//
// The serving layer answers queries against an immutable model snapshot
// while a refresh occasionally installs a new one. SnapshotManager serves
// any number of readers and rare writers: readers acquire the current
// snapshot wait-free in the common case, and publish() retires the
// previous snapshot only after every reader that could possibly hold it
// has let go — an epoch/reader-count hybrid of RCU.
//
// Mechanics: a small ring of slots, each pairing an owning pointer with
// kStripes reader counters, one per cache line. `current_` names the slot
// readers should use. Every thread owns one stripe index, handed out
// round-robin at its first acquire(), so readers on different threads
// (any kStripes with consecutive tickets) never write the same cache
// line: a query pays two uncontended read-modify-writes instead of
// moving one shared line between cores.
//   acquire(): load current_, increment the calling thread's stripe of
//     that slot, then re-check current_. If it still names the slot, the
//     publisher cannot retire it before that stripe drops (publishers
//     drain only AFTER redirecting current_, so a passed re-check proves
//     the increment is visible to the drain). On a lost race the reader
//     decrements and retries — bounded by the number of concurrent
//     publishes, never by another reader, and publishes are rare. The Ref
//     remembers the counter it incremented, so a Ref moved to and
//     released on another thread decrements the right stripe.
//   publish(): install the new snapshot in a free slot, redirect
//     current_, then spin-wait each stripe of the old slot down to zero in
//     turn and delete the old snapshot. The wait lives entirely on the
//     publisher; no reader ever blocks, takes a lock, or observes a torn
//     snapshot.
//
// Why draining the stripes one after another is enough, though the scan
// is not one atomic read of all of them:
//   - A reader whose re-check passed loaded current_ before the
//     publisher's exchange, and it incremented its stripe before that
//     load. So in the single seq_cst order the increment precedes the
//     exchange, which precedes every load of the scan: the scan sees that
//     stripe at >= 1 until the reader releases (stripes never go negative,
//     since each decrement pairs with an increment of the same stripe).
//   - A reader that increments a stripe the scan has already passed does
//     so after the exchange, so its re-check fails — the old slot stays
//     claimed until the drain ends, so current_ cannot name it again. The
//     straggler only adds, then backs out without touching the snapshot.
//
// All atomics use seq_cst: the drain argument above leans on the single
// total order of the increment, the re-check and the exchange, and this
// re-check protocol is exactly the kind of code where relaxed orderings
// go quietly wrong. With the counters striped the remaining cost is an
// uncontended locked add per acquire and per release. TSan-clean by
// construction — tests/threading/snapshot_test.cpp hammers
// publish/acquire with more readers than stripes under the tsan preset.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "util/error.h"

namespace scd::threading {

namespace detail {
/// Process-wide round-robin source of reader stripe indices: each thread
/// takes one ticket at its first acquire().
inline std::atomic<std::uint32_t> next_reader_stripe{0};
}  // namespace detail

template <typename T>
class SnapshotManager {
 public:
  /// Concurrent-publish headroom: one live slot, one draining slot, and
  /// two spare so a publish never waits for a free slot even while the
  /// previous retire is still draining stragglers.
  static constexpr unsigned kSlots = 4;

  /// Reader counters per slot, each on its own cache line. Threads map
  /// onto stripes round-robin, so kStripes threads with consecutive
  /// tickets never share a counter's line; threads that do share one
  /// lose speed, never safety.
  static constexpr unsigned kStripes = 16;

  /// RAII read guard. Holds one of the slot's reader counts (the stripe
  /// its acquiring thread incremented) for its lifetime; the snapshot it
  /// points at cannot be retired while the guard lives. Movable, not
  /// copyable, and releasable on any thread. retries() reports how many
  /// acquire attempts lost a race with a concurrent publish before this
  /// one succeeded (0 in the steady state — the serve bench asserts it
  /// stays bounded).
  class Ref {
   public:
    Ref() = default;
    Ref(Ref&& other) noexcept
        : readers_(std::exchange(other.readers_, nullptr)),
          snapshot_(std::exchange(other.snapshot_, nullptr)),
          retries_(other.retries_) {}
    Ref& operator=(Ref&& other) noexcept {
      if (this != &other) {
        release();
        readers_ = std::exchange(other.readers_, nullptr);
        snapshot_ = std::exchange(other.snapshot_, nullptr);
        retries_ = other.retries_;
      }
      return *this;
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref() { release(); }

    const T& operator*() const { return *snapshot_; }
    const T* operator->() const { return snapshot_; }
    const T* get() const { return snapshot_; }
    explicit operator bool() const { return snapshot_ != nullptr; }
    std::uint32_t retries() const { return retries_; }

   private:
    friend class SnapshotManager;
    Ref(std::atomic<std::int64_t>* readers, const T* snapshot,
        std::uint32_t retries)
        : readers_(readers), snapshot_(snapshot), retries_(retries) {}
    void release() {
      if (readers_ != nullptr) {
        readers_->fetch_sub(1);
        readers_ = nullptr;
      }
      snapshot_ = nullptr;
    }

    std::atomic<std::int64_t>* readers_ = nullptr;
    const T* snapshot_ = nullptr;
    std::uint32_t retries_ = 0;
  };

  SnapshotManager() = default;
  explicit SnapshotManager(std::unique_ptr<const T> initial) {
    if (initial != nullptr) publish(std::move(initial));
  }

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  ~SnapshotManager() {
    // No readers may be live at destruction (they hold pointers into the
    // slots); delete whatever snapshots remain installed.
    for (Slot& slot : slots_) {
      delete slot.snapshot.load();
    }
  }

  /// Acquire the current snapshot. Lock-free and non-blocking: a reader
  /// retries only while a publish redirects current_ under its feet, at
  /// most once per concurrent publish. Returns an empty Ref only before
  /// the first publish.
  Ref acquire() {
    const std::uint32_t stripe = this_thread_stripe();
    for (std::uint32_t retries = 0;; ++retries) {
      const std::uint32_t index = current_.load();
      if (index == kNone) return Ref(nullptr, nullptr, retries);
      Slot& slot = slots_[index];
      std::atomic<std::int64_t>& readers = slot.stripes[stripe].readers;
      readers.fetch_add(1);
      if (current_.load() == index) {
        // The re-check proves the increment happened before any future
        // redirect-then-drain, so the publisher's drain wait covers us.
        return Ref(&readers, slot.snapshot.load(), retries);
      }
      readers.fetch_sub(1);  // lost the race; the slot may drain
      total_retries_.fetch_add(1, std::memory_order_relaxed);
      if (retries + 1 == kStallRetries) {
        // One acquire losing this many races in a row means publishes are
        // arriving faster than the reader can re-check — a genuine stall,
        // not the bounded once-per-publish bump. Structurally unreachable
        // outside a publish storm; the serve bench asserts it stays 0.
        stalled_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Install `next` as the current snapshot and retire the previous one.
  /// The previous snapshot is deleted only after its reader counts drain;
  /// the wait (a yield loop) runs on the publishing thread while readers
  /// proceed against the new snapshot unimpeded. Thread-safe against
  /// concurrent publishers (serialized by a CAS claim on the target
  /// slot), though refreshes are expected to be single-sourced.
  void publish(std::unique_ptr<const T> next) {
    SCD_REQUIRE(next != nullptr, "cannot publish a null snapshot");
    const std::uint32_t target = claim_free_slot();
    slots_[target].snapshot.store(next.release());
    const std::uint32_t previous = current_.exchange(target);
    epoch_.fetch_add(1);
    if (previous == kNone) return;
    retire(previous);
  }

  /// Number of publishes so far; readers can cheaply detect refreshes.
  std::uint64_t epoch() const { return epoch_.load(); }

  /// Total acquire retries caused by concurrent publishes — a direct
  /// measure of reader disturbance (0 when no publish raced a reader).
  std::uint64_t acquire_retries() const {
    return total_retries_.load(std::memory_order_relaxed);
  }

  /// Acquires that retried kStallRetries times before succeeding — the
  /// "did a reader ever actually stall" metric. Must stay 0 under any
  /// realistic refresh rate.
  std::uint64_t stalled_acquires() const {
    return stalled_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint32_t kStallRetries = 4 * kSlots;

  // One reader counter per cache line, so readers on different stripes
  // never write a line another reader writes.
  struct alignas(64) Stripe {
    std::atomic<std::int64_t> readers{0};
  };

  // The snapshot pointer and claim flag share the slot's first line;
  // readers only load them, so the line stays shared across cores.
  struct Slot {
    std::atomic<const T*> snapshot{nullptr};
    std::atomic<bool> claimed{false};
    Stripe stripes[kStripes];
  };

  /// The calling thread's stripe, taken from the process-wide ticket at
  /// its first acquire(). Constant-initialized, so it costs a TLS load
  /// and never allocates.
  static std::uint32_t this_thread_stripe() {
    thread_local std::uint32_t stripe = kNone;
    if (stripe == kNone) {
      stripe = detail::next_reader_stripe.fetch_add(1) % kStripes;
    }
    return stripe;
  }

  std::uint32_t claim_free_slot() {
    for (;;) {
      for (std::uint32_t i = 0; i < kSlots; ++i) {
        bool expected = false;
        if (slots_[i].claimed.compare_exchange_strong(expected, true)) {
          return i;
        }
      }
      // All slots transiently claimed (publish storm); yield and retry.
      std::this_thread::yield();
    }
  }

  void retire(std::uint32_t index) {
    Slot& slot = slots_[index];
    // One stripe at a time is sound; see the drain argument in the header.
    // Stragglers back out without touching the snapshot, so each count
    // provably reaches zero.
    for (Stripe& stripe : slot.stripes) {
      while (stripe.readers.load() != 0) {
        std::this_thread::yield();
      }
    }
    delete slot.snapshot.exchange(nullptr);
    slot.claimed.store(false);
  }

  Slot slots_[kSlots];
  std::atomic<std::uint32_t> current_{kNone};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> total_retries_{0};
  std::atomic<std::uint64_t> stalled_{0};
};

}  // namespace scd::threading
