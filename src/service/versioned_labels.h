// Epoch-versioned distance labels: O(1) per-query reset of an O(V)
// tentative-distance array.
//
// A long-lived service runs many point-to-point queries over the same
// graph; reallocating (or even memset-ing) a V-sized distance array per
// query would dominate short queries. Instead every slot packs a 16-bit
// epoch next to a 48-bit distance in one atomic word: bumping the lane's
// epoch invalidates every slot at once, because a slot whose stored
// epoch differs from the current query's decodes as "unreached".
//
// The packing is also what makes the concurrency story simple. Workers
// never synchronize on the labels across queries: a stale slot (written
// under an old epoch, read under the new one via a relaxed load) is
// indistinguishable from an untouched slot, so plain relaxed CAS-min per
// slot is correct with no cross-slot ordering at all — exactly the
// discipline DistanceArray (algorithms/relax.h) uses within one run.
//
// Epochs cycle through 1..2^16-1; on wraparound every slot is scrubbed
// back to epoch 0 (which is never current), an O(V) pass amortized over
// 65535 queries. new_epoch() must be called by one thread at a time (the
// service serializes it under its admission lock) and only while the
// lane has no tasks in flight.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace smq {

class VersionedLabels {
 public:
  static constexpr std::uint64_t kUnreached = ~0ull;

  static constexpr unsigned kEpochBits = 16;
  static constexpr unsigned kDistBits = 48;
  static constexpr std::uint64_t kDistMask = (1ull << kDistBits) - 1;
  /// Largest storable distance; kDistMask itself is the scrub sentinel.
  static constexpr std::uint64_t kMaxDistance = kDistMask - 1;
  static constexpr std::uint64_t kEpochLimit = 1ull << kEpochBits;

  explicit VersionedLabels(std::size_t size)
      : size_(size), slots_(std::make_unique<std::atomic<std::uint64_t>[]>(size)) {
    scrub();
  }

  std::size_t size() const noexcept { return size_; }

  /// One epoch's labels with DistanceArray's load(v) / relax_min(v, d)
  /// shape, so the A* kernel (algorithms/astar.h) runs over a lane.
  struct View {
    VersionedLabels& labels;
    std::uint64_t epoch;
    std::uint64_t load(std::size_t v) const noexcept {
      return labels.load(v, epoch);
    }
    bool relax_min(std::size_t v, std::uint64_t dist) noexcept {
      return labels.relax_min(v, dist, epoch);
    }
  };

  /// Issue a fresh epoch, logically resetting every slot to kUnreached.
  /// Serialized by the caller; never returns 0.
  std::uint64_t new_epoch() {
    if (++epoch_ == kEpochLimit) {
      scrub();
      epoch_ = 1;
    }
    return epoch_;
  }

  /// The distance of `v` under `epoch`, kUnreached when the slot was
  /// last written under a different epoch.
  std::uint64_t load(std::size_t v, std::uint64_t epoch) const noexcept {
    const std::uint64_t word = slots_[v].load(std::memory_order_relaxed);
    return (word >> kDistBits) == epoch ? (word & kDistMask) : kUnreached;
  }

  void store(std::size_t v, std::uint64_t dist, std::uint64_t epoch) noexcept {
    assert(dist <= kMaxDistance);
    slots_[v].store(pack(epoch, dist), std::memory_order_relaxed);
  }

  /// CAS-min under `epoch`: true when `dist` improved the slot (a slot
  /// from another epoch counts as unreached and always loses).
  bool relax_min(std::size_t v, std::uint64_t dist, std::uint64_t epoch) noexcept {
    assert(dist <= kMaxDistance);
    const std::uint64_t next = pack(epoch, dist);
    std::uint64_t cur = slots_[v].load(std::memory_order_relaxed);
    while (dist < decode(cur, epoch)) {
      if (slots_[v].compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

 private:
  static std::uint64_t pack(std::uint64_t epoch, std::uint64_t dist) noexcept {
    return (epoch << kDistBits) | dist;
  }
  static std::uint64_t decode(std::uint64_t word, std::uint64_t epoch) noexcept {
    return (word >> kDistBits) == epoch ? (word & kDistMask) : kUnreached;
  }

  /// Reset every slot to epoch 0 (never a current epoch) + the distance
  /// sentinel, so any decode misses.
  void scrub() noexcept {
    for (std::size_t v = 0; v < size_; ++v) {
      slots_[v].store(pack(0, kDistMask), std::memory_order_relaxed);
    }
  }

  std::size_t size_;
  // Plain (non-atomic) on purpose: bumped only under the service's
  // admission lock, read by workers via their job's captured epoch.
  std::uint64_t epoch_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
};

}  // namespace smq
