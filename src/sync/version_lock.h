// Optimistic version lock, the synchronization primitive of "The ART of
// Practical Synchronization" (Leis et al., DaMoN 2016).
//
// The lock word packs [version | locked-bit | obsolete-bit].  Readers take
// no lock: they snapshot the version, read, and re-validate; any concurrent
// writer bumps the version and forces a restart.  Writers lock by CAS-ing
// the locked bit.  Unlocking adds 0b10, which clears the bit *and*
// increments the version in one step.
//
// Every CAS failure, lock-wait spin, and read-validation restart is counted
// as one lock contention: that is precisely the quantity Fig. 7 of the DCART
// paper reports.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/stats.h"
#include "common/thread_annotations.h"

namespace dcart::sync {

/// Per-thread synchronization counters, merged into OpStats after a run.
struct SyncStats {
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contentions = 0;  // CAS failures + waits + restarts
  std::uint64_t restarts = 0;
  std::uint64_t atomic_ops = 0;

  void MergeInto(OpStats& out) const {
    out.lock_acquisitions += lock_acquisitions;
    out.lock_contentions += lock_contentions;
    out.atomic_ops += atomic_ops;
  }
};

// Declared a capability so clang's thread-safety analysis can check the
// write side: CNode mutators carry REQUIRES(node->lock), and WriteUnlock /
// WriteUnlockObsolete are releases.  Acquisition happens through a
// `need_restart` out-parameter (the optimistic restart protocol), which the
// analysis' try-lock model cannot express — so acquire paths are not
// annotated; instead, call sites that have checked `need_restart` assert
// the capability with AssertHeld(), and from that point the analysis tracks
// the lock to its release on every path.
class CAPABILITY("VersionLock") VersionLock {
 public:
  static constexpr std::uint64_t kLockedBit = 0b10;
  static constexpr std::uint64_t kObsoleteBit = 0b01;

  /// Spin until unlocked, then return the version word.  Sets `need_restart`
  /// if the node became obsolete (replaced by a grow or merge).  A node that
  /// a path split moved down is not obsolete: callers must check that it is
  /// still reachable where they found it (parent version, root pointer).
  std::uint64_t ReadLockOrRestart(bool& need_restart, SyncStats& stats) const {
    std::uint64_t version = AwaitUnlocked(stats);
    if ((version & kObsoleteBit) != 0) {
      ++stats.restarts;
      ++stats.lock_contentions;
      need_restart = true;
    }
    return version;
  }

  /// Validate that no writer intervened since `version` was read.
  void ReadUnlockOrRestart(std::uint64_t version, bool& need_restart,
                           SyncStats& stats) const {
    if (word_.load(std::memory_order_acquire) != version) {
      ++stats.restarts;
      ++stats.lock_contentions;
      need_restart = true;
    }
  }

  /// Same validation without the "unlock" connotation (mid-descent check).
  void CheckOrRestart(std::uint64_t version, bool& need_restart,
                      SyncStats& stats) const {
    ReadUnlockOrRestart(version, need_restart, stats);
  }

  /// Atomically upgrade a validated read to a write lock.
  void UpgradeToWriteLockOrRestart(std::uint64_t& version, bool& need_restart,
                                   SyncStats& stats) {
    ++stats.atomic_ops;
    if (word_.compare_exchange_strong(version, version + kLockedBit,
                                      std::memory_order_acquire)) {
      version += kLockedBit;
      ++stats.lock_acquisitions;
    } else {
      ++stats.restarts;
      ++stats.lock_contentions;
      need_restart = true;
    }
  }

  /// Non-blocking write lock: fails (restart) if currently locked or
  /// obsolete instead of spinning.  Use when already holding other locks,
  /// where a spin-wait could livelock against a spinning peer.
  void TryWriteLockOrRestart(bool& need_restart, SyncStats& stats) {
    std::uint64_t version = word_.load(std::memory_order_acquire);
    if ((version & (kLockedBit | kObsoleteBit)) != 0) {
      ++stats.restarts;
      ++stats.lock_contentions;
      need_restart = true;
      return;
    }
    UpgradeToWriteLockOrRestart(version, need_restart, stats);
  }

  /// Blocking write lock (restarts if the node became obsolete).
  void WriteLockOrRestart(bool& need_restart, SyncStats& stats) {
    for (;;) {
      std::uint64_t version = ReadLockOrRestart(need_restart, stats);
      if (need_restart) return;
      UpgradeToWriteLockOrRestart(version, need_restart, stats);
      if (!need_restart) return;
      need_restart = false;  // lost the race to another writer; retry
    }
  }

  /// Release: clears the locked bit and bumps the version.
  void WriteUnlock(SyncStats& stats) RELEASE() {
    ++stats.atomic_ops;
    word_.fetch_add(kLockedBit, std::memory_order_release);
  }

  /// Release and mark the node dead (it was replaced; readers must restart).
  void WriteUnlockObsolete(SyncStats& stats) RELEASE() {
    ++stats.atomic_ops;
    word_.fetch_add(kLockedBit | kObsoleteBit, std::memory_order_release);
  }

  /// Inform the thread-safety analysis that this thread holds the write
  /// lock.  Called immediately after a *successful* conditional acquisition
  /// (i.e. once `need_restart` has been checked false); debug builds verify
  /// the claim against the lock word.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
    assert((word_.load(std::memory_order_relaxed) & kLockedBit) != 0);
  }

  /// Like AssertHeld(), for nodes that are not yet published: a freshly
  /// allocated node visible to exactly one thread satisfies the exclusive
  /// capability vacuously (there is no lock bit to check — the node has
  /// never been locked).  Only valid before the node is installed into a
  /// shared slot.
  void AssertThreadPrivate() const ASSERT_CAPABILITY(this) {}

  bool IsObsolete() const {
    return (word_.load(std::memory_order_acquire) & kObsoleteBit) != 0;
  }

 private:
  std::uint64_t AwaitUnlocked(SyncStats& stats) const {
    std::uint64_t version = word_.load(std::memory_order_acquire);
    while ((version & kLockedBit) != 0) {
      ++stats.lock_contentions;
      version = word_.load(std::memory_order_acquire);
    }
    return version;
  }

  // Version starts at 0b100 so the first unlock never yields word 0.
  mutable std::atomic<std::uint64_t> word_{0b100};
};

}  // namespace dcart::sync
