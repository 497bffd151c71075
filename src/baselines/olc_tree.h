// Concurrent ART with Optimistic Lock Coupling.
//
// This is the repository's stand-in for the paper's "ART [9]" baseline: the
// synchronized ART of Leis et al., "The ART of Practical Synchronization"
// (DaMoN 2016).  That paper proposes both ROWEX and Optimistic Lock
// Coupling; we implement OLC, which has the same node-granular write
// exclusion and lock-contention character the DCART paper measures.
//
// Readers are lock-free: they snapshot node versions during the descent and
// restart when a concurrent writer invalidates one.  Writers lock only the
// node(s) they modify; a structural change also locks the parent whose slot
// it re-points.  A grow replaces the node with a larger copy, a merge on
// delete with its remaining sibling; either marks the old node obsolete and
// defers its reclamation to the epoch manager.  A path split keeps the
// node: it moves one level down under a new branch, with a shorter prefix.
//
// Unlike Leis et al.'s fixed root, root_ itself is replaced by grows,
// splits and merges.  So every descent, after latching a node's version,
// checks again that the node is still where it was reached from: root_
// must still hold the first node, and the parent's version must be
// unchanged for every later one.  Each move of a node write-locks it, so
// from then on the checks against the node's own version cover the rest.
//
// The tree also exposes single-threaded *traced* walks used by the
// deterministic platform models (see DESIGN.md): those replay node touches
// through the cache/conflict models without any synchronization.
//
// Supported operations are lookup, insert-or-update and delete, all safe to
// run concurrently.  The paper's evaluation mixes reads and upserts only.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/cpu_trace.h"
#include "common/bytes.h"
#include "sync/cnode.h"
#include "sync/epoch.h"
#include "sync/version_lock.h"

namespace dcart::baselines {

class OlcTree {
 public:
  explicit OlcTree(std::size_t max_threads = 64);
  ~OlcTree();

  OlcTree(const OlcTree&) = delete;
  OlcTree& operator=(const OlcTree&) = delete;

  /// Single-threaded initial load (unmeasured).
  void BulkLoad(const std::vector<std::pair<Key, art::Value>>& items);

  /// Thread-safe insert-or-update.  Returns true iff the key was newly
  /// inserted.  `tracer` (optional, single-threaded model runs only)
  /// observes node touches / sync points.  With `cas_leaf_updates` the
  /// update-in-place case CAS-es the leaf value without locking the parent
  /// node (the Heart/SMART write protocol); inserts always lock the node
  /// they modify.
  bool Insert(KeyView key, art::Value value, std::size_t tid,
              sync::SyncStats& stats, OpTracer* tracer = nullptr,
              bool cas_leaf_updates = false);

  /// Thread-safe lock-free lookup.
  std::optional<art::Value> Lookup(KeyView key, std::size_t tid,
                                   sync::SyncStats& stats,
                                   OpTracer* tracer = nullptr) const;

  /// Thread-safe delete.  Returns true iff the key was present.  A removal
  /// that would leave an N4 with one child merges the node with its
  /// remaining sibling (path re-compression); underfull larger nodes are
  /// not shrunk eagerly (a memory-only tradeoff that keeps the lock
  /// footprint at parent+node+sibling).
  bool Remove(KeyView key, std::size_t tid, sync::SyncStats& stats);

  /// Resumable traversal state captured during traced walks (the SMART
  /// engine's path cache stores these).
  struct PathHint {
    const sync::CNode* node = nullptr;
    std::size_t depth = 0;  // key bytes consumed before entering `node`
  };

  /// Single-threaded traced walk to the leaf holding `key` (nullptr if
  /// absent).  If `hint_out` is non-null it captures the first node reached
  /// after consuming >= `hint_depth` key bytes.  `compact_layout` models
  /// SMART's cacheline-aligned nodes in the cache accounting.
  /// `last_internal_out` (optional) receives the deepest internal node on
  /// the walk — the leaf's parent, which is what lock-based readers
  /// synchronize on.
  sync::CLeaf* FindLeafTraced(KeyView key, OpTracer* tracer,
                              PathHint* hint_out = nullptr,
                              std::size_t hint_depth = 2,
                              bool compact_layout = false,
                              const sync::CNode** last_internal_out =
                                  nullptr) const;

  /// Same, resuming from a cached hint.  Precondition: `hint.node` routed
  /// `key` when the hint was captured; caller must check obsolescence.
  sync::CLeaf* FindLeafTracedFrom(const PathHint& hint, KeyView key,
                                  OpTracer* tracer,
                                  bool compact_layout = false) const;

  /// Single-threaded traced ordered scan: visit up to `limit` entries with
  /// key >= start in key order, reporting node touches to `tracer` (if any)
  /// and entries to `on_entry` (if any).  Returns the entry count.
  std::size_t ScanTraced(
      KeyView start, std::size_t limit, OpTracer* tracer,
      const std::function<void(KeyView, art::Value)>& on_entry = {}) const;

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  sync::CRef root() const {
    return sync::CRef::FromRaw(root_.load(std::memory_order_acquire));
  }
  sync::EpochManager& epochs() { return *epochs_; }

  /// Defer all node reclamation until DrainReclamation(); required while
  /// engines hold cross-operation node pointers (SMART's path cache).
  void set_defer_reclamation(bool defer) {
    defer_reclamation_.store(defer, std::memory_order_relaxed);
  }
  void DrainReclamation() { epochs_->DrainAll(); }

 private:
  enum class WriteOutcome { kInserted, kUpdated, kRestart };

  WriteOutcome TryInsert(KeyView key, art::Value value, std::size_t tid,
                         sync::SyncStats& stats, OpTracer* tracer,
                         bool cas_leaf_updates);
  enum class RemoveOutcome { kRemoved, kNotFound, kRestart };
  RemoveOutcome TryRemove(KeyView key, std::size_t tid,
                          sync::SyncStats& stats);
  std::optional<art::Value> TryLookup(KeyView key, sync::SyncStats& stats,
                                      OpTracer* tracer,
                                      bool& need_restart) const;

  void Retire(std::size_t tid, sync::CNode* node);

  mutable std::atomic<std::uintptr_t> root_{0};
  std::atomic<std::size_t> size_{0};
  std::unique_ptr<sync::EpochManager> epochs_;
  std::atomic<bool> defer_reclamation_{false};
};

/// Average key-array slots examined by a child search (cost-model input).
unsigned ApproxScanCost(const sync::CNode* node);

}  // namespace dcart::baselines
