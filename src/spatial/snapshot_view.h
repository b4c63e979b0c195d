#ifndef POPAN_SPATIAL_SNAPSHOT_VIEW_H_
#define POPAN_SPATIAL_SNAPSHOT_VIEW_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "spatial/census.h"
#include "spatial/epoch.h"
#include "spatial/pr_core.h"
#include "util/check.h"
#include "util/status.h"
#include "util/statusor.h"

namespace popan::spatial {

template <size_t D>
class SnapshotView;

/// The path-copying storage policy of PrTreeCore (see pr_core.h): a
/// published node is never modified. MakeWritable copies the recorded
/// root-to-leaf path top-down on first use, relinking each copy into its
/// copied parent, and queues the originals for retirement; nodes the
/// operation itself created (copies and allocations) are freed at once
/// when released, anything a reader might still reach is retired through
/// the epoch manager. Commit publishes the new root, with the tree totals,
/// as the next immutable Version in one atomic head store, retires the
/// replaced version and nodes, and advances the epoch.
///
/// Writer-thread only, except head loads by Snapshot (see epoch.h for the
/// memory-ordering argument).
template <size_t D>
class PathCopyStorage {
 public:
  using Node = PrNode<D, /*kPointerLinks=*/true>;
  using Handle = const Node*;

  /// One published state of the tree: the version header readers pin.
  /// Immutable after the head store that publishes it.
  struct Version {
    const Node* root = nullptr;
    uint64_t sequence = 0;
    PrTreeTotals totals;
  };

  explicit PathCopyStorage(size_t epoch_readers)
      : epochs_(epoch_readers), root_(new Node) {}

  ~PathCopyStorage() {
    DeleteSubtree(root_);
    delete head_.load(std::memory_order_relaxed);
    // epochs_'s destructor drains the limbo list.
  }

  PathCopyStorage(const PathCopyStorage&) = delete;
  PathCopyStorage& operator=(const PathCopyStorage&) = delete;

  Handle root() const { return root_; }
  static const Node& Get(Handle h) { return *h; }
  Node& Mut(Handle h) {
    POPAN_DCHECK(std::find(fresh_.begin(), fresh_.end(), h) != fresh_.end())
        << "write to a published node";
    // Every node is allocated non-const; only unpublished ones get here.
    return *const_cast<Node*>(h);
  }
  Handle Allocate() {
    Node* node = new Node;
    fresh_.push_back(node);
    return node;
  }
  Handle MakeWritable(std::span<PrPathStep<Handle>> path, size_t level) {
    for (; copied_levels_ <= level; ++copied_levels_) {
      PrPathStep<Handle>& step = path[copied_levels_];
      Node* copy = new Node(*step.node);
      to_retire_.push_back(step.node);
      fresh_.push_back(copy);
      if (copied_levels_ == 0) {
        root_ = copy;
      } else {
        const PrPathStep<Handle>& parent = path[copied_levels_ - 1];
        Mut(parent.node).children[parent.quadrant] = copy;
      }
      step.node = copy;
    }
    return path[level].node;
  }
  void Release(Handle h) {
    auto it = std::find(fresh_.begin(), fresh_.end(), h);
    if (it == fresh_.end()) {
      to_retire_.push_back(h);
      return;
    }
    *it = fresh_.back();
    fresh_.pop_back();
    delete h;  // created by this operation, never published
  }

  /// Publishes the first version, at `sequence`, over the empty root.
  void PublishInitial(uint64_t sequence, const PrTreeTotals& totals) {
    head_.store(new Version{root_, sequence, totals},
                std::memory_order_seq_cst);
  }

  /// Publishes the mutated tree as the next version and retires
  /// everything the operation unlinked. One epoch advance + reclaim
  /// attempt per publish keeps the limbo list short and the reclamation
  /// counters a pure function of the operation trace when no readers are
  /// pinned.
  void Commit(const PrTreeTotals& totals) {
    const Version* old = head_.load(std::memory_order_relaxed);
    head_.store(new Version{root_, old->sequence + 1, totals},
                std::memory_order_seq_cst);
    epochs_.RetireObject(old);
    for (const Node* node : to_retire_) epochs_.RetireObject(node);
    to_retire_.clear();
    fresh_.clear();
    copied_levels_ = 0;
    epochs_.AdvanceEpoch();
    epochs_.Reclaim();
  }

  /// The newest version, writer side (relaxed: the writer wrote it).
  const Version* head() const { return head_.load(std::memory_order_relaxed); }

  /// The newest version, reader side. Load it only after pinning an
  /// epoch: the pin then protects every node reachable from it (epoch.h).
  const Version* PinnedHead() const {
    return head_.load(std::memory_order_seq_cst);
  }

  EpochManager& epochs() const { return epochs_; }

 private:
  static void DeleteSubtree(const Node* root) {
    std::vector<const Node*> stack;
    stack.push_back(root);
    while (!stack.empty()) {
      const Node* node = stack.back();
      stack.pop_back();
      if (!node->is_leaf) {
        stack.insert(stack.end(), node->children.begin(),
                     node->children.end());
      }
      delete node;
    }
  }

  mutable EpochManager epochs_;
  std::atomic<const Version*> head_{nullptr};
  // The writer's current root: the head's, or its copy mid-operation.
  const Node* root_;
  // Per-operation state, reset by Commit: originals to retire, nodes this
  // operation created, and how many leading path levels are copies.
  std::vector<const Node*> to_retire_;
  std::vector<const Node*> fresh_;
  size_t copied_levels_ = 0;
};

/// A copy-on-write PR tree for single-writer / multi-reader workloads:
/// PrTreeCore — the same splitting rule, collapse rule, census
/// bookkeeping and boundary semantics as PrTree, by construction — over
/// PathCopyStorage. Every Insert/Erase copies the root-to-leaf path (plus
/// the split or collapse subtree) and publishes the new root inside a new
/// immutable Version with one atomic store. Readers pin an epoch and load
/// the version head (SnapshotView); from then on they traverse a frozen
/// tree that no writer will ever touch, so queries never block and never
/// see a torn state. Replaced nodes and versions retire into the epoch
/// limbo list and are freed only once no pinned reader can reach them.
///
/// Each Version carries the tree totals at its sequence number, so
/// SnapshotView::LiveCensus() is O(depths x occupancies) and bitwise
/// identical to a stop-the-world census of the same prefix of operations
/// — the storm tests' core assertion.
///
/// Threading contract: Insert/Erase/CheckInvariants/destructor on the
/// single writer thread; Snapshot() and everything on SnapshotView from
/// any thread. The tree must outlive every SnapshotView taken from it.
template <size_t D>
class CowPrTree : public PrTreeCore<PathCopyStorage<D>> {
  using Core = PrTreeCore<PathCopyStorage<D>>;

 public:
  /// Creates an empty tree over `bounds`. `initial_sequence` anchors the
  /// version counter — pass the WAL/checkpoint sequence the starting
  /// state reflects (0 for an empty tree) so snapshot sequence numbers
  /// line up with log sequence numbers. `epoch_readers` sizes the
  /// epoch manager's reader-slot table (concurrent pinned snapshots);
  /// the shard router sizes per-shard trees to its client budget.
  explicit CowPrTree(const geo::Box<D>& bounds,
                     const PrTreeOptions& options = {},
                     uint64_t initial_sequence = 0,
                     size_t epoch_readers = EpochManager::kMaxReaders)
      : Core(bounds, options, epoch_readers) {
    this->storage_.PublishInitial(initial_sequence, this->totals_);
  }

  /// Writer-side sequence of the newest version: the number of
  /// successful operations (WAL records) it reflects.
  uint64_t sequence() const { return this->storage_.head()->sequence; }

  /// The reclamation machinery, exposed for storm harnesses and benches
  /// (counters from any thread; Retire/Advance/Reclaim writer-only).
  EpochManager& epochs() const { return this->storage_.epochs(); }

  /// Pins the current epoch and returns a frozen view of the newest
  /// published version. Any thread; the view holds its pin until
  /// destroyed, which is what keeps its nodes out of reclamation.
  /// Aborts when all reader slots are taken — use TrySnapshot where slot
  /// exhaustion is load, not a bug.
  [[nodiscard]] SnapshotView<D> Snapshot() const {
    StatusOr<SnapshotView<D>> view = TrySnapshot();
    POPAN_CHECK(view.ok()) << view.status().ToString();
    return std::move(view).value();
  }

  /// Like Snapshot, but returns ResourceExhausted instead of aborting
  /// when every EpochManager reader slot is pinned — the form server
  /// connection handlers must use, shedding the request on error.
  [[nodiscard]] StatusOr<SnapshotView<D>> TrySnapshot() const {
    StatusOr<EpochManager::Pin> pin = epochs().TryPinReader();
    POPAN_RETURN_IF_ERROR(pin.status());
    return SnapshotView<D>(this, this->storage_.PinnedHead(),
                           std::move(pin).value());
  }
};

/// A pinned, frozen view of one CowPrTree version: the reader-side handle.
/// Construction pins an epoch; destruction releases it. The queries are
/// PrTreeReads over the version's immutable nodes — the same code PrTree
/// runs, so results, visit orders and QueryCost counters are bitwise
/// comparable with a stop-the-world tree holding the same points. Safe to
/// share across threads by const reference (the executor does exactly
/// that); the view and its source tree must outlive all such use.
template <size_t D>
class SnapshotView : public PrTreeReads<SnapshotView<D>, PrNode<D, true>> {
 public:
  using PointT = geo::Point<D>;
  using BoxT = geo::Box<D>;
  static constexpr size_t kFanout = size_t{1} << D;

  SnapshotView(SnapshotView&&) noexcept = default;
  SnapshotView& operator=(SnapshotView&&) noexcept = default;

  const BoxT& bounds() const { return tree_->bounds(); }
  size_t capacity() const { return tree_->capacity(); }
  size_t max_depth() const { return tree_->max_depth(); }

  /// The sequence number of the pinned version: the number of successful
  /// operations (WAL records) this snapshot reflects.
  uint64_t sequence() const { return version_->sequence; }

  size_t size() const { return version_->totals.size; }
  bool empty() const { return version_->totals.size == 0; }
  size_t LeafCount() const { return version_->totals.leaf_count; }

  /// The pinned version's census — bitwise identical to TakeCensus of a
  /// stop-the-world tree built from the same operation prefix.
  Census LiveCensus() const { return version_->totals.hist.ToCensus(); }

 private:
  friend class CowPrTree<D>;
  using Node = PrNode<D, true>;
  using Version = typename PathCopyStorage<D>::Version;
  friend class PrTreeReads<SnapshotView, Node>;

  SnapshotView(const CowPrTree<D>* tree, const Version* version,
               EpochManager::Pin pin)
      : tree_(tree), version_(version), pin_(std::move(pin)) {}

  const Node* RootHandle() const { return version_->root; }
  static const Node& NodeAt(const Node* h) { return *h; }

  const CowPrTree<D>* tree_;
  const Version* version_;
  EpochManager::Pin pin_;
};

/// Convenience aliases matching PrTree's.
using CowPrQuadtree = CowPrTree<2>;
using SnapshotView2 = SnapshotView<2>;

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_SNAPSHOT_VIEW_H_
