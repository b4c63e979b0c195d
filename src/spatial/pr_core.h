#ifndef POPAN_SPATIAL_PR_CORE_H_
#define POPAN_SPATIAL_PR_CORE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "spatial/census.h"
#include "spatial/knn_heap.h"
#include "spatial/node_arena.h"
#include "spatial/query_cost.h"
#include "spatial/soa_buffer.h"
#include "util/check.h"
#include "util/status.h"
#include "util/statusor.h"

namespace popan::spatial {

/// Configuration of a generalized PR tree.
struct PrTreeOptions {
  /// Node capacity m: a leaf splits when it would hold more than this many
  /// points. m = 1 gives the simple PR quadtree of the paper's §III
  /// example; the paper's Tables 1–2 sweep m = 1…8.
  size_t capacity = 1;

  /// Depth at which splitting stops; a leaf at this depth absorbs points
  /// beyond `capacity`. The paper's implementation truncated at depth 9
  /// (the Table 3 anomaly at depth 9 is this artifact). Defaults high
  /// enough to be effectively unlimited for random real-valued data.
  size_t max_depth = 64;
};

/// One node of a PR tree over D dimensions, the layout both storage
/// policies share. A node is a leaf iff is_leaf; then `points` holds its
/// contents structure-of-arrays (one contiguous lane per axis, up to
/// kInlineLeafCapacity inline, spilling to the heap above), so leaf scans
/// run the SIMD filters of util/simd.h. Otherwise `children` names the
/// 2^D quadrants: arena indices for the in-place tree (kPointerLinks
/// false), pointers to immutable nodes for the path-copying one.
template <size_t D, bool kPointerLinks>
struct PrNode {
  static constexpr size_t kDims = D;
  static constexpr size_t kFanout = size_t{1} << D;
  /// Points stored inline per leaf before spilling to the heap; matches
  /// the paper's largest studied capacity (m = 8).
  static constexpr size_t kInlineLeafCapacity = 8;

  using Handle = std::conditional_t<kPointerLinks, const PrNode*, NodeIndex>;

  static constexpr Handle NullHandle() {
    if constexpr (kPointerLinks) {
      return nullptr;
    } else {
      return kNullNode;
    }
  }

  static constexpr std::array<Handle, kFanout> NullChildren() {
    std::array<Handle, kFanout> c{};
    for (size_t q = 0; q < kFanout; ++q) c[q] = NullHandle();
    return c;
  }

  bool is_leaf = true;
  std::array<Handle, kFanout> children = NullChildren();
  SoaBuffer<D, kInlineLeafCapacity> points;
};

/// One step of a recorded root-to-leaf descent: the node, and the
/// quadrant the descent took out of it (unused on the final leaf step).
template <typename Handle>
struct PrPathStep {
  Handle node;
  size_t quadrant;
};

/// The whole-tree quantities every mutation keeps exact: points, leaves,
/// and the live occupancy-by-depth histogram behind LiveCensus().
struct PrTreeTotals {
  size_t size = 0;
  size_t leaf_count = 1;
  LiveHistogram hist;
};

/// The read algorithms of a PR tree — Contains, the cost-counted range,
/// partial-match and k-NN visitors, and the leaf/node walks — written once
/// for any node source. `Derived` supplies
///   const BoxT& bounds() const;  size_t size() const;
///   Handle RootHandle() const;   const Node& NodeAt(Handle) const;
/// PrTree reads its arena, SnapshotView the immutable nodes of a pinned
/// version; both therefore report identical results, visit orders and
/// QueryCost counters for the same point set.
///
/// Every walk is iterative (explicit stack) and allocation-local, so deep
/// trees cannot overflow the call stack and concurrent calls on a shared
/// const tree are safe.
template <typename Derived, typename Node>
class PrTreeReads {
 public:
  using PointT = geo::Point<Node::kDims>;
  using BoxT = geo::Box<Node::kDims>;

  /// True iff an equal point is stored.
  bool Contains(const PointT& p) const {
    if (!Bounds().Contains(p)) return false;
    Handle h = Root();
    BoxT box = Bounds();
    while (!At(h).is_leaf) {
      const size_t q = box.QuadrantOf(p);
      h = At(h).children[q];
      box = box.Quadrant(q);
    }
    const Node& leaf = At(h);
    for (size_t i = 0, n = leaf.points.size(); i < n; ++i) {
      if (leaf.points.Matches(i, p)) return true;
    }
    return false;
  }

  /// Returns all stored points inside `query` (half-open box semantics).
  std::vector<PointT> RangeQuery(const BoxT& query) const {
    std::vector<PointT> out;
    QueryCost cost;
    RangeQueryVisit(query, &cost,
                    [&out](const PointT& p) { out.push_back(p); });
    return out;
  }

  /// Cost-counted orthogonal range search: calls fn(point) for every
  /// stored point inside `query` (half-open box semantics), in preorder
  /// quadrant order. A node is counted in nodes_visited iff its block
  /// intersects the query; rejected children count in pruned_subtrees.
  template <typename Fn>
  void RangeQueryVisit(const BoxT& query, QueryCost* cost, Fn fn) const {
    POPAN_DCHECK(cost != nullptr);
    if (!Bounds().Intersects(query)) {
      ++cost->pruned_subtrees;
      return;
    }
    std::vector<WalkFrame> stack;
    stack.reserve(kWalkStackHint);
    stack.push_back(WalkFrame{Root(), Bounds(), 0});
    while (!stack.empty()) {
      WalkFrame f = stack.back();
      stack.pop_back();
      ++cost->nodes_visited;
      const Node& node = At(f.node);
      if (node.is_leaf) {
        ++cost->leaves_touched;
        // SIMD point-in-box filter over the leaf's coordinate lanes;
        // match order and counter arithmetic are identical to the scalar
        // per-point loop on every dispatch path.
        cost->points_scanned += node.points.size();
        ForEachInBox(node.points, query,
                     [&node, &fn](size_t i) { fn(node.points.Get(i)); });
        continue;
      }
      // Push children in reverse so quadrant 0 pops first (preorder).
      for (size_t q = kFanout; q-- > 0;) {
        BoxT child = f.box.Quadrant(q);
        if (child.Intersects(query)) {
          stack.push_back(WalkFrame{node.children[q], child, f.depth + 1});
        } else {
          ++cost->pruned_subtrees;
        }
      }
    }
  }

  /// Cost-counted partial-match search: fixes coordinate `axis` to
  /// `value` and calls fn(point) for every stored point with
  /// point[axis] == value. Traverses exactly the blocks whose axis
  /// interval contains `value` under the half-open rule
  /// (lo[axis] <= value < hi[axis]); with random real-valued data the
  /// result set is almost surely empty and the traversal cost IS the
  /// measurement (the paper-adjacent N^((sqrt(17)-3)/2) law).
  template <typename Fn>
  void PartialMatchVisit(size_t axis, double value, QueryCost* cost,
                         Fn fn) const {
    POPAN_CHECK(axis < Node::kDims);
    POPAN_DCHECK(cost != nullptr);
    if (value < Bounds().lo()[axis] || value >= Bounds().hi()[axis]) {
      ++cost->pruned_subtrees;
      return;
    }
    std::vector<WalkFrame> stack;
    stack.reserve(kWalkStackHint);
    stack.push_back(WalkFrame{Root(), Bounds(), 0});
    while (!stack.empty()) {
      WalkFrame f = stack.back();
      stack.pop_back();
      ++cost->nodes_visited;
      const Node& node = At(f.node);
      if (node.is_leaf) {
        ++cost->leaves_touched;
        // SIMD equality filter on the fixed axis lane (same order and
        // counters as the scalar loop; IEEE == either way).
        cost->points_scanned += node.points.size();
        ForEachEqualOnAxis(node.points, axis, value, [&node, &fn](size_t i) {
          fn(node.points.Get(i));
        });
        continue;
      }
      for (size_t q = kFanout; q-- > 0;) {
        BoxT child = f.box.Quadrant(q);
        if (child.lo()[axis] <= value && value < child.hi()[axis]) {
          stack.push_back(WalkFrame{node.children[q], child, f.depth + 1});
        } else {
          ++cost->pruned_subtrees;
        }
      }
    }
  }

  /// Returns the stored point nearest to `target` (Euclidean metric), or
  /// NotFound on an empty tree. Ties broken by the canonical order.
  [[nodiscard]] StatusOr<PointT> Nearest(const PointT& target) const {
    if (Self().size() == 0) return Status::NotFound("tree is empty");
    std::vector<PointT> best = NearestK(target, 1);
    POPAN_CHECK(!best.empty());
    return best[0];
  }

  /// Returns the k stored points nearest to `target`, ascending by the
  /// canonical (distance, x, y) key (fewer if the tree holds fewer than
  /// k). k must be >= 1.
  std::vector<PointT> NearestK(const PointT& target, size_t k) const {
    QueryCost cost;
    return NearestK(target, k, &cost);
  }

  /// Cost-counted k-nearest-neighbor search. Iterative depth-first
  /// descent with children pushed far-to-near, so the nearest subtree is
  /// explored first and the pruning radius (the current k-th best
  /// distance) tightens as early as possible. Subtrees cut off by the
  /// radius test — at push or at pop, as the radius shrinks between the
  /// two — count in pruned_subtrees. Equal-distance ties resolve by the
  /// canonical coordinate order (knn_heap.h), so the result is
  /// independent of traversal order and identical across backends.
  std::vector<PointT> NearestK(const PointT& target, size_t k,
                               QueryCost* cost) const {
    POPAN_CHECK(k >= 1);
    POPAN_DCHECK(cost != nullptr);
    KnnHeap<PointT, PointTieLess> heap(k);
    std::vector<DistFrame> stack;
    stack.reserve(kWalkStackHint);
    stack.push_back(
        DistFrame{Root(), Bounds(), Bounds().DistanceSquaredTo(target)});
    while (!stack.empty()) {
      DistFrame f = stack.back();
      stack.pop_back();
      if (heap.ShouldPrune(f.d2)) {
        ++cost->pruned_subtrees;
        continue;
      }
      ++cost->nodes_visited;
      const Node& node = At(f.node);
      if (node.is_leaf) {
        ++cost->leaves_touched;
        // Deliberately scalar: the distance accumulation a*a + acc is a
        // fusable shape the compiler may contract to FMA, so a hand-SIMD
        // version could not stay bitwise identical (see util/simd.h).
        for (size_t i = 0, n = node.points.size(); i < n; ++i) {
          ++cost->points_scanned;
          const PointT p = node.points.Get(i);
          heap.Offer(p.DistanceSquared(target), p);
        }
        continue;
      }
      std::array<std::pair<double, size_t>, kFanout> order;
      for (size_t q = 0; q < kFanout; ++q) {
        order[q] = {f.box.Quadrant(q).DistanceSquaredTo(target), q};
      }
      std::sort(order.begin(), order.end());
      // Far-to-near onto the LIFO stack; the nearest child pops first.
      for (size_t i = kFanout; i-- > 0;) {
        const auto& [d2, q] = order[i];
        if (heap.ShouldPrune(d2)) {
          ++cost->pruned_subtrees;
          continue;
        }
        stack.push_back(DistFrame{node.children[q], f.box.Quadrant(q), d2});
      }
    }
    return heap.TakeSorted();
  }

  /// Calls fn(box, depth, occupancy) for every leaf in preorder (children
  /// in quadrant order). Depth of the root is 0; a leaf's block area is
  /// bounds.Volume() / 2^(D*depth).
  template <typename Fn>
  void VisitLeaves(Fn fn) const {
    Walk([&fn](const WalkFrame& f, const Node& node) {
      if (node.is_leaf) {
        fn(f.box, static_cast<size_t>(f.depth), node.points.size());
      }
    });
  }

  /// Calls fn(box, depth, is_leaf, occupancy) for every node, preorder.
  template <typename Fn>
  void VisitAllNodes(Fn fn) const {
    Walk([&fn](const WalkFrame& f, const Node& node) {
      fn(f.box, static_cast<size_t>(f.depth), node.is_leaf,
         node.points.size());
    });
  }

  /// Calls fn(box, depth, std::span<const PointT>) for every leaf in
  /// preorder (children in quadrant order — Z order), exposing the points.
  /// The span is assembled from the leaf's coordinate lanes into a
  /// traversal-local scratch buffer and is valid only for the duration of
  /// the callback.
  template <typename Fn>
  void VisitLeavesPoints(Fn fn) const {
    std::vector<PointT> scratch;
    scratch.reserve(Node::kInlineLeafCapacity);
    Walk([&fn, &scratch](const WalkFrame& f, const Node& node) {
      if (!node.is_leaf) return;
      scratch.clear();
      for (size_t i = 0, n = node.points.size(); i < n; ++i) {
        scratch.push_back(node.points.Get(i));
      }
      fn(f.box, static_cast<size_t>(f.depth),
         std::span<const PointT>(scratch.data(), scratch.size()));
    });
  }

  /// Returns every stored point, leaves in Z order.
  std::vector<PointT> AllPoints() const {
    std::vector<PointT> out;
    out.reserve(Self().size());
    VisitLeavesPoints(
        [&out](const BoxT&, size_t, std::span<const PointT> pts) {
          out.insert(out.end(), pts.begin(), pts.end());
        });
    return out;
  }

 private:
  using Handle = typename Node::Handle;
  static constexpr size_t kFanout = Node::kFanout;

  /// Explicit-stack frame for the traversal methods.
  struct WalkFrame {
    Handle node;
    BoxT box;
    uint32_t depth;
  };
  /// Frame for the best-first k-NN descent: the block's distance² to the
  /// target is computed at push time and re-checked at pop time, because
  /// the pruning radius may have shrunk in between.
  struct DistFrame {
    Handle node;
    BoxT box;
    double d2;
  };
  static constexpr size_t kWalkStackHint = 64;

  const Derived& Self() const { return static_cast<const Derived&>(*this); }
  const BoxT& Bounds() const { return Self().bounds(); }
  Handle Root() const { return Self().RootHandle(); }
  const Node& At(Handle h) const { return Self().NodeAt(h); }

  /// Preorder walk of every node, children in quadrant order:
  /// visit(frame, node) per node.
  template <typename Visit>
  void Walk(Visit visit) const {
    std::vector<WalkFrame> stack;
    stack.reserve(kWalkStackHint);
    stack.push_back(WalkFrame{Root(), Bounds(), 0});
    while (!stack.empty()) {
      WalkFrame f = stack.back();
      stack.pop_back();
      const Node& node = At(f.node);
      visit(f, node);
      if (node.is_leaf) continue;
      for (size_t q = kFanout; q-- > 0;) {
        stack.push_back(
            WalkFrame{node.children[q], f.box.Quadrant(q), f.depth + 1});
      }
    }
  }
};

/// The PR tree's update rule, written once over a storage policy: the
/// descent that records the root-to-leaf path, the duplicate test, the
/// absorb-or-split choice, the split cascade, the erase collapse walk,
/// the live census bookkeeping, and the invariant walk. The policy owns
/// only where nodes live:
///
///   Handle root() const;                the current root
///   const Node& Get(Handle) const;      read any node
///   Node& Mut(Handle);                  write a node this operation owns
///   Handle Allocate();                  a fresh empty leaf
///   Handle MakeWritable(path, level);   the path node at `level`, made
///                                       writable (with its ancestors)
///   void Release(Handle);               unlink a node for good
///   void Commit(const PrTreeTotals&);   end of a successful mutation
///
/// ArenaStorage (pr_tree.h) edits arena nodes in place and commits
/// nothing; PathCopyStorage (snapshot_view.h) copies the path on demand,
/// retires what it replaces through the epoch manager, and publishes a
/// Version at Commit. Because both run this one algorithm, a path-copied
/// tree is bitwise identical to the in-place tree built from the same
/// operations — census, shape and leaf point order alike.
template <typename Storage>
class PrTreeCore {
 protected:
  using Node = typename Storage::Node;
  using Handle = typename Node::Handle;

 public:
  using PointT = geo::Point<Node::kDims>;
  using BoxT = geo::Box<Node::kDims>;
  static constexpr size_t kFanout = Node::kFanout;

  /// Creates an empty tree over the root block `bounds`; `storage_args`
  /// construct the storage policy.
  template <typename... StorageArgs>
  explicit PrTreeCore(const BoxT& bounds, const PrTreeOptions& options,
                      StorageArgs&&... storage_args)
      : bounds_(bounds),
        options_(options),
        storage_(std::forward<StorageArgs>(storage_args)...) {
    POPAN_CHECK(options_.capacity >= 1) << "capacity must be at least 1";
    ResetTotals();
  }

  /// The root block.
  const BoxT& bounds() const { return bounds_; }

  /// The configured node capacity m.
  size_t capacity() const { return options_.capacity; }

  /// The configured truncation depth.
  size_t max_depth() const { return options_.max_depth; }

  /// Number of points stored.
  size_t size() const { return totals_.size; }
  bool empty() const { return totals_.size == 0; }

  /// Number of leaf nodes (the paper's "nodes": only leaves hold data and
  /// only leaves are counted in the population censuses).
  size_t LeafCount() const { return totals_.leaf_count; }

  /// The live occupancy-by-depth histogram folded into a Census — equal
  /// to TakeCensus(tree), but O(depths x occupancies) with no tree walk:
  /// the histogram is kept exact in O(1) at every insert, erase, split
  /// and collapse.
  Census LiveCensus() const { return totals_.hist.ToCensus(); }

  /// Inserts `p`. Returns OutOfRange if p is outside the root block and
  /// AlreadyExists if an equal point is already stored; failed inserts
  /// change (and commit) nothing.
  [[nodiscard]] Status Insert(const PointT& p) {
    if (!bounds_.Contains(p)) {
      return Status::OutOfRange("point outside the tree bounds");
    }
    BoxT box = bounds_;
    const size_t depth = Descend(p, &box);
    const Node& leaf = storage_.Get(path_.back().node);
    const size_t n = leaf.points.size();
    for (size_t i = 0; i < n; ++i) {
      if (leaf.points.Matches(i, p)) {
        return Status::AlreadyExists("duplicate point");
      }
    }
    if (n < options_.capacity || depth >= options_.max_depth) {
      storage_.Mut(storage_.MakeWritable(path_, depth)).points.push_back(p);
      totals_.hist.Remove(depth, n);
      totals_.hist.Add(depth, n + 1);
    } else {
      // The splitting rule fires: the block would exceed capacity. Stash
      // the m+1 points in the reusable scratch buffer; the leaf becomes an
      // internal node in the cascade.
      split_points_.clear();
      for (size_t i = 0; i < n; ++i) {
        split_points_.push_back(leaf.points.Get(i));
      }
      split_points_.push_back(p);
      totals_.hist.Remove(depth, n);
      SplitCascade(storage_.MakeWritable(path_, depth), box, depth);
    }
    ++totals_.size;
    storage_.Commit(totals_);
    return Status::OK();
  }

  /// Removes `p`. Returns NotFound if it is not stored. After a removal,
  /// any chain of internal nodes whose total occupancy fits in one leaf is
  /// collapsed, so the tree is always the minimal decomposition for its
  /// contents (insertion order independence — a defining PR property).
  [[nodiscard]] Status Erase(const PointT& p) {
    if (!bounds_.Contains(p)) {
      return Status::NotFound("point outside the tree bounds");
    }
    BoxT box = bounds_;
    const size_t depth = Descend(p, &box);
    const Node& leaf = storage_.Get(path_.back().node);
    const size_t n = leaf.points.size();
    size_t found = n;
    for (size_t i = 0; i < n; ++i) {
      if (leaf.points.Matches(i, p)) {
        found = i;
        break;
      }
    }
    if (found == n) return Status::NotFound("point not stored");
    storage_.Mut(storage_.MakeWritable(path_, depth))
        .points.SwapRemoveAt(found);
    totals_.hist.Remove(depth, n);
    totals_.hist.Add(depth, n - 1);
    --totals_.size;
    // Collapse deepest-first along the recorded path. Once a level fails
    // to collapse it stays internal, so no shallower ancestor can have
    // all-leaf children either — stop there.
    for (size_t level = depth; level-- > 0;) {
      if (!TryCollapse(level)) break;
    }
    storage_.Commit(totals_);
    return Status::OK();
  }

  /// Verifies structural invariants; returns Internal on violation:
  ///  - every leaf holds at most `capacity` points unless at max_depth;
  ///  - every internal node has 2^D children and holds no points;
  ///  - every point lies inside its leaf's block;
  ///  - no internal node's subtree fits within `capacity` (minimality);
  ///  - cached size / leaf counts match reality;
  ///  - the live census histogram matches a fresh walk of the tree.
  [[nodiscard]] Status CheckInvariants() const {
    size_t points_seen = 0;
    size_t leaves_seen = 0;
    LiveHistogram walked;
    POPAN_RETURN_IF_ERROR(CheckRec(storage_.root(), bounds_, 0, &points_seen,
                                   &leaves_seen, &walked));
    if (points_seen != totals_.size) {
      return Status::Internal("size mismatch: counted " +
                              std::to_string(points_seen) + " cached " +
                              std::to_string(totals_.size));
    }
    if (leaves_seen != totals_.leaf_count) {
      return Status::Internal("leaf count mismatch");
    }
    return totals_.hist.DiffAgainstWalk(walked);
  }

 protected:
  /// The totals of an empty tree: one empty root leaf.
  void ResetTotals() {
    totals_ = PrTreeTotals{};
    totals_.hist.Add(0, 0);
  }

  /// Descends to the leaf owning `p`, recording the root-to-leaf path in
  /// path_. Returns the leaf's depth; `*box` becomes its block.
  size_t Descend(const PointT& p, BoxT* box) {
    path_.clear();
    Handle h = storage_.root();
    for (;;) {
      const Node& node = storage_.Get(h);
      if (node.is_leaf) break;
      const size_t q = box->QuadrantOf(p);
      path_.push_back(PrPathStep<Handle>{h, q});
      h = node.children[q];
      *box = box->Quadrant(q);
    }
    path_.push_back(PrPathStep<Handle>{h, 0});
    return path_.size() - 1;
  }

  /// The split cascade, iteratively: turns the writable leaf `h` (block
  /// `box` at `depth`, census entry already removed) into an internal
  /// node with 2^D fresh empty leaves and distributes split_points_. A
  /// child can only exceed capacity if it receives ALL m+1 points
  /// (capacity is m), so at most one child cascades — when every point
  /// lands in the same quadrant (the paper's "perhaps several times" case
  /// with probability 4^-m) — and the cascade is a loop, not a recursion.
  void SplitCascade(Handle h, BoxT box, size_t depth) {
    for (;;) {
      std::array<Handle, kFanout> ch;
      for (size_t q = 0; q < kFanout; ++q) ch[q] = storage_.Allocate();
      {
        // Fetched after the allocations, which may move an arena slab.
        Node& node = storage_.Mut(h);
        node.is_leaf = false;
        node.points.clear();
        node.children = ch;
      }
      totals_.leaf_count += kFanout - 1;
      for (size_t q = 0; q < kFanout; ++q) totals_.hist.Add(depth + 1, 0);

      std::array<size_t, kFanout> counts{};
      split_codes_.clear();
      for (const PointT& pt : split_points_) {
        const size_t q = box.QuadrantOf(pt);
        split_codes_.push_back(static_cast<uint8_t>(q));
        ++counts[q];
      }
      size_t sole = kFanout;  // the quadrant holding every point, if any
      for (size_t q = 0; q < kFanout; ++q) {
        if (counts[q] == split_points_.size()) sole = q;
      }
      if (sole != kFanout && depth + 1 < options_.max_depth) {
        h = ch[sole];
        box = box.Quadrant(sole);
        ++depth;
        totals_.hist.Remove(depth, 0);  // this fresh leaf splits next turn
        continue;
      }
      // The points scatter (or the children sit at max_depth and absorb
      // everything): place them and settle the census.
      for (size_t i = 0; i < split_points_.size(); ++i) {
        storage_.Mut(ch[split_codes_[i]]).points.push_back(split_points_[i]);
      }
      for (size_t q = 0; q < kFanout; ++q) {
        if (counts[q] != 0) {
          totals_.hist.Remove(depth + 1, 0);
          totals_.hist.Add(depth + 1, counts[q]);
        }
      }
      return;
    }
  }

  /// If every child of the internal path node at `level` is a leaf and
  /// their total occupancy fits in one leaf, merges them into it and
  /// releases the children. Returns true iff the node collapsed.
  bool TryCollapse(size_t level) {
    size_t total = 0;
    for (Handle child : storage_.Get(path_[level].node).children) {
      if (!storage_.Get(child).is_leaf) return false;
      total += storage_.Get(child).points.size();
    }
    if (total > options_.capacity) return false;
    Node& node = storage_.Mut(storage_.MakeWritable(path_, level));
    const std::array<Handle, kFanout> ch = node.children;
    node.is_leaf = true;
    node.points.clear();
    node.children = Node::NullChildren();
    for (size_t q = 0; q < kFanout; ++q) {
      const Node& child = storage_.Get(ch[q]);
      totals_.hist.Remove(level + 1, child.points.size());
      for (size_t i = 0, n = child.points.size(); i < n; ++i) {
        node.points.push_back(child.points.Get(i));
      }
      // Releasing never moves other nodes, so `node` stays valid.
      storage_.Release(ch[q]);
    }
    totals_.hist.Add(level, total);
    totals_.leaf_count -= kFanout - 1;
    return true;
  }

  [[nodiscard]] Status CheckRec(Handle h, const BoxT& box, size_t depth,
                                size_t* points_seen, size_t* leaves_seen,
                                LiveHistogram* walked) const {
    const Node& node = storage_.Get(h);
    if (node.is_leaf) {
      ++*leaves_seen;
      *points_seen += node.points.size();
      walked->Add(depth, node.points.size());
      if (node.points.size() > options_.capacity &&
          depth < options_.max_depth) {
        return Status::Internal("leaf over capacity below max depth");
      }
      for (size_t i = 0, n = node.points.size(); i < n; ++i) {
        PointT p = node.points.Get(i);
        if (!box.Contains(p)) {
          return Status::Internal("point " + p.ToString() +
                                  " outside its leaf block " +
                                  box.ToString());
        }
      }
      return Status::OK();
    }
    if (!node.points.empty()) {
      return Status::Internal("internal node holds points");
    }
    size_t subtree_points = 0;
    bool all_leaf_children = true;
    for (size_t q = 0; q < kFanout; ++q) {
      if (node.children[q] == Node::NullHandle()) {
        return Status::Internal("internal node with missing child");
      }
      if (!storage_.Get(node.children[q]).is_leaf) all_leaf_children = false;
      const size_t before = *points_seen;
      POPAN_RETURN_IF_ERROR(CheckRec(node.children[q], box.Quadrant(q),
                                     depth + 1, points_seen, leaves_seen,
                                     walked));
      subtree_points += *points_seen - before;
    }
    // Minimality: an internal node whose whole subtree fits in a leaf
    // should have been collapsed (PR trees are canonical for a point set).
    if (subtree_points <= options_.capacity && all_leaf_children) {
      return Status::Internal("non-minimal decomposition: " +
                              std::to_string(subtree_points) +
                              " points under an internal node");
    }
    return Status::OK();
  }

  BoxT bounds_;
  PrTreeOptions options_;
  Storage storage_;
  PrTreeTotals totals_;
  // Reusable scratch so the insert/erase hot paths are allocation-free
  // after warm-up.
  std::vector<PrPathStep<Handle>> path_;
  std::vector<PointT> split_points_;
  std::vector<uint8_t> split_codes_;
};

}  // namespace popan::spatial

#endif  // POPAN_SPATIAL_PR_CORE_H_
