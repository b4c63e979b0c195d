#include "spatial/grid_file.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "spatial/knn_heap.h"
#include "util/check.h"

namespace popan::spatial {

namespace {

/// True when [lo, hi) has a midpoint strictly inside it at double
/// precision, i.e. halving it yields two columns of nonzero width.
bool CanHalve(double lo, double hi) {
  double mid = lo + 0.5 * (hi - lo);
  return mid > lo && mid < hi;
}

}  // namespace

GridFile::GridFile(const BoxT& domain, const GridFileOptions& options)
    : domain_(domain), options_(options) {
  POPAN_CHECK(options_.bucket_capacity >= 1);
  directory_.push_back(0);
  buckets_.push_back(Bucket{});
}

size_t GridFile::CellX(double x) const {
  // First boundary greater than x bounds the cell on the right.
  return static_cast<size_t>(
      std::upper_bound(xs_.begin(), xs_.end(), x) - xs_.begin());
}

size_t GridFile::CellY(double y) const {
  return static_cast<size_t>(
      std::upper_bound(ys_.begin(), ys_.end(), y) - ys_.begin());
}

double GridFile::XBoundary(size_t i) const {
  if (i == 0) return domain_.lo().x();
  if (i > xs_.size()) return domain_.hi().x();
  return xs_[i - 1];
}

double GridFile::YBoundary(size_t i) const {
  if (i == 0) return domain_.lo().y();
  if (i > ys_.size()) return domain_.hi().y();
  return ys_[i - 1];
}

Status GridFile::Insert(const PointT& p) {
  if (!domain_.Contains(p)) {
    return Status::OutOfRange("point outside the grid file domain");
  }
  {
    const Bucket& b = buckets_[Dir(CellX(p.x()), CellY(p.y()))];
    if (std::find(b.points.begin(), b.points.end(), p) != b.points.end()) {
      return Status::AlreadyExists("duplicate point");
    }
  }
  for (;;) {
    uint32_t bi = Dir(CellX(p.x()), CellY(p.y()));
    Bucket& b = buckets_[bi];
    if (b.points.size() < options_.bucket_capacity) {
      b.points.push_back(p);
      ++size_;
      return Status::OK();
    }
    if (!SplitBucket(bi)) {
      // Degenerate geometry (all points share coordinates); grow the
      // bucket beyond capacity rather than loop forever.
      buckets_[bi].points.push_back(p);
      ++size_;
      return Status::OK();
    }
  }
}

bool GridFile::SplitBucket(uint32_t bi) {
  // If the bucket's cell block spans more than one cell on some axis, the
  // split reuses an existing boundary and touches only the directory.
  // Otherwise a new boundary refines a scale first.
  {
    const Bucket& b = buckets_[bi];
    bool spans_x = b.ix1 - b.ix0 > 1;
    bool spans_y = b.iy1 - b.iy0 > 1;
    if (!spans_x && !spans_y) {
      // Refine the scale through this bucket's single cell. Alternate axes
      // so the decomposition stays roughly square (the grid file's
      // "cyclic" splitting policy).
      bool do_x = split_x_next_;
      split_x_next_ = !split_x_next_;
      bool x_ok = CanHalve(XBoundary(b.ix0), XBoundary(b.ix0 + 1));
      bool y_ok = CanHalve(YBoundary(b.iy0), YBoundary(b.iy0 + 1));
      // Both axes exhausted at double precision: the caller overfills.
      if (!x_ok && !y_ok) return false;
      // The preferred axis when it can still halve, else the other one.
      if (do_x ? x_ok : !y_ok) {
        RefineX(b.ix0);
      } else {
        RefineY(b.iy0);
      }
    }
  }
  // Now the block spans >= 2 cells on at least one axis. Split along the
  // wider span at its cell midpoint.
  Bucket& b = buckets_[bi];
  bool split_x = (b.ix1 - b.ix0) >= (b.iy1 - b.iy0);
  uint32_t nbi = static_cast<uint32_t>(buckets_.size());
  buckets_.push_back(Bucket{});
  Bucket& nb = buckets_.back();
  Bucket& ob = buckets_[bi];  // re-fetch: push_back may reallocate

  if (split_x) {
    size_t mid = ob.ix0 + (ob.ix1 - ob.ix0) / 2;
    nb.ix0 = mid;
    nb.ix1 = ob.ix1;
    nb.iy0 = ob.iy0;
    nb.iy1 = ob.iy1;
    ob.ix1 = mid;
    for (size_t ix = nb.ix0; ix < nb.ix1; ++ix) {
      for (size_t iy = nb.iy0; iy < nb.iy1; ++iy) Dir(ix, iy) = nbi;
    }
    double boundary = XBoundary(mid);
    std::vector<PointT> points = std::move(ob.points);
    ob.points.clear();
    for (const PointT& p : points) {
      (p.x() >= boundary ? nb : ob).points.push_back(p);
    }
  } else {
    size_t mid = ob.iy0 + (ob.iy1 - ob.iy0) / 2;
    nb.iy0 = mid;
    nb.iy1 = ob.iy1;
    nb.ix0 = ob.ix0;
    nb.ix1 = ob.ix1;
    ob.iy1 = mid;
    for (size_t ix = nb.ix0; ix < nb.ix1; ++ix) {
      for (size_t iy = nb.iy0; iy < nb.iy1; ++iy) Dir(ix, iy) = nbi;
    }
    double boundary = YBoundary(mid);
    std::vector<PointT> points = std::move(ob.points);
    ob.points.clear();
    for (const PointT& p : points) {
      (p.y() >= boundary ? nb : ob).points.push_back(p);
    }
  }
  return true;
}

void GridFile::RefineX(size_t ix) {
  double lo = XBoundary(ix);
  double hi = XBoundary(ix + 1);
  POPAN_DCHECK(CanHalve(lo, hi));
  double mid = lo + 0.5 * (hi - lo);
  xs_.insert(xs_.begin() + static_cast<ptrdiff_t>(ix), mid);

  // Rebuild the directory with the duplicated column: old cell ix becomes
  // cells ix and ix+1, both initially served by the same buckets.
  size_t old_nx = CellsX() - 1;  // CellsX already reflects the new scale
  size_t ny = CellsY();
  std::vector<uint32_t> rebuilt(CellsX() * ny);
  for (size_t iy = 0; iy < ny; ++iy) {
    for (size_t nix = 0; nix < CellsX(); ++nix) {
      size_t oix = nix <= ix ? nix : nix - 1;
      rebuilt[iy * CellsX() + nix] = directory_[iy * old_nx + oix];
    }
  }
  directory_ = std::move(rebuilt);

  // Remap every bucket's x-range: indices after ix shift right; ranges
  // containing ix widen by one cell.
  for (Bucket& b : buckets_) {
    if (b.ix0 > ix) ++b.ix0;
    if (b.ix1 > ix) ++b.ix1;
  }
}

void GridFile::RefineY(size_t iy) {
  double lo = YBoundary(iy);
  double hi = YBoundary(iy + 1);
  POPAN_DCHECK(CanHalve(lo, hi));
  double mid = lo + 0.5 * (hi - lo);
  ys_.insert(ys_.begin() + static_cast<ptrdiff_t>(iy), mid);

  size_t nx = CellsX();
  std::vector<uint32_t> rebuilt(nx * CellsY());
  for (size_t niy = 0; niy < CellsY(); ++niy) {
    size_t oiy = niy <= iy ? niy : niy - 1;
    for (size_t ix = 0; ix < nx; ++ix) {
      rebuilt[niy * nx + ix] = directory_[oiy * nx + ix];
    }
  }
  directory_ = std::move(rebuilt);

  for (Bucket& b : buckets_) {
    if (b.iy0 > iy) ++b.iy0;
    if (b.iy1 > iy) ++b.iy1;
  }
}

bool GridFile::Contains(const PointT& p) const {
  if (!domain_.Contains(p)) return false;
  const Bucket& b = buckets_[Dir(CellX(p.x()), CellY(p.y()))];
  return std::find(b.points.begin(), b.points.end(), p) != b.points.end();
}

Status GridFile::Erase(const PointT& p) {
  if (!domain_.Contains(p)) return Status::NotFound("outside domain");
  Bucket& b = buckets_[Dir(CellX(p.x()), CellY(p.y()))];
  auto it = std::find(b.points.begin(), b.points.end(), p);
  if (it == b.points.end()) return Status::NotFound("point not stored");
  *it = b.points.back();
  b.points.pop_back();
  --size_;
  return Status::OK();
}

std::vector<GridFile::PointT> GridFile::RangeQuery(const BoxT& query) const {
  std::vector<PointT> out;
  QueryCost cost;
  RangeQueryVisit(query, &cost, [&out](const PointT& p) { out.push_back(p); });
  return out;
}

std::vector<GridFile::PointT> GridFile::NearestK(const PointT& target,
                                                 size_t k,
                                                 QueryCost* cost) const {
  POPAN_CHECK(k >= 1);
  POPAN_DCHECK(cost != nullptr);
  std::vector<PointT> out;
  if (size_ == 0) return out;
  // Distance from the target to a bucket's closed region.
  auto bucket_d2 = [this, &target](const Bucket& b) {
    double dx = 0.0, dy = 0.0;
    if (target.x() < XBoundary(b.ix0)) {
      dx = XBoundary(b.ix0) - target.x();
    } else if (target.x() > XBoundary(b.ix1)) {
      dx = target.x() - XBoundary(b.ix1);
    }
    if (target.y() < YBoundary(b.iy0)) {
      dy = YBoundary(b.iy0) - target.y();
    } else if (target.y() > YBoundary(b.iy1)) {
      dy = target.y() - YBoundary(b.iy1);
    }
    return dx * dx + dy * dy;
  };
  // Rank all buckets by (region distance, index) — the grid file has no
  // hierarchy to descend, so the "traversal" is one sorted scan with the
  // standard best-first cutoff.
  std::vector<std::pair<double, uint32_t>> order;
  order.reserve(buckets_.size());
  for (uint32_t bi = 0; bi < buckets_.size(); ++bi) {
    ++cost->nodes_visited;
    order.emplace_back(bucket_d2(buckets_[bi]), bi);
  }
  std::sort(order.begin(), order.end());
  // Canonical (distance², x, y) accumulator (knn_heap.h): equal-distance
  // ties resolve by coordinate order, and a bucket at exactly the k-th
  // distance is still scanned — it may hold a tie-winning point.
  KnnHeap<PointT, PointTieLess> heap(k);
  for (size_t i = 0; i < order.size(); ++i) {
    if (heap.ShouldPrune(order[i].first)) {
      // Sorted: every remaining bucket is at least this far.
      cost->pruned_subtrees += order.size() - i;
      break;
    }
    const Bucket& b = buckets_[order[i].second];
    ++cost->leaves_touched;
    for (const PointT& p : b.points) {
      ++cost->points_scanned;
      heap.Offer(p.DistanceSquared(target), p);
    }
  }
  out = heap.TakeSorted();
  return out;
}

Status GridFile::CheckInvariants() const {
  if (directory_.size() != CellsX() * CellsY()) {
    return Status::Internal("directory size mismatch");
  }
  if (!std::is_sorted(xs_.begin(), xs_.end()) ||
      !std::is_sorted(ys_.begin(), ys_.end())) {
    return Status::Internal("unsorted linear scale");
  }
  size_t points_seen = 0;
  std::vector<uint64_t> cells_covered(buckets_.size(), 0);
  for (size_t bi = 0; bi < buckets_.size(); ++bi) {
    const Bucket& b = buckets_[bi];
    if (b.ix0 >= b.ix1 || b.iy0 >= b.iy1 || b.ix1 > CellsX() ||
        b.iy1 > CellsY()) {
      return Status::Internal("bucket block out of range");
    }
    // Every cell in the block must point back to the bucket.
    for (size_t ix = b.ix0; ix < b.ix1; ++ix) {
      for (size_t iy = b.iy0; iy < b.iy1; ++iy) {
        if (Dir(ix, iy) != bi) {
          return Status::Internal("directory cell does not match its bucket");
        }
      }
    }
    cells_covered[bi] = (b.ix1 - b.ix0) * (b.iy1 - b.iy0);
    // Points must lie inside the bucket's region.
    double bx0 = XBoundary(b.ix0);
    double bx1 = XBoundary(b.ix1);
    double by0 = YBoundary(b.iy0);
    double by1 = YBoundary(b.iy1);
    for (const PointT& p : b.points) {
      bool in_x = p.x() >= bx0 && (p.x() < bx1 || b.ix1 == CellsX());
      bool in_y = p.y() >= by0 && (p.y() < by1 || b.iy1 == CellsY());
      if (!in_x || !in_y) {
        return Status::Internal("point outside its bucket region");
      }
    }
    points_seen += b.points.size();
  }
  uint64_t total_cells = 0;
  for (uint64_t c : cells_covered) total_cells += c;
  if (total_cells != directory_.size()) {
    return Status::Internal("bucket blocks do not tile the directory");
  }
  if (points_seen != size_) {
    return Status::Internal("size mismatch");
  }
  return Status::OK();
}

}  // namespace popan::spatial
