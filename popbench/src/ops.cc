#include "ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace popbench {

namespace geo = popan::geo;

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Stream tags: each input of a seed draws from its own stream.
constexpr uint64_t kPrepStream = 0x70726570;     // "prep"
constexpr uint64_t kClusterStream = 0x636c7573;  // "clus"
constexpr uint64_t kConnStreamBase = 0x636f6e6e00;

// Every kAnchorStride-th prepared serve_query point is a partial-match
// anchor.
constexpr size_t kAnchorStride = 251;

geo::Point2 UniformPoint(Rng& rng) {
  const double x = rng.Uniform();
  return geo::Point2(x, rng.Uniform());
}

}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream) {
  uint64_t mix = seed;
  uint64_t state = SplitMix64(&mix) ^ (stream * 0xd1342543de82ef95ULL);
  for (uint64_t& s : s_) s = SplitMix64(&state);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::Below(uint64_t n) {
  // Modulo; the bias (n / 2^64) is irrelevant for op mixes.
  return Next() % n;
}

double Rng::Normal() {
  double u1 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

ZipfClusters::ZipfClusters(uint64_t seed, size_t num_clusters,
                           double exponent, double sigma)
    : sigma_(sigma) {
  // Centers sit on a jittered grid, one per cell, and the seed shuffles
  // which cell gets which Zipf rank: every seed has the same cluster
  // spacing (no chance overlaps of hot clusters), only placed elsewhere.
  Rng rng(seed, kClusterStream);
  const size_t side = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_clusters))));
  const double cell = 0.8 / static_cast<double>(side);
  std::vector<size_t> cells(side * side);
  for (size_t i = 0; i < cells.size(); ++i) cells[i] = i;
  for (size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.Below(i)]);
  }
  double total = 0.0;
  for (size_t i = 0; i < num_clusters; ++i) {
    const double jx = 0.25 + 0.5 * rng.Uniform();
    const double jy = 0.25 + 0.5 * rng.Uniform();
    centers_.emplace_back(0.1 + cell * (static_cast<double>(cells[i] % side) + jx),
                          0.1 + cell * (static_cast<double>(cells[i] / side) + jy));
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfClusters::DrawCluster(Rng& rng) const {
  const double u = rng.Uniform();
  size_t i = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

geo::Point2 ZipfClusters::Draw(Rng& rng) const {
  const geo::Point2& c = centers_[DrawCluster(rng)];
  for (;;) {
    const double x = c.x() + sigma_ * rng.Normal();
    const double y = c.y() + sigma_ * rng.Normal();
    if (x >= 0.0 && x < 1.0 && y >= 0.0 && y < 1.0) return geo::Point2(x, y);
  }
}

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "serve_query") {
    *out = Workload::kServeQuery;
  } else if (name == "ingest_sharded") {
    *out = Workload::kIngestSharded;
  } else if (name == "paper_sweep") {
    *out = Workload::kPaperSweep;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServeQuery:
      return "serve_query";
    case Workload::kIngestSharded:
      return "ingest_sharded";
    case Workload::kPaperSweep:
      return "paper_sweep";
  }
  return "?";
}

bool IsRead(OpKind kind) {
  return kind == OpKind::kRange || kind == OpKind::kPartialMatch ||
         kind == OpKind::kNearestK || kind == OpKind::kCensus;
}

bool IsWrite(OpKind kind) {
  return kind == OpKind::kInsert || kind == OpKind::kErase ||
         kind == OpKind::kInsertBatch;
}

std::vector<geo::Point2> PreparedPoints(Workload w, uint64_t seed) {
  Rng rng(seed, kPrepStream);
  std::vector<geo::Point2> points;
  if (w == Workload::kServeQuery) {
    points.reserve(kServePreparedPoints);
    for (size_t i = 0; i < kServePreparedPoints; ++i) {
      points.push_back(UniformPoint(rng));
    }
  } else if (w == Workload::kIngestSharded) {
    ZipfClusters clusters(seed);
    points.reserve(kIngestPreparedPoints);
    for (size_t i = 0; i < kIngestPreparedPoints; ++i) {
      points.push_back(clusters.Draw(rng));
    }
  }
  return points;
}

std::vector<geo::Box2> SubscriptionBoxes(uint64_t seed) {
  ZipfClusters clusters(seed);
  std::vector<geo::Box2> boxes;
  const double half = 0.5 * clusters.sigma();
  for (size_t i = 0; i < kSubscriptions; ++i) {
    const geo::Point2& c = clusters.centers()[i];
    boxes.emplace_back(geo::Point2(c.x() - half, c.y() - half),
                       geo::Point2(c.x() + half, c.y() + half));
  }
  return boxes;
}

OpStream::OpStream(Workload w, uint64_t seed, size_t connection)
    : workload_(w),
      connection_(connection),
      rng_(seed, kConnStreamBase + connection),
      clusters_(seed) {
  if (w == Workload::kIngestSharded && connection == kIngestWriters) {
    subscriptions_ = SubscriptionBoxes(seed);
  }
  if (w == Workload::kServeQuery) {
    Rng prep(seed, kPrepStream);
    for (size_t i = 0; i < kServePreparedPoints; ++i) {
      const geo::Point2 p = UniformPoint(prep);
      if (i % kAnchorStride == 0) anchors_.push_back(p);
    }
  }
}

Op OpStream::Next() {
  Op op;
  if (workload_ == Workload::kServeQuery) {
    op = NextServe();
  } else if (connection_ < kIngestWriters) {
    op = NextIngestWriter();
  } else {
    op = NextIngestReader();
  }
  op.id = OpId(connection_, index_++);
  return op;
}

geo::Box2 OpStream::BoxAround(const geo::Point2& c, double side) {
  const double lox = std::clamp(c.x() - 0.5 * side, 0.0, 1.0 - side);
  const double loy = std::clamp(c.y() - 0.5 * side, 0.0, 1.0 - side);
  return geo::Box2(geo::Point2(lox, loy), geo::Point2(lox + side, loy + side));
}

void OpStream::TakeErase(Op* op) {
  const size_t i = rng_.Below(live_.size());
  op->kind = OpKind::kErase;
  op->point = live_[i];
  live_[i] = live_.back();
  live_.pop_back();
}

// serve_query: ~85% reads (range with small and large boxes, k-NN with
// k in 1..16, partial-match, census), ~15% single-point writes (fresh
// inserts, erases of this connection's own points).
Op OpStream::NextServe() {
  Op op;
  const double u = rng_.Uniform();
  if (u < 0.30) {
    op.kind = OpKind::kRange;
    const double side = 0.002 + 0.008 * rng_.Uniform();
    op.box = BoxAround(geo::Point2(rng_.Uniform(), rng_.Uniform()), side);
  } else if (u < 0.40) {
    op.kind = OpKind::kRange;
    const double side = 0.03 + 0.03 * rng_.Uniform();
    op.box = BoxAround(geo::Point2(rng_.Uniform(), rng_.Uniform()), side);
  } else if (u < 0.65) {
    op.kind = OpKind::kNearestK;
    op.k = static_cast<uint32_t>(1 + rng_.Below(16));
    op.point = UniformPoint(rng_);
  } else if (u < 0.80) {
    // Half the values are a prepared point's coordinate, so the answer
    // holds at least that point and the answer checks have something to
    // compare; the other half almost surely match nothing.
    op.kind = OpKind::kPartialMatch;
    op.axis = static_cast<uint8_t>(rng_.Below(2));
    op.anchored = rng_.Below(2) == 0;
    if (op.anchored) {
      op.point = anchors_[rng_.Below(anchors_.size())];
      op.value = op.point[op.axis];
    } else {
      op.value = rng_.Uniform();
    }
  } else if (u < 0.85) {
    op.kind = OpKind::kCensus;
  } else if (u < 0.95 || live_.empty()) {
    op.kind = OpKind::kInsert;
    op.point = UniformPoint(rng_);
    live_.push_back(op.point);
  } else {
    TakeErase(&op);
  }
  return op;
}

// ingest_sharded writers: insert-batches of 1..64 Zipf-clustered points,
// with one erase of an own point in ten ops.
Op OpStream::NextIngestWriter() {
  Op op;
  if (rng_.Uniform() < 0.1 && !live_.empty()) {
    TakeErase(&op);
    return op;
  }
  op.kind = OpKind::kInsertBatch;
  const size_t n = 1 + rng_.Below(64);
  op.batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    op.batch.push_back(clusters_.Draw(rng_));
    live_.push_back(op.batch.back());
  }
  return op;
}

// ingest_sharded reader: subscribes to the hottest clusters first, then
// issues range queries over the hot clusters.
Op OpStream::NextIngestReader() {
  Op op;
  if (index_ < subscriptions_.size()) {
    op.kind = OpKind::kSubscribe;
    op.box = subscriptions_[index_];
    return op;
  }
  op.kind = OpKind::kRange;
  const geo::Point2& c = clusters_.centers()[clusters_.DrawCluster(rng_)];
  const double side = 0.001 + 0.002 * rng_.Uniform();
  const geo::Point2 at(c.x() + clusters_.sigma() * rng_.Normal(),
                       c.y() + clusters_.sigma() * rng_.Normal());
  op.box = BoxAround(geo::Point2(std::clamp(at.x(), 0.0, 1.0),
                                 std::clamp(at.y(), 0.0, 1.0)),
                     side);
  return op;
}

namespace {

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(out, bits);
}

void PutPoint(std::string* out, const geo::Point2& p) {
  PutF64(out, p.x());
  PutF64(out, p.y());
}

}  // namespace

std::string SerializeOps(const std::vector<Op>& ops) {
  std::string out;
  for (const Op& op : ops) {
    PutU64(&out, op.id);
    out.push_back(static_cast<char>(op.kind));
    PutPoint(&out, op.point);
    PutU64(&out, op.batch.size());
    for (const geo::Point2& p : op.batch) PutPoint(&out, p);
    PutPoint(&out, op.box.lo());
    PutPoint(&out, op.box.hi());
    out.push_back(static_cast<char>(op.axis));
    PutF64(&out, op.value);
    out.push_back(static_cast<char>(op.anchored));
    PutU64(&out, op.k);
  }
  return out;
}

}  // namespace popbench
