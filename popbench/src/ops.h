#ifndef POPBENCH_OPS_H_
#define POPBENCH_OPS_H_

// Seeded inputs of the popan benchmark: the point generators and the
// per-connection op streams of the two server workloads. Everything here
// is a pure function of (workload, seed, connection), so the same seed
// gives a byte-identical stream and the program under test only ever
// sees the generated inputs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"

namespace popbench {

/// xoshiro256** seeded through splitmix64. The benchmark carries its own
/// generator so its inputs do not move when the program's RNG changes.
class Rng {
 public:
  /// A generator for an independent stream `stream` of `seed`.
  Rng(uint64_t seed, uint64_t stream);

  uint64_t Next();
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform();
  /// Uniform integer in [0, n); n > 0.
  uint64_t Below(uint64_t n);
  /// Standard normal (Box-Muller, no cached second value).
  double Normal();

 private:
  uint64_t s_[4];
};

/// Zipf-weighted Gaussian clusters in the unit square: cluster i is
/// chosen with probability proportional to 1 / (i + 1)^exponent, and a
/// point is its center plus N(0, sigma^2) per axis, resampled until it
/// lies inside [0, 1)^2. Centers are derived from the seed alone, so
/// every stream of one seed shares the same hot spots.
///
/// This is a stand-in kept inside the benchmark until a skewed
/// distribution of this shape is promoted into sim/distributions.h.
class ZipfClusters {
 public:
  ZipfClusters(uint64_t seed, size_t num_clusters = 64,
               double exponent = 1.1, double sigma = 0.01);

  popan::geo::Point2 Draw(Rng& rng) const;
  /// Cluster index by Zipf rank (0 is the hottest).
  size_t DrawCluster(Rng& rng) const;
  const std::vector<popan::geo::Point2>& centers() const { return centers_; }
  double sigma() const { return sigma_; }

 private:
  std::vector<popan::geo::Point2> centers_;
  std::vector<double> cdf_;
  double sigma_;
};

enum class Workload { kServeQuery, kIngestSharded, kPaperSweep };

/// Parses "serve_query" / "ingest_sharded" / "paper_sweep"; false on
/// anything else.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

enum class OpKind : uint8_t {
  kInsert,
  kErase,
  kInsertBatch,
  kRange,
  kPartialMatch,
  kNearestK,
  kCensus,
  kSubscribe,
};

bool IsRead(OpKind kind);
bool IsWrite(OpKind kind);

/// One request of a connection's stream. Exactly the fields `kind`
/// names are meaningful.
struct Op {
  uint64_t id = 0;  ///< OpId(connection, index)
  OpKind kind = OpKind::kCensus;
  /// insert / erase / k-NN; for an anchored partial-match, the
  /// prepared point whose coordinate it matches (the answer must hold it)
  popan::geo::Point2 point;
  std::vector<popan::geo::Point2> batch;     ///< insert-batch
  popan::geo::Box2 box;                      ///< range / subscribe
  uint8_t axis = 0;                          ///< partial-match
  double value = 0.0;                        ///< partial-match
  bool anchored = false;                     ///< partial-match
  uint32_t k = 1;                            ///< k-NN
};

inline uint64_t OpId(uint64_t connection, uint64_t index) {
  return (connection << 40) | index;
}
inline uint64_t OpConnection(uint64_t id) { return id >> 40; }

/// Workload sizes shared by the socket client, the preparers and the
/// traced replay.
inline constexpr size_t kConnections = 4;
inline constexpr size_t kServePreparedPoints = 1000000;
/// Enough that the prepared store has already split up to the 8-shard
/// cap, so the measured run starts from the layout the seed fixed rather
/// than one that depends on how the writers happened to interleave.
inline constexpr size_t kIngestPreparedPoints = 500000;
inline constexpr size_t kIngestShards = 8;
inline constexpr size_t kIngestWriters = 3;  ///< the fourth reads
inline constexpr size_t kSubscriptions = 4;
inline constexpr size_t kServerCapacity = 4;    ///< popan_server default
inline constexpr size_t kServerMaxDepth = 16;   ///< popan_server default

/// The points the prepared store holds before a server workload starts.
std::vector<popan::geo::Point2> PreparedPoints(Workload w, uint64_t seed);

/// A connection's op stream. Erases only ever name a point this same
/// stream inserted and has not erased yet, so the set of points each
/// connection leaves behind does not depend on how connections
/// interleave. That set (assuming every write succeeded) is `live()`.
class OpStream {
 public:
  OpStream(Workload w, uint64_t seed, size_t connection);

  Op Next();
  const std::vector<popan::geo::Point2>& live() const { return live_; }

 private:
  Op NextServe();
  Op NextIngestWriter();
  Op NextIngestReader();
  popan::geo::Box2 BoxAround(const popan::geo::Point2& c, double side);
  void TakeErase(Op* op);

  Workload workload_;
  size_t connection_;
  Rng rng_;
  ZipfClusters clusters_;
  uint64_t index_ = 0;
  std::vector<popan::geo::Point2> live_;
  std::vector<popan::geo::Box2> subscriptions_;  ///< ingest reader only
  /// serve_query: a sample of the prepared points. Nobody erases them, so
  /// a partial-match on one of their coordinates has a nonempty answer.
  std::vector<popan::geo::Point2> anchors_;
};

/// The hot-cluster boxes the ingest reader subscribes to (also the
/// boxes its first ops name).
std::vector<popan::geo::Box2> SubscriptionBoxes(uint64_t seed);

/// A byte serialization of ops (every field, little-endian), used to
/// prove streams are byte-identical per seed.
std::string SerializeOps(const std::vector<Op>& ops);

}  // namespace popbench

#endif  // POPBENCH_OPS_H_
