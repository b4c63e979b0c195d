#include "spatial/snapshot_view.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rw_storm.h"
#include "spatial/census.h"
#include "spatial/checkpoint.h"
#include "spatial/pr_tree.h"

namespace popan::spatial {
namespace {

using geo::Box2;
using geo::Point2;
using sim::MakeStormTrace;
using sim::ReplayTrace;
using sim::StormOp;
using sim::StormQueryBox;

constexpr size_t kSeeds = 64;
constexpr size_t kOps = 300;
constexpr size_t kSnapshotStride = 37;
constexpr size_t kQueriesPerSnapshot = 3;

PrTreeOptions StormOptions() {
  PrTreeOptions options;
  options.capacity = 4;
  options.max_depth = 32;
  return options;
}

void SortCanonical(std::vector<Point2>* points) {
  std::sort(points->begin(), points->end(),
            [](const Point2& a, const Point2& b) {
              if (a.x() != b.x()) return a.x() < b.x();
              return a.y() < b.y();
            });
}

std::vector<Point2> SortedRange(const SnapshotView2& snapshot,
                                const Box2& box) {
  std::vector<Point2> points = snapshot.RangeQuery(box);
  SortCanonical(&points);
  return points;
}

std::vector<Point2> SortedRange(const PrTree<2>& tree, const Box2& box) {
  std::vector<Point2> points = tree.RangeQuery(box);
  SortCanonical(&points);
  return points;
}

/// Asserts the snapshot is bitwise identical to a stop-the-world tree
/// with `options` built by replaying the first snapshot.sequence() trace
/// operations: size, live census, every point in leaf order, and
/// canonical range results at the storm boxes.
void ExpectMatchesPrefix(const SnapshotView2& snapshot,
                         const std::vector<StormOp>& trace, uint64_t seed,
                         const PrTreeOptions& options = StormOptions()) {
  PrTree<2> ref(Box2::UnitCube(), options);
  ASSERT_TRUE(ReplayTrace({trace.data(), trace.size()},
                          static_cast<size_t>(snapshot.sequence()), &ref)
                  .ok());
  EXPECT_EQ(snapshot.size(), ref.size());
  EXPECT_EQ(snapshot.LeafCount(), ref.LeafCount());
  EXPECT_TRUE(snapshot.LiveCensus() == ref.LiveCensus())
      << "census mismatch at sequence " << snapshot.sequence() << " seed "
      << seed;
  EXPECT_EQ(snapshot.AllPoints(), ref.AllPoints())
      << "leaf contents differ at sequence " << snapshot.sequence()
      << " seed " << seed;
  for (uint64_t j = 0; j < kQueriesPerSnapshot; ++j) {
    Box2 box = StormQueryBox(seed, snapshot.sequence(), j);
    EXPECT_EQ(SortedRange(snapshot, box), SortedRange(ref, box))
        << "range mismatch at sequence " << snapshot.sequence() << " seed "
        << seed << " query " << j;
  }
}

/// One option set of the prefix-equality property.
struct StormCase {
  const char* name;
  PrTreeOptions options;
  size_t ops;
  /// Whether some pinned snapshot must hold a leaf past the inline
  /// capacity, so the copy-on-write path copies spilled lanes.
  bool expect_spill;
};

void PrintTo(const StormCase& c, std::ostream* os) { *os << c.name; }

class SnapshotConsistencyTest : public testing::TestWithParam<StormCase> {};

// The satellite property test: for 64 seeds, interleave the writer trace
// with snapshots and check every pinned snapshot against the serially
// replayed prefix. Single-threaded on purpose — the oracle itself must
// hold before the storm adds scheduling nondeterminism on top.
TEST_P(SnapshotConsistencyTest, EverySnapshotEqualsItsReplayedPrefix) {
  const StormCase& c = GetParam();
  size_t max_occupancy = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    std::vector<StormOp> trace = MakeStormTrace(c.ops, 0.65, seed);
    CowPrQuadtree tree(Box2::UnitCube(), c.options);
    std::vector<SnapshotView2> pinned;
    for (size_t i = 0; i < trace.size(); ++i) {
      Status s = trace[i].insert ? tree.Insert(trace[i].point)
                                 : tree.Erase(trace[i].point);
      ASSERT_TRUE(s.ok()) << s.ToString() << " seed " << seed << " op " << i;
      if ((i + 1) % kSnapshotStride == 0) {
        pinned.push_back(tree.Snapshot());
      }
    }
    ASSERT_EQ(tree.sequence(), c.ops);
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "seed " << seed;
    // Every snapshot was pinned while the writer kept going; each must
    // still show exactly its own prefix.
    for (const SnapshotView2& snapshot : pinned) {
      ExpectMatchesPrefix(snapshot, trace, seed, c.options);
      snapshot.VisitLeaves([&max_occupancy](const Box2&, size_t, size_t n) {
        max_occupancy = std::max(max_occupancy, n);
      });
    }
    {
      SnapshotView2 final_snapshot = tree.Snapshot();
      EXPECT_EQ(final_snapshot.sequence(), c.ops);
      ExpectMatchesPrefix(final_snapshot, trace, seed, c.options);
    }
    // With all pins released, one more advance must fully drain limbo.
    pinned.clear();
    tree.epochs().AdvanceEpoch();
    tree.epochs().Reclaim();
    EXPECT_EQ(tree.epochs().limbo_size(), 0u) << "seed " << seed;
    EXPECT_EQ(tree.epochs().objects_retired(),
              tree.epochs().objects_reclaimed())
        << "seed " << seed;
  }
  if (c.expect_spill) {
    EXPECT_GT(max_occupancy, PrQuadtree::kInlineLeafCapacity);
  }
}

// Capacity-12 leaves spill once they pass the 8-point inline lanes; the
// depth-3 truncation piles points into 64 leaves until they spill (its
// longer trace keeps ~360 points live).
INSTANTIATE_TEST_SUITE_P(
    OptionSets, SnapshotConsistencyTest,
    testing::Values(StormCase{"Cap4Depth32", {4, 32}, kOps, false},
                    StormCase{"Cap12", {12, 64}, kOps, true},
                    StormCase{"Cap2Depth3", {2, 3}, 4 * kOps, true}),
    [](const testing::TestParamInfo<StormCase>& info) {
      return std::string(info.param.name);
    });

// A pinned snapshot must keep its exact contents no matter how much the
// writer mutates afterwards — the epoch pin is what stops reclamation of
// the frozen version's nodes.
TEST(SnapshotConsistencyTest, PinnedSnapshotSurvivesHeavyChurn) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    std::vector<StormOp> trace = MakeStormTrace(kOps, 0.65, seed);
    CowPrQuadtree tree(Box2::UnitCube(), StormOptions());
    size_t half = trace.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE((trace[i].insert ? tree.Insert(trace[i].point)
                                   : tree.Erase(trace[i].point))
                      .ok());
    }
    SnapshotView2 snapshot = tree.Snapshot();
    Census census_before = snapshot.LiveCensus();
    Box2 probe = StormQueryBox(seed, snapshot.sequence(), 0);
    std::vector<Point2> results_before = SortedRange(snapshot, probe);
    for (size_t i = half; i < trace.size(); ++i) {
      ASSERT_TRUE((trace[i].insert ? tree.Insert(trace[i].point)
                                   : tree.Erase(trace[i].point))
                      .ok());
    }
    // The writer is far ahead; the pinned view must be unchanged and
    // still equal to its replayed prefix.
    EXPECT_EQ(snapshot.sequence(), half);
    EXPECT_TRUE(snapshot.LiveCensus() == census_before);
    EXPECT_EQ(SortedRange(snapshot, probe), results_before);
    ExpectMatchesPrefix(snapshot, trace, seed);
  }
}

// The WAL-anchor reuse: checkpointing a pinned snapshot (writer still
// running) produces a snapshot/WAL pair that recovers to exactly the
// pinned prefix, anchored at the snapshot's sequence number.
TEST(SnapshotConsistencyTest, CheckpointFromPinnedSnapshotRecovers) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    std::vector<StormOp> trace = MakeStormTrace(kOps, 0.7, seed);
    CowPrQuadtree tree(Box2::UnitCube(), StormOptions());
    size_t cut = (2 * trace.size()) / 3;
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE((trace[i].insert ? tree.Insert(trace[i].point)
                                   : tree.Erase(trace[i].point))
                      .ok());
    }
    SnapshotView2 snapshot = tree.Snapshot();
    std::ostringstream snapshot_out, wal_out;
    StatusOr<WalWriter> writer =
        Checkpoint(snapshot, &snapshot_out, &wal_out);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_EQ(writer->next_sequence(), snapshot.sequence() + 1);
    // Writer keeps churning after the checkpoint was cut.
    for (size_t i = cut; i < trace.size(); ++i) {
      ASSERT_TRUE((trace[i].insert ? tree.Insert(trace[i].point)
                                   : tree.Erase(trace[i].point))
                      .ok());
    }
    StatusOr<RecoverResult> recovered =
        Recover(snapshot_out.str(), wal_out.str());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->snapshot_sequence, snapshot.sequence());
    EXPECT_EQ(recovered->tree.size(), snapshot.size());
    EXPECT_TRUE(recovered->tree.LiveCensus() == snapshot.LiveCensus());
  }
}

}  // namespace
}  // namespace popan::spatial
