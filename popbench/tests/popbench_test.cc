// Unit tests of the benchmark's own pieces: the percentile rule, span
// self time, op-stream determinism and failure accounting.
//
//   cmake -S popbench -B build-popbench
//   cmake --build build-popbench --target popbench_test
//   ctest --test-dir build-popbench

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ops.h"
#include "spans.h"
#include "stats.h"

namespace popbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

TEST(PercentileTest, ReportsWantedPercentileWithTenBeyond) {
  std::vector<double> v = Ramp(1000);
  Percentile p = ReportPercentile(&v, 99);
  EXPECT_EQ(p.q, 99);
  EXPECT_TRUE(p.enough);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_EQ(p.value, 990);  // nearest rank 990 of 1..1000
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
}

TEST(PercentileTest, FallsBackToNextLowerPercentileWithTen) {
  std::vector<double> v = Ramp(999);  // p99 has only 9 beyond
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  Percentile p = ReportPercentile(&v, 99);
  EXPECT_EQ(p.q, 95);
  EXPECT_TRUE(p.enough);
  EXPECT_GE(SamplesBeyond(999, p.q), 10u);

  std::vector<double> small = Ramp(120);  // p95 has 6 beyond, p90 has 12
  EXPECT_EQ(ReportPercentile(&small, 99).q, 90);
}

TEST(PercentileTest, MedianNeedsTwentySamples) {
  std::vector<double> twenty = Ramp(20);
  Percentile p = ReportPercentile(&twenty, 50);
  EXPECT_EQ(p.q, 50);
  EXPECT_TRUE(p.enough);

  std::vector<double> few = Ramp(19);
  Percentile q = ReportPercentile(&few, 99);
  EXPECT_EQ(q.q, 50);
  EXPECT_FALSE(q.enough);
  EXPECT_EQ(q.value, 10);
}

TEST(PercentileTest, ChunksFoldTheShortTailIntoTheLastChunk) {
  std::vector<double> v = Ramp(2500);
  std::vector<std::vector<double>> chunks = Chunks(v, 1000);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].size(), 1000u);
  EXPECT_EQ(chunks[1].size(), 1500u);
  EXPECT_EQ(Chunks(Ramp(10), 1000).size(), 1u);
}

TEST(PercentileTest, MedianOfChunksReportsTheLowestRungAndAllSamples) {
  std::vector<std::vector<double>> chunks = {Ramp(1000), Ramp(1000),
                                             Ramp(999)};
  Percentile p = MedianOfChunks(chunks, 99);
  EXPECT_EQ(p.q, 95);  // the 999-sample chunk can only report p95
  EXPECT_EQ(p.samples, 2999u);
  EXPECT_EQ(p.value, 990);  // median of {990, 990, 950}
}

TEST(PercentileTest, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(SpanTest, SelfTimeIsSpanMinusChildSpan) {
  SpanRecorder rec;
  const uint16_t core = rec.Layer("server.core");
  const uint16_t cow = rec.Layer("spatial.cow");
  const uint16_t tree = rec.Layer("spatial.prtree");
  rec.Record(core, Span::kRoot, 7, 0, 100);
  rec.Record(cow, core, 7, 10, 70);
  rec.Record(tree, cow, 7, 20, 45);
  rec.Record(cow, core, 8, 0, 30);  // another op: not a child of op 7
  EXPECT_EQ(rec.SelfTimes(core), (std::vector<int64_t>{100 - 60}));
  EXPECT_EQ(rec.SelfTimes(cow), (std::vector<int64_t>{60 - 25, 30}));
  EXPECT_EQ(rec.SelfTimes(tree), (std::vector<int64_t>{25}));
}

TEST(SpanTest, SelfTimeSubtractsEveryChildOfTheOp) {
  SpanRecorder rec;
  const uint16_t core = rec.Layer("server.core");
  const uint16_t cow = rec.Layer("spatial.cow");
  const uint16_t wal = rec.Layer("spatial.wal");
  rec.Record(core, Span::kRoot, 1, 0, 100);
  rec.Record(cow, core, 1, 0, 40);
  rec.Record(wal, core, 1, 50, 80);
  EXPECT_EQ(rec.SelfTimes(core), (std::vector<int64_t>{30}));
  EXPECT_EQ(rec.DurationsByOp(core).at(1), 100);
}

std::vector<Op> Take(Workload w, uint64_t seed, size_t conn, size_t n) {
  OpStream s(w, seed, conn);
  std::vector<Op> ops;
  for (size_t i = 0; i < n; ++i) ops.push_back(s.Next());
  return ops;
}

TEST(OpStreamTest, SameSeedGivesByteIdenticalStream) {
  for (Workload w : {Workload::kServeQuery, Workload::kIngestSharded}) {
    for (size_t c = 0; c < kConnections; ++c) {
      EXPECT_EQ(SerializeOps(Take(w, 42, c, 2000)),
                SerializeOps(Take(w, 42, c, 2000)));
    }
  }
  EXPECT_EQ(PreparedPoints(Workload::kIngestSharded, 42),
            PreparedPoints(Workload::kIngestSharded, 42));
}

TEST(OpStreamTest, DifferentSeedGivesDifferentStream) {
  for (Workload w : {Workload::kServeQuery, Workload::kIngestSharded}) {
    EXPECT_NE(SerializeOps(Take(w, 42, 0, 200)),
              SerializeOps(Take(w, 43, 0, 200)));
  }
  EXPECT_NE(PreparedPoints(Workload::kServeQuery, 42),
            PreparedPoints(Workload::kServeQuery, 43));
}

TEST(OpStreamTest, ConnectionsDrawIndependentStreams) {
  EXPECT_NE(SerializeOps(Take(Workload::kServeQuery, 42, 0, 200)),
            SerializeOps(Take(Workload::kServeQuery, 42, 1, 200)));
}

TEST(OpStreamTest, ErasesNameOnlyOwnLivePoints) {
  for (Workload w : {Workload::kServeQuery, Workload::kIngestSharded}) {
    OpStream s(w, 7, 0);
    std::vector<popan::geo::Point2> live;
    for (int i = 0; i < 5000; ++i) {
      Op op = s.Next();
      if (op.kind == OpKind::kInsert) live.push_back(op.point);
      if (op.kind == OpKind::kInsertBatch) {
        live.insert(live.end(), op.batch.begin(), op.batch.end());
      }
      if (op.kind == OpKind::kErase) {
        auto it = std::find(live.begin(), live.end(), op.point);
        ASSERT_NE(it, live.end());
        live.erase(it);
      }
    }
    std::vector<popan::geo::Point2> model = s.live();
    auto less = [](const popan::geo::Point2& a, const popan::geo::Point2& b) {
      return a.x() != b.x() ? a.x() < b.x() : a.y() < b.y();
    };
    std::sort(model.begin(), model.end(), less);
    std::sort(live.begin(), live.end(), less);
    EXPECT_EQ(model, live);
  }
}

TEST(OpStreamTest, AnchoredPartialMatchesNameAPreparedPoint) {
  auto less = [](const popan::geo::Point2& a, const popan::geo::Point2& b) {
    return a.x() != b.x() ? a.x() < b.x() : a.y() < b.y();
  };
  std::vector<popan::geo::Point2> prepared =
      PreparedPoints(Workload::kServeQuery, 5);
  std::sort(prepared.begin(), prepared.end(), less);
  OpStream s(Workload::kServeQuery, 5, 0);
  size_t partial = 0;
  size_t anchored = 0;
  for (int i = 0; i < 4000; ++i) {
    const Op op = s.Next();
    if (op.kind != OpKind::kPartialMatch) continue;
    ++partial;
    if (!op.anchored) continue;
    ++anchored;
    EXPECT_EQ(op.value, op.point[op.axis]);
    EXPECT_TRUE(
        std::binary_search(prepared.begin(), prepared.end(), op.point, less));
  }
  EXPECT_GT(anchored, partial / 4);
  EXPECT_LT(anchored, partial);
}

TEST(OpStreamTest, IngestReaderSubscribesFirst) {
  std::vector<Op> ops =
      Take(Workload::kIngestSharded, 5, kIngestWriters, kSubscriptions + 10);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].kind,
              i < kSubscriptions ? OpKind::kSubscribe : OpKind::kRange);
  }
}

TEST(ZipfClustersTest, HottestClusterIsDrawnMostOften) {
  ZipfClusters clusters(3);
  Rng rng(3, 1);
  std::vector<size_t> counts(clusters.centers().size(), 0);
  for (int i = 0; i < 20000; ++i) ++counts[clusters.DrawCluster(rng)];
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()), counts.begin());
  for (int i = 0; i < 1000; ++i) {
    popan::geo::Point2 p = clusters.Draw(rng);
    EXPECT_TRUE(p.x() >= 0.0 && p.x() < 1.0 && p.y() >= 0.0 && p.y() < 1.0);
  }
}

TEST(FailureLedgerTest, UnansweredRequestsCountAsFailures) {
  FailureLedger ledger;
  ledger.attempted = 10;
  ledger.answered = 7;
  EXPECT_EQ(ledger.failed(), 3u);
}

TEST(FailureLedgerTest, ErrorsAndWrongAnswersAddUp) {
  FailureLedger a;
  a.attempted = 100;
  a.answered = 99;
  a.errors = 2;
  a.wrong = 1;
  FailureLedger b;
  b.attempted = 100;
  b.answered = 100;
  a.Merge(b);
  EXPECT_EQ(a.failed(), 4u);
}

}  // namespace
}  // namespace popbench
