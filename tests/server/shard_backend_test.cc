// ServerCore over ShardStoreBackend, checked against independent
// references: answer POINTS against query::Execute on a plain PrQuadtree
// holding the same point set, write sequence stamps and status codes
// against expected values, and — for
// the one-shard store that single-tree serving uses — whole response
// frames, byte for byte, against responses built from query::Execute on a
// CowPrQuadtree snapshot (cost counters, predicted_nodes and census
// fields included). Sharded cost counters are exempt from the point
// comparison: they sum per-shard traversals.

#include "server/shard_store.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_model.h"
#include "geometry/box.h"
#include "geometry/point.h"
#include "query/query.h"
#include "server/protocol.h"
#include "server/server_core.h"
#include "shard/router.h"
#include "spatial/census.h"
#include "spatial/pr_tree.h"
#include "spatial/snapshot_view.h"
#include "testing/statusor_testing.h"
#include "util/random.h"
#include "util/status.h"

namespace popan::server {
namespace {

using geo::Box2;
using geo::Point2;
using popan::ValueOrDie;

Box2 UnitDomain() { return Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)); }

spatial::PrTreeOptions SmallTree() {
  spatial::PrTreeOptions options;
  options.capacity = 2;
  options.max_depth = 12;
  return options;
}

/// A core over a multi-shard-capable router, with a raw handle to the
/// router so tests can force splits/merges mid-stream.
struct ShardedCore {
  std::unique_ptr<ServerCore> core;
  shard::ShardRouter* router = nullptr;
  uint64_t client = 0;
};

ShardedCore MakeShardedCore() {
  shard::RouterOptions router_options;
  router_options.tree = SmallTree();
  auto router =
      std::make_unique<shard::ShardRouter>(UnitDomain(), router_options);
  ShardedCore sharded;
  sharded.router = router.get();
  sharded.core = std::make_unique<ServerCore>(
      std::make_unique<ShardStoreBackend>(std::move(router)));
  sharded.client = sharded.core->OpenClient();
  return sharded;
}

Response Ask(ServerCore* core, const Request& request) {
  PreparedRead prepared = ValueOrDie(core->PrepareRead(request));
  return ServerCore::CompleteRead(prepared);
}

/// Applies one write through the wire path and decodes its response.
Response Write(ServerCore* core, uint64_t client, const Request& request) {
  core->HandleRequest(client, request);
  std::string out = core->TakeOutput(client);
  size_t offset = 0;
  std::string_view payload;
  Status error;
  EXPECT_TRUE(NextFrame(out, &offset, &payload, &error));
  EXPECT_EQ(offset, out.size()) << "a write queued more than its response";
  return ValueOrDie(DecodeResponsePayload(payload));
}

query::QuerySpec SpecOf(const Request& request) {
  switch (request.type) {
    case MsgType::kRange:
      return query::QuerySpec::Range(request.box);
    case MsgType::kPartialMatch:
      return query::QuerySpec::PartialMatch(request.axis, request.value);
    default:
      return query::QuerySpec::NearestK(request.point, request.k);
  }
}

void ExpectReferencePoints(ServerCore* core,
                           const spatial::PrQuadtree& reference,
                           const Request& request,
                           uint64_t expected_sequence) {
  Response response = Ask(core, request);
  EXPECT_EQ(response.status, 0);
  EXPECT_EQ(response.sequence, expected_sequence);
  std::vector<Point2> expected =
      query::Execute(reference, SpecOf(request)).points;
  ASSERT_EQ(response.points.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(response.points[i], expected[i]) << "divergence at point " << i;
  }
}

TEST(ShardBackendTest, QueriesMatchSingleTreeAcrossSplitsAndMerges) {
  ShardedCore sharded = MakeShardedCore();
  spatial::PrQuadtree reference(UnitDomain(), SmallTree());
  Pcg32 rng(211);
  std::vector<Point2> points;
  for (int i = 0; i < 400; ++i) {
    points.emplace_back(rng.NextDouble(), rng.NextDouble());
  }
  Request insert;
  insert.type = MsgType::kInsert;
  for (size_t i = 0; i < points.size(); ++i) {
    insert.point = points[i];
    Response r = Write(sharded.core.get(), sharded.client, insert);
    ASSERT_EQ(r.status, 0);
    EXPECT_EQ(r.sequence, i + 1);
    ASSERT_TRUE(reference.Insert(points[i]).ok());
    if (i == 100) {
      ASSERT_TRUE(sharded.router->SplitShard(0).ok());
    }
    if (i == 200) {
      ASSERT_TRUE(sharded.router->SplitShard(1).ok());
    }
    if (i == 300) {
      ASSERT_TRUE(sharded.router->MergeShards(0).ok());
    }
  }
  ASSERT_GT(sharded.router->shard_count(), 1u);
  EXPECT_EQ(sharded.core->sequence(), 400u);
  EXPECT_EQ(sharded.core->size(), reference.size());

  for (int trial = 0; trial < 25; ++trial) {
    Point2 lo(rng.NextDouble(0.0, 0.8), rng.NextDouble(0.0, 0.8));
    Request range;
    range.type = MsgType::kRange;
    range.box = Box2(lo, Point2(lo.x() + rng.NextDouble(0.05, 0.4),
                                lo.y() + rng.NextDouble(0.05, 0.4)));
    ExpectReferencePoints(sharded.core.get(), reference, range, 400);

    Request partial;
    partial.type = MsgType::kPartialMatch;
    partial.axis = trial % 2;
    partial.value = points[static_cast<size_t>(trial) * 7].x();
    ExpectReferencePoints(sharded.core.get(), reference, partial, 400);

    Request knn;
    knn.type = MsgType::kNearestK;
    knn.point = Point2(rng.NextDouble(), rng.NextDouble());
    knn.k = 1 + trial;
    ExpectReferencePoints(sharded.core.get(), reference, knn, 400);
  }

  // Census: the merged census aggregates per-shard trees, so structure
  // counters differ from one tree's, but size and sequence do not.
  Request census;
  census.type = MsgType::kCensus;
  Response merged = Ask(sharded.core.get(), census);
  EXPECT_EQ(merged.size, 400u);
  EXPECT_EQ(merged.sequence, 400u);

  // predicted_nodes rides along on sharded range answers too.
  Request range;
  range.type = MsgType::kRange;
  range.box = Box2(Point2(0.2, 0.2), Point2(0.4, 0.4));
  EXPECT_GT(Ask(sharded.core.get(), range).predicted_nodes, 0.0);
}

TEST(ShardBackendTest, WriteErrorsAndBatchAccountingMatch) {
  // The same write script against the one-shard store and a two-shard
  // store: identical, expected stamps and status codes on both.
  ShardedCore sharded = MakeShardedCore();
  Request seed;
  seed.type = MsgType::kInsert;
  for (int i = 0; i < 8; ++i) {
    seed.point = Point2(0.05 + 0.1 * i, 0.95 - 0.1 * i);
    ASSERT_EQ(Write(sharded.core.get(), sharded.client, seed).status, 0);
  }
  ASSERT_TRUE(sharded.router->SplitShard(0).ok());
  ASSERT_EQ(sharded.router->shard_count(), 2u);
  ServerCore single(UnitDomain(), SmallTree(), /*wal=*/nullptr,
                    /*initial_sequence=*/8);

  const auto code = [](StatusCode c) { return static_cast<uint8_t>(c); };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (ServerCore* core : {&single, sharded.core.get()}) {
    SCOPED_TRACE(core == &single ? "one shard" : "two shards");
    uint64_t client = core == &single ? single.OpenClient() : sharded.client;
    Request insert;
    insert.type = MsgType::kInsert;
    insert.point = Point2(0.5, 0.5);
    Response first = Write(core, client, insert);
    EXPECT_EQ(first.status, 0);
    EXPECT_EQ(first.sequence, 9u);
    // Duplicate -> AlreadyExists; no sequence burned.
    EXPECT_EQ(Write(core, client, insert).status,
              code(StatusCode::kAlreadyExists));
    // NaN -> InvalidArgument before the store changes.
    insert.point = Point2(nan, 0.5);
    EXPECT_EQ(Write(core, client, insert).status,
              code(StatusCode::kInvalidArgument));
    // Out-of-domain insert and erase -> OutOfRange.
    insert.point = Point2(2.0, 2.0);
    EXPECT_EQ(Write(core, client, insert).status,
              code(StatusCode::kOutOfRange));
    Request erase;
    erase.type = MsgType::kErase;
    erase.point = Point2(-1.0, 0.5);
    EXPECT_EQ(Write(core, client, erase).status,
              code(StatusCode::kOutOfRange));
    // Erase of a missing in-domain point -> NotFound.
    erase.point = Point2(0.9, 0.9);
    EXPECT_EQ(Write(core, client, erase).status,
              code(StatusCode::kNotFound));
    // Batch: duplicates and rejects (out-of-domain, NaN) are counted,
    // and the response carries the store's sequence after the batch.
    Request batch;
    batch.type = MsgType::kInsertBatch;
    batch.batch = {Point2(0.1, 0.1), Point2(0.5, 0.5), Point2(3.0, 3.0),
                   Point2(0.2, nan), Point2(0.2, 0.2)};
    Response counted = Write(core, client, batch);
    EXPECT_EQ(counted.status, 0);
    EXPECT_EQ(counted.inserted, 2u);
    EXPECT_EQ(counted.duplicates, 1u);
    EXPECT_EQ(counted.rejected, 2u);
    EXPECT_EQ(counted.sequence, 11u);
    EXPECT_EQ(core->sequence(), 11u);
  }
  EXPECT_EQ(single.size(), 3u);
  EXPECT_EQ(sharded.core->size(), 11u);
}

TEST(ShardBackendTest, PreparedReadPinsAcrossARebalance) {
  ShardedCore sharded = MakeShardedCore();
  Pcg32 rng(223);
  Request insert;
  insert.type = MsgType::kInsert;
  for (int i = 0; i < 100; ++i) {
    insert.point = Point2(rng.NextDouble(), rng.NextDouble());
    sharded.core->HandleRequest(sharded.client, insert);
  }
  Request all;
  all.type = MsgType::kRange;
  all.box = UnitDomain();
  PreparedRead pinned = ValueOrDie(sharded.core->PrepareRead(all));
  // Split the map and keep writing; the pinned view must not move.
  ASSERT_TRUE(sharded.router->SplitShard(0).ok());
  insert.point = Point2(0.5, 0.123456);
  sharded.core->HandleRequest(sharded.client, insert);
  Response before = ServerCore::CompleteRead(pinned);
  EXPECT_EQ(before.points.size(), 100u);
  EXPECT_EQ(before.sequence, 100u);
  Response after = Ask(sharded.core.get(), all);
  EXPECT_EQ(after.points.size(), 101u);
}

/// The single-tree read response, built directly on a CowPrQuadtree
/// snapshot: what a one-shard store must answer, field for field.
Response SnapshotResponse(const spatial::SnapshotView2& snapshot,
                          const Request& request) {
  Response response;
  response.type = ResponseTypeFor(request.type);
  response.sequence = snapshot.sequence();
  if (request.type == MsgType::kCensus) {
    spatial::Census census = snapshot.LiveCensus();
    response.size = snapshot.size();
    response.leaf_count = snapshot.LeafCount();
    response.max_depth = static_cast<uint32_t>(census.MaxDepth());
    response.average_occupancy = census.AverageOccupancy();
    return response;
  }
  query::QueryResult result = query::Execute(snapshot, SpecOf(request));
  response.cost = result.cost;
  response.points = std::move(result.points);
  if (request.type != MsgType::kNearestK && snapshot.size() > 0) {
    const Box2& bounds = snapshot.bounds();
    core::QueryCostModel model =
        core::QueryCostModel::FromCensus(snapshot.LiveCensus(), bounds);
    if (request.type == MsgType::kRange) {
      response.predicted_nodes =
          model
              .PredictRange(std::min(request.box.Extent(0), bounds.Extent(0)),
                            std::min(request.box.Extent(1), bounds.Extent(1)))
              .nodes;
    } else {
      response.predicted_nodes = model.PredictPartialMatch().nodes;
    }
  }
  return response;
}

TEST(ShardBackendTest, OneShardResponsesEqualCowSnapshotResponsesBytewise) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t client = core.OpenClient();
  spatial::CowPrQuadtree reference(UnitDomain(), SmallTree());
  Pcg32 rng(227);

  std::vector<Request> reads;
  for (int trial = 0; trial < 12; ++trial) {
    Request range;
    range.type = MsgType::kRange;
    Point2 lo(rng.NextDouble(-0.2, 0.9), rng.NextDouble(-0.2, 0.9));
    range.box = Box2(lo, Point2(lo.x() + rng.NextDouble(0.01, 0.6),
                                lo.y() + rng.NextDouble(0.01, 0.6)));
    reads.push_back(range);
    Request partial;
    partial.type = MsgType::kPartialMatch;
    partial.axis = static_cast<uint8_t>(trial % 2);
    partial.value = rng.NextDouble();
    reads.push_back(partial);
    Request knn;
    knn.type = MsgType::kNearestK;
    knn.point = Point2(rng.NextDouble(-0.5, 1.5), rng.NextDouble(-0.5, 1.5));
    knn.k = 1 + static_cast<uint32_t>(trial) * 3;
    reads.push_back(knn);
  }
  // Edges of the domain footprint: a box wholly outside, a box covering
  // more than the domain, a partial-match value on the open upper edge.
  Request outside;
  outside.type = MsgType::kRange;
  outside.box = Box2(Point2(1.5, 1.5), Point2(2.0, 2.0));
  reads.push_back(outside);
  Request covering;
  covering.type = MsgType::kRange;
  covering.box = Box2(Point2(-1.0, -1.0), Point2(2.0, 2.0));
  reads.push_back(covering);
  Request edge;
  edge.type = MsgType::kPartialMatch;
  edge.axis = 0;
  edge.value = 1.0;
  reads.push_back(edge);
  Request census;
  census.type = MsgType::kCensus;
  reads.push_back(census);

  auto expect_same_frames = [&](const char* phase) {
    SCOPED_TRACE(phase);
    spatial::SnapshotView2 snapshot = reference.Snapshot();
    for (size_t i = 0; i < reads.size(); ++i) {
      EXPECT_EQ(EncodeResponseFrame(Ask(&core, reads[i])),
                EncodeResponseFrame(SnapshotResponse(snapshot, reads[i])))
          << "read " << i;
    }
  };

  expect_same_frames("empty store");
  Request insert;
  insert.type = MsgType::kInsert;
  std::vector<Point2> stored;
  for (int i = 0; i < 300; ++i) {
    insert.point = Point2(rng.NextDouble(), rng.NextDouble());
    ASSERT_EQ(Write(&core, client, insert).status, 0);
    ASSERT_TRUE(reference.Insert(insert.point).ok());
    stored.push_back(insert.point);
  }
  expect_same_frames("after inserts");
  Request erase;
  erase.type = MsgType::kErase;
  for (size_t i = 0; i < stored.size(); i += 3) {
    erase.point = stored[i];
    ASSERT_EQ(Write(&core, client, erase).status, 0);
    ASSERT_TRUE(reference.Erase(stored[i]).ok());
  }
  expect_same_frames("after erases");
}

}  // namespace
}  // namespace popan::server
