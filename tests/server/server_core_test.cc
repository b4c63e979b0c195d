// ServerCore: frame pipelining, write/notify routing, WAL lockstep,
// snapshot-isolated reads, and recovery seeding.

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/protocol.h"
#include "server/server_core.h"
#include "spatial/pr_tree.h"
#include "spatial/wal.h"
#include "testing/statusor_testing.h"
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

/// A decoded outbox entry: exactly one of response / notification.
struct OutFrame {
  bool is_notification = false;
  Response response;
  Notification notification;
};

std::vector<OutFrame> DrainFrames(ServerCore* core, uint64_t client_id) {
  std::string bytes = core->TakeOutput(client_id);
  std::vector<OutFrame> frames;
  size_t offset = 0;
  std::string_view payload;
  Status error;
  while (NextFrame(bytes, &offset, &payload, &error)) {
    OutFrame frame;
    if (!payload.empty() &&
        static_cast<uint8_t>(payload[0]) ==
            static_cast<uint8_t>(MsgType::kNotification)) {
      frame.is_notification = true;
      frame.notification = ValueOrDie(DecodeNotificationPayload(payload));
    } else {
      frame.response = ValueOrDie(DecodeResponsePayload(payload));
    }
    frames.push_back(std::move(frame));
  }
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(offset, bytes.size());
  return frames;
}

std::string Frame(const Request& request) {
  return EncodeRequestFrame(request);
}

Request Insert(double x, double y) {
  Request r;
  r.type = MsgType::kInsert;
  r.point = Point2(x, y);
  return r;
}

Request Range(const Box2& box) {
  Request r;
  r.type = MsgType::kRange;
  r.box = box;
  return r;
}

TEST(ServerCoreTest, PipelinedBurstAnsweredInOrder) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t client = core.OpenClient();
  Request census;
  census.type = MsgType::kCensus;
  // One burst: three inserts, a duplicate, a range, a census.
  std::string burst = Frame(Insert(0.1, 0.1)) + Frame(Insert(0.2, 0.2)) +
                      Frame(Insert(0.8, 0.8)) + Frame(Insert(0.1, 0.1)) +
                      Frame(Range(Box2(Point2(0.0, 0.0),
                                       Point2(0.5, 0.5)))) +
                      Frame(census);
  ASSERT_TRUE(core.ConsumeBytes(client, burst).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_EQ(frames[0].response.sequence, 1u);
  EXPECT_EQ(frames[1].response.sequence, 2u);
  EXPECT_EQ(frames[2].response.sequence, 3u);
  EXPECT_EQ(frames[3].response.status,
            static_cast<uint8_t>(StatusCode::kAlreadyExists));
  EXPECT_EQ(frames[4].response.points.size(), 2u);
  EXPECT_EQ(frames[5].response.size, 3u);
  EXPECT_EQ(frames[5].response.sequence, 3u);
  // The burst is fully drained; nothing left.
  EXPECT_TRUE(core.TakeOutput(client).empty());
  EXPECT_TRUE(core.ClientsWithOutput().empty());
}

TEST(ServerCoreTest, SplitFrameAcrossConsumeCalls) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t client = core.OpenClient();
  std::string frame = Frame(Insert(0.3, 0.7));
  // Deliver byte by byte: no response until the frame completes.
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    ASSERT_TRUE(
        core.ConsumeBytes(client, std::string_view(&frame[i], 1)).ok());
    EXPECT_TRUE(core.TakeOutput(client).empty());
  }
  ASSERT_TRUE(
      core.ConsumeBytes(client, std::string_view(&frame.back(), 1)).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].response.sequence, 1u);
}

TEST(ServerCoreTest, MalformedPayloadKeepsStreamAlive) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t client = core.OpenClient();
  // A syntactically framed but semantically broken payload (truncated
  // insert body), followed by a valid ping in the same burst.
  std::string bad_payload;
  AppendU8(&bad_payload, static_cast<uint8_t>(MsgType::kInsert));
  AppendF64(&bad_payload, 0.5);
  std::string bad_frame;
  AppendU32(&bad_frame, static_cast<uint32_t>(bad_payload.size()));
  bad_frame += bad_payload;
  Request ping;
  ping.type = MsgType::kPing;
  ASSERT_TRUE(core.ConsumeBytes(client, bad_frame + Frame(ping)).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].response.status,
            static_cast<uint8_t>(StatusCode::kInvalidArgument));
  EXPECT_EQ(frames[0].response.type, ResponseTypeFor(MsgType::kInsert));
  EXPECT_EQ(frames[1].response.status, 0);
  EXPECT_EQ(frames[1].response.type, ResponseTypeFor(MsgType::kPing));
}

TEST(ServerCoreTest, OversizedFramePoisonsTheConnection) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t client = core.OpenClient();
  std::string poison;
  AppendU32(&poison, kMaxPayloadBytes + 1);
  EXPECT_EQ(core.ConsumeBytes(client, poison).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServerCoreTest, NotificationsRouteToSubscribersOnly) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t watcher = core.OpenClient();
  uint64_t writer = core.OpenClient();
  Request subscribe;
  subscribe.type = MsgType::kSubscribe;
  subscribe.box = Box2(Point2(0.0, 0.0), Point2(0.5, 0.5));
  ASSERT_TRUE(core.ConsumeBytes(watcher, Frame(subscribe)).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, watcher);
  ASSERT_EQ(frames.size(), 1u);
  uint64_t sub_id = frames[0].response.sub_id;
  EXPECT_GT(sub_id, 0u);

  // Writer inserts one point inside the watched box and one outside,
  // then erases the inside one.
  Request erase = Insert(0.25, 0.25);
  erase.type = MsgType::kErase;
  ASSERT_TRUE(core.ConsumeBytes(writer, Frame(Insert(0.25, 0.25)) +
                                            Frame(Insert(0.75, 0.75)) +
                                            Frame(erase))
                  .ok());
  std::vector<OutFrame> writer_frames = DrainFrames(&core, writer);
  ASSERT_EQ(writer_frames.size(), 3u);
  for (const OutFrame& f : writer_frames) {
    EXPECT_FALSE(f.is_notification);  // writer has no subscription
    EXPECT_EQ(f.response.status, 0);
  }
  std::vector<OutFrame> watcher_frames = DrainFrames(&core, watcher);
  ASSERT_EQ(watcher_frames.size(), 2u);
  EXPECT_TRUE(watcher_frames[0].is_notification);
  EXPECT_EQ(watcher_frames[0].notification.sub_id, sub_id);
  EXPECT_EQ(watcher_frames[0].notification.op, 'I');
  EXPECT_EQ(watcher_frames[0].notification.point.x(), 0.25);
  EXPECT_EQ(watcher_frames[0].notification.sequence, 1u);
  EXPECT_EQ(watcher_frames[1].notification.op, 'E');
  EXPECT_EQ(watcher_frames[1].notification.sequence, 3u);
  EXPECT_EQ(core.notifications_sent(), 2u);
}

TEST(ServerCoreTest, SelfNotificationAndBatchWrites) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t client = core.OpenClient();
  Request subscribe;
  subscribe.type = MsgType::kSubscribe;
  subscribe.box = Box2(Point2(0.0, 0.0), Point2(1.0, 1.0));
  Request batch;
  batch.type = MsgType::kInsertBatch;
  batch.batch = {Point2(0.1, 0.1), Point2(0.1, 0.1), Point2(0.9, 0.9)};
  ASSERT_TRUE(
      core.ConsumeBytes(client, Frame(subscribe) + Frame(batch)).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  // subscribe response, two insert notifications (duplicate is silent),
  // then the batch response.
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_FALSE(frames[0].is_notification);
  EXPECT_TRUE(frames[1].is_notification);
  EXPECT_TRUE(frames[2].is_notification);
  EXPECT_FALSE(frames[3].is_notification);
  EXPECT_EQ(frames[3].response.inserted, 2u);
  EXPECT_EQ(frames[3].response.duplicates, 1u);
  EXPECT_EQ(frames[3].response.rejected, 0u);
  EXPECT_EQ(frames[3].response.sequence, 2u);
}

TEST(ServerCoreTest, UnsubscribeRequiresOwnership) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t owner = core.OpenClient();
  uint64_t thief = core.OpenClient();
  Request subscribe;
  subscribe.type = MsgType::kSubscribe;
  subscribe.box = Box2(Point2(0.0, 0.0), Point2(0.5, 0.5));
  ASSERT_TRUE(core.ConsumeBytes(owner, Frame(subscribe)).ok());
  uint64_t sub_id = DrainFrames(&core, owner)[0].response.sub_id;

  Request unsubscribe;
  unsubscribe.type = MsgType::kUnsubscribe;
  unsubscribe.sub_id = sub_id;
  ASSERT_TRUE(core.ConsumeBytes(thief, Frame(unsubscribe)).ok());
  EXPECT_EQ(DrainFrames(&core, thief)[0].response.status,
            static_cast<uint8_t>(StatusCode::kNotFound));
  // Still live: the owner can drop it.
  EXPECT_EQ(core.subscriptions().live_count(), 1u);
  ASSERT_TRUE(core.ConsumeBytes(owner, Frame(unsubscribe)).ok());
  EXPECT_EQ(DrainFrames(&core, owner)[0].response.status, 0);
  EXPECT_EQ(core.subscriptions().live_count(), 0u);
}

TEST(ServerCoreTest, CloseClientDropsItsSubscriptions) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t watcher = core.OpenClient();
  uint64_t writer = core.OpenClient();
  Request subscribe;
  subscribe.type = MsgType::kSubscribe;
  subscribe.box = Box2(Point2(0.0, 0.0), Point2(1.0, 1.0));
  ASSERT_TRUE(core.ConsumeBytes(watcher, Frame(subscribe)).ok());
  (void)DrainFrames(&core, watcher);
  ASSERT_TRUE(core.CloseClient(watcher).ok());
  EXPECT_EQ(core.subscriptions().live_count(), 0u);
  ASSERT_TRUE(core.ConsumeBytes(writer, Frame(Insert(0.5, 0.5))).ok());
  EXPECT_EQ(core.notifications_sent(), 0u);
  // Double close is an error, not a crash.
  EXPECT_EQ(core.CloseClient(watcher).code(), StatusCode::kNotFound);
}

TEST(ServerCoreTest, OutOfBoundsAndNonFiniteWritesAreRejected) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t client = core.OpenClient();
  Request outside = Insert(1.5, 0.5);
  Request nan_point = Insert(0.5, 0.5);
  nan_point.point = Point2(std::numeric_limits<double>::quiet_NaN(), 0.5);
  Request erase_outside = Insert(0.5, -0.25);
  erase_outside.type = MsgType::kErase;
  core.HandleRequest(client, outside);
  core.HandleRequest(client, nan_point);
  core.HandleRequest(client, erase_outside);
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].response.status,
            static_cast<uint8_t>(StatusCode::kOutOfRange));
  EXPECT_EQ(frames[1].response.status,
            static_cast<uint8_t>(StatusCode::kInvalidArgument));
  // An out-of-domain erase is OutOfRange like an out-of-domain insert,
  // on every store (not NotFound).
  EXPECT_EQ(frames[2].response.status,
            static_cast<uint8_t>(StatusCode::kOutOfRange));
  EXPECT_EQ(core.size(), 0u);
  EXPECT_EQ(core.sequence(), 0u);  // rejected writes consume no sequence
}

TEST(ServerCoreTest, PreparedReadSeesItsSnapshotNotLaterWrites) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t client = core.OpenClient();
  ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.2, 0.2))).ok());
  (void)DrainFrames(&core, client);
  PreparedRead prepared = ValueOrDie(
      core.PrepareRead(Range(Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)))));
  // Writes that land after the pin must be invisible to the read.
  ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.4, 0.4)) +
                                            Frame(Insert(0.6, 0.6)))
                  .ok());
  (void)DrainFrames(&core, client);
  Response response = ServerCore::CompleteRead(prepared);
  EXPECT_EQ(response.status, 0);
  EXPECT_EQ(response.points.size(), 1u);
  EXPECT_EQ(response.sequence, 1u);
  // A fresh read sees everything.
  PreparedRead fresh = ValueOrDie(
      core.PrepareRead(Range(Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)))));
  EXPECT_EQ(ServerCore::CompleteRead(fresh).points.size(), 3u);
}

TEST(ServerCoreTest, WalStaysInLockstepAndReplays) {
  std::ostringstream log;
  spatial::PrTreeOptions options = SmallTree();
  {
    spatial::WalWriter wal(&log, UnitDomain(), options);
    ServerCore core(UnitDomain(), options, &wal);
    uint64_t client = core.OpenClient();
    Request erase = Insert(0.25, 0.75);
    erase.type = MsgType::kErase;
    ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.25, 0.75)) +
                                              Frame(Insert(0.5, 0.5)) +
                                              Frame(erase))
                    .ok());
    (void)DrainFrames(&core, client);
    EXPECT_EQ(core.sequence(), 3u);
    EXPECT_EQ(wal.next_sequence(), 4u);
    // Rejected writes must not burn WAL sequence numbers either.
    ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(2.0, 2.0))).ok());
    EXPECT_EQ(wal.next_sequence(), 4u);
  }
  spatial::WalRecovery recovery = ValueOrDie(spatial::ReplayWal(log.str()));
  EXPECT_EQ(recovery.last_sequence, 3u);
  EXPECT_EQ(recovery.records_applied, 3u);
  EXPECT_EQ(recovery.tree.size(), 1u);
  EXPECT_FALSE(recovery.truncated_tail);
}

TEST(ServerCoreTest, SeedPointsRebuildRecoveredState) {
  // Simulate a restart: 5 ops happened (4 inserts, 1 erase), 3 points
  // survive. The recovered core must answer queries over the survivors
  // and stamp new writes with sequence 6.
  std::vector<Point2> survivors = {Point2(0.1, 0.1), Point2(0.5, 0.5),
                                   Point2(0.9, 0.9)};
  ServerCore core(UnitDomain(), SmallTree(), /*wal=*/nullptr,
                  /*initial_sequence=*/5, survivors);
  EXPECT_EQ(core.sequence(), 5u);
  EXPECT_EQ(core.size(), 3u);
  uint64_t client = core.OpenClient();
  ASSERT_TRUE(core.ConsumeBytes(client, Frame(Insert(0.3, 0.3))).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].response.sequence, 6u);
  PreparedRead all = ValueOrDie(
      core.PrepareRead(Range(Box2(Point2(0.0, 0.0), Point2(1.0, 1.0)))));
  EXPECT_EQ(ServerCore::CompleteRead(all).points.size(), 4u);
}

TEST(ServerCoreTest, CensusAndKnnOverPipelinedState) {
  ServerCore core(UnitDomain(), SmallTree());
  uint64_t client = core.OpenClient();
  std::string burst;
  for (int i = 0; i < 8; ++i) {
    burst += Frame(Insert(0.1 + 0.1 * i, 0.05 + 0.1 * i));
  }
  Request knn;
  knn.type = MsgType::kNearestK;
  knn.point = Point2(0.1, 0.05);
  knn.k = 3;
  Request census;
  census.type = MsgType::kCensus;
  burst += Frame(knn) + Frame(census);
  ASSERT_TRUE(core.ConsumeBytes(client, burst).ok());
  std::vector<OutFrame> frames = DrainFrames(&core, client);
  ASSERT_EQ(frames.size(), 10u);
  const Response& knn_response = frames[8].response;
  EXPECT_EQ(knn_response.status, 0);
  ASSERT_EQ(knn_response.points.size(), 3u);
  EXPECT_EQ(knn_response.points[0].x(), 0.1);  // the query point itself
  const Response& census_response = frames[9].response;
  EXPECT_EQ(census_response.size, 8u);
  EXPECT_GT(census_response.leaf_count, 0u);
}

}  // namespace
}  // namespace popan::server
