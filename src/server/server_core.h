#ifndef POPAN_SERVER_SERVER_CORE_H_
#define POPAN_SERVER_SERVER_CORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/protocol.h"
#include "server/shard_store.h"
#include "server/subscriptions.h"
#include "shard/router.h"
#include "spatial/pr_tree.h"
#include "spatial/wal.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace popan::server {

/// A read request paired with the consistent cut of the store it
/// executes against. Produced serially by ServerCore::PrepareRead;
/// completed by CompleteRead — the completion touches only the pinned
/// snapshot, so the response is a pure function of (snapshot, request):
/// bit-identical on any thread. SocketServer completes reads inline on
/// its command thread; only the traffic simulator hands them to worker
/// threads, where they overlap writes without locks. Move-only (the
/// snapshot owns its epoch pins).
struct PreparedRead {
  Request request;
  shard::MultiSnapshot snapshot;
};

/// The transport-agnostic query server: a ShardStoreBackend (a
/// Morton-range router — one shard for single-tree serving — plus an
/// optional whole-store WAL, see shard_store.h), a SubscriptionIndex,
/// and per-client frame outboxes.
///
/// Threading contract: every member function runs on the single command
/// thread (the socket poll loop, or the simulator's issuing loop) EXCEPT
/// the static CompleteRead, which is safe on any thread because a
/// PreparedRead's snapshot is already pinned. This mirrors the
/// storage-engine split: serial command log, parallel reads. The contract
/// is expressed as a ThreadRole capability: all mutable state is
/// GUARDED_BY(command_role_), every entry point opens an AssumeRole
/// scope, and internal helpers carry REQUIRES(command_role_) — so under
/// clang -Wthread-safety a new code path that touches server state
/// without declaring its affinity fails the build.
///
/// Write path ordering: apply to the store (the router validates —
/// finite, in-domain — then changes the structure, then the WAL appends
/// in lockstep) -> match subscriptions -> enqueue notifications. A
/// rejected write changes nothing and burns no sequence; the response
/// carries the store's sequence.
class ServerCore {
 public:
  /// Serves an externally constructed store (e.g. a durable or
  /// rebalancing router).
  explicit ServerCore(std::unique_ptr<ShardStoreBackend> store);

  /// Single-tree form: an in-memory, non-rebalancing one-shard router.
  /// `wal` may be null (no durability); when provided it must already be
  /// positioned (fresh header or ResumeAt after recovery) and its
  /// next_sequence must equal `initial_sequence` + 1.
  ///
  /// `seed_points` pre-loads recovered state (WAL replay / checkpoint)
  /// without logging or notifying: the tree is constructed so that its
  /// sequence lands exactly on `initial_sequence` after seeding, keeping
  /// snapshot sequence numbers aligned with log sequence numbers across
  /// restarts. `initial_sequence` must be >= seed_points.size() (the
  /// recovered op count can only exceed the surviving point count).
  ServerCore(const geo::Box2& bounds, const spatial::PrTreeOptions& options,
             spatial::WalWriter* wal = nullptr,
             uint64_t initial_sequence = 0,
             const std::vector<geo::Point2>& seed_points = {});

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Registers a connection; returns its client id (monotone from 1).
  uint64_t OpenClient();

  /// Drops a connection and every subscription it owns.
  [[nodiscard]] Status CloseClient(uint64_t client_id);

  /// Feeds raw transport bytes from a client. Every complete frame in the
  /// stream is decoded and handled (pipelining: a burst of frames is
  /// answered in order); a trailing partial frame is buffered. Returns an
  /// error only for unrecoverable stream corruption (oversized length
  /// prefix, unknown client) — the caller must drop the connection.
  /// Malformed request *payloads* stay recoverable: they produce an error
  /// response and the stream continues.
  [[nodiscard]] Status ConsumeBytes(uint64_t client_id,
                                    std::string_view bytes);

  /// Handles one decoded request, appending the response frame (and any
  /// notification frames triggered by a write) to client outboxes.
  void HandleRequest(uint64_t client_id, const Request& request);

  /// Pins a snapshot for a read-kind request (range / partial-match /
  /// k-NN / census). ResourceExhausted when all epoch reader slots are
  /// taken — the caller sheds load with an error response instead of
  /// crashing (the bug this API replaced).
  [[nodiscard]] StatusOr<PreparedRead> PrepareRead(const Request& request);

  /// Builds the response to a prepared read: points and cost counters
  /// from shard::Execute, and for range / partial-match answers the
  /// census-driven predicted_nodes. Pure and thread-safe (see above).
  static Response CompleteRead(const PreparedRead& prepared);

  /// Encodes `response` into `client_id`'s outbox. Used by callers that
  /// complete reads off-thread and re-submit in request order.
  void SubmitResponse(uint64_t client_id, const Response& response);

  /// Moves out everything queued for `client_id` (responses and
  /// notifications, in enqueue order). Empty string when nothing pending
  /// or the client is unknown.
  std::string TakeOutput(uint64_t client_id);

  /// Clients with bytes queued, ascending. The poll loop uses this to
  /// arm POLLOUT only where needed.
  std::vector<uint64_t> ClientsWithOutput() const;

  uint64_t sequence() const {
    popan::AssumeRole command(command_role_);
    return store_->sequence();
  }
  size_t size() const {
    popan::AssumeRole command(command_role_);
    return store_->size();
  }
  const SubscriptionIndex& subscriptions() const {
    popan::AssumeRole command(command_role_);
    return subs_;
  }
  uint64_t notifications_sent() const {
    popan::AssumeRole command(command_role_);
    return notifications_sent_;
  }

 private:
  struct ClientState {
    std::string inbox;    ///< undecoded transport bytes (partial frame)
    std::string outbox;   ///< encoded frames awaiting the transport
    std::vector<uint64_t> sub_ids;  ///< subscriptions this client owns
  };

  // REQUIRES bodies behind the public entry points above: public methods
  // call each other (ConsumeBytes -> HandleRequest -> SubmitResponse), so
  // the AssumeRole scope opens once at the outermost entry and the inner
  // hops stay annotation-checked without re-acquiring the capability.
  void HandleRequestLocked(uint64_t client_id, const Request& request)
      REQUIRES(command_role_);
  [[nodiscard]] StatusOr<PreparedRead> PrepareReadLocked(
      const Request& request) REQUIRES(command_role_);
  void SubmitResponseLocked(uint64_t client_id, const Response& response)
      REQUIRES(command_role_);
  Response HandleWrite(uint64_t client_id, const Request& request)
      REQUIRES(command_role_);
  Response HandleSubscribe(uint64_t client_id, const Request& request)
      REQUIRES(command_role_);
  /// Appends one notification frame per subscription matching `p` (in
  /// ascending subscription-id order) to the owning clients' outboxes.
  void NotifyWrite(char op, const geo::Point2& p, uint64_t sequence)
      REQUIRES(command_role_);

  /// The command thread's affinity capability (see threading contract).
  popan::ThreadRole command_role_;
  /// Declared before subs_: the subscription index is constructed from
  /// the store's bounds.
  std::unique_ptr<ShardStoreBackend> store_ GUARDED_BY(command_role_);
  SubscriptionIndex subs_ GUARDED_BY(command_role_);
  // Ordered: deterministic scans.
  std::map<uint64_t, ClientState> clients_ GUARDED_BY(command_role_);
  // Subscription id -> client id.
  std::map<uint64_t, uint64_t> sub_owner_ GUARDED_BY(command_role_);
  uint64_t next_client_id_ GUARDED_BY(command_role_) = 1;
  uint64_t notifications_sent_ GUARDED_BY(command_role_) = 0;
  std::vector<uint64_t> match_scratch_ GUARDED_BY(command_role_);
};

}  // namespace popan::server

#endif  // POPAN_SERVER_SERVER_CORE_H_
