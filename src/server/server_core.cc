#include "server/server_core.h"

#include <algorithm>
#include <utility>

#include "core/query_model.h"
#include "query/query.h"
#include "spatial/census.h"
#include "util/check.h"

namespace popan::server {

namespace {

Response ErrorResponse(MsgType type, const Status& status) {
  Response response;
  response.type = ResponseTypeFor(type);
  response.status = static_cast<uint8_t>(status.code());
  response.message = status.message();
  return response;
}

bool IsReadKind(MsgType type) {
  return type == MsgType::kRange || type == MsgType::kPartialMatch ||
         type == MsgType::kNearestK || type == MsgType::kCensus;
}

shard::RouterOptions SingleTreeOptions(
    const spatial::PrTreeOptions& options) {
  shard::RouterOptions router_options;
  router_options.tree = options;
  return router_options;
}

}  // namespace

ServerCore::ServerCore(std::unique_ptr<ShardStoreBackend> store)
    : store_(std::move(store)), subs_(store_->bounds()) {}

ServerCore::ServerCore(const geo::Box2& bounds,
                       const spatial::PrTreeOptions& options,
                       spatial::WalWriter* wal, uint64_t initial_sequence,
                       const std::vector<geo::Point2>& seed_points)
    : ServerCore(std::make_unique<ShardStoreBackend>(
          std::make_unique<shard::ShardRouter>(
              bounds, SingleTreeOptions(options), initial_sequence,
              seed_points),
          wal)) {}

uint64_t ServerCore::OpenClient() {
  popan::AssumeRole command(command_role_);
  uint64_t id = next_client_id_++;
  clients_.emplace(id, ClientState{});
  return id;
}

Status ServerCore::CloseClient(uint64_t client_id) {
  popan::AssumeRole command(command_role_);
  auto it = clients_.find(client_id);
  if (it == clients_.end()) {
    return Status::NotFound("unknown client " + std::to_string(client_id));
  }
  for (uint64_t sub_id : it->second.sub_ids) {
    Status dropped = subs_.Unsubscribe(sub_id);
    POPAN_CHECK(dropped.ok()) << dropped.ToString();
    sub_owner_.erase(sub_id);
  }
  clients_.erase(it);
  return Status::OK();
}

Status ServerCore::ConsumeBytes(uint64_t client_id, std::string_view bytes) {
  popan::AssumeRole command(command_role_);
  auto it = clients_.find(client_id);
  if (it == clients_.end()) {
    return Status::NotFound("unknown client " + std::to_string(client_id));
  }
  it->second.inbox.append(bytes.data(), bytes.size());
  size_t offset = 0;
  Status frame_error;
  std::string_view payload;
  // Drain every complete frame already buffered — this is what makes
  // pipelining work: a burst of N requests is answered with N responses
  // from one ConsumeBytes call, no transport round-trips in between.
  while (NextFrame(it->second.inbox, &offset, &payload, &frame_error)) {
    StatusOr<Request> request = DecodeRequestPayload(payload);
    if (request.ok()) {
      HandleRequestLocked(client_id, request.value());
    } else {
      // Framing is intact, the payload is not: answer and carry on.
      MsgType type = payload.empty() ? MsgType::kPing
                                     : static_cast<MsgType>(
                                           static_cast<uint8_t>(payload[0]));
      it->second.outbox +=
          EncodeResponseFrame(ErrorResponse(type, request.status()));
    }
  }
  it->second.inbox.erase(0, offset);
  return frame_error;
}

void ServerCore::HandleRequest(uint64_t client_id, const Request& request) {
  popan::AssumeRole command(command_role_);
  HandleRequestLocked(client_id, request);
}

void ServerCore::HandleRequestLocked(uint64_t client_id,
                                     const Request& request) {
  auto it = clients_.find(client_id);
  POPAN_CHECK(it != clients_.end()) << "request from unopened client";
  if (IsReadKind(request.type)) {
    StatusOr<PreparedRead> prepared = PrepareReadLocked(request);
    if (!prepared.ok()) {
      SubmitResponseLocked(client_id,
                           ErrorResponse(request.type, prepared.status()));
      return;
    }
    SubmitResponseLocked(client_id, CompleteRead(prepared.value()));
    return;
  }
  switch (request.type) {
    case MsgType::kInsert:
    case MsgType::kErase:
    case MsgType::kInsertBatch:
      SubmitResponseLocked(client_id, HandleWrite(client_id, request));
      return;
    case MsgType::kSubscribe:
      SubmitResponseLocked(client_id, HandleSubscribe(client_id, request));
      return;
    case MsgType::kUnsubscribe: {
      Response response;
      response.type = ResponseTypeFor(request.type);
      auto owner = sub_owner_.find(request.sub_id);
      if (owner == sub_owner_.end() || owner->second != client_id) {
        // A client can only drop its own subscriptions; an id owned by
        // another connection is indistinguishable from a dead one.
        SubmitResponseLocked(
            client_id,
            ErrorResponse(request.type,
                          Status::NotFound(
                              "subscription " +
                              std::to_string(request.sub_id) +
                              " is not registered to this client")));
        return;
      }
      Status dropped = subs_.Unsubscribe(request.sub_id);
      POPAN_CHECK(dropped.ok()) << dropped.ToString();
      sub_owner_.erase(owner);
      std::vector<uint64_t>& owned = it->second.sub_ids;
      owned.erase(std::find(owned.begin(), owned.end(), request.sub_id));
      SubmitResponseLocked(client_id, response);
      return;
    }
    case MsgType::kPing: {
      Response response;
      response.type = ResponseTypeFor(request.type);
      SubmitResponseLocked(client_id, response);
      return;
    }
    default:
      SubmitResponseLocked(client_id,
                           ErrorResponse(request.type,
                                         Status::InvalidArgument(
                                             "type is not a request")));
      return;
  }
}

StatusOr<PreparedRead> ServerCore::PrepareRead(const Request& request) {
  popan::AssumeRole command(command_role_);
  return PrepareReadLocked(request);
}

StatusOr<PreparedRead> ServerCore::PrepareReadLocked(const Request& request) {
  if (!IsReadKind(request.type)) {
    return Status::InvalidArgument("not a read-kind request");
  }
  POPAN_ASSIGN_OR_RETURN(shard::MultiSnapshot snapshot,
                         store_->router().TrySnapshot());
  return PreparedRead{request, std::move(snapshot)};
}

Response ServerCore::CompleteRead(const PreparedRead& prepared) {
  const shard::MultiSnapshot& snapshot = prepared.snapshot;
  const Request& request = prepared.request;
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
  query::QuerySpec spec;
  switch (request.type) {
    case MsgType::kRange:
      spec = query::QuerySpec::Range(request.box);
      break;
    case MsgType::kPartialMatch:
      spec = query::QuerySpec::PartialMatch(request.axis, request.value);
      break;
    default:
      spec = query::QuerySpec::NearestK(request.point, request.k);
      break;
  }
  query::QueryResult result = shard::Execute(snapshot, spec);
  response.cost = result.cost;
  response.points = std::move(result.points);
  // The serving-time cost estimate rides along with every range and
  // partial-match answer: the same census-driven model the offline
  // analysis uses, evaluated on the merged census of the pinned cut, so a
  // client can compare predicted against measured work per request.
  if (request.type != MsgType::kNearestK && snapshot.size() > 0) {
    const geo::Box2& domain = snapshot.domain();
    core::QueryCostModel model =
        core::QueryCostModel::FromCensus(snapshot.LiveCensus(), domain);
    if (request.type == MsgType::kRange) {
      double qx = std::min(request.box.Extent(0), domain.Extent(0));
      double qy = std::min(request.box.Extent(1), domain.Extent(1));
      response.predicted_nodes = model.PredictRange(qx, qy).nodes;
    } else {
      response.predicted_nodes = model.PredictPartialMatch().nodes;
    }
  }
  return response;
}

void ServerCore::SubmitResponse(uint64_t client_id,
                                const Response& response) {
  popan::AssumeRole command(command_role_);
  SubmitResponseLocked(client_id, response);
}

void ServerCore::SubmitResponseLocked(uint64_t client_id,
                                      const Response& response) {
  auto it = clients_.find(client_id);
  if (it == clients_.end()) return;  // client vanished mid-flight
  it->second.outbox += EncodeResponseFrame(response);
}

std::string ServerCore::TakeOutput(uint64_t client_id) {
  popan::AssumeRole command(command_role_);
  auto it = clients_.find(client_id);
  if (it == clients_.end()) return std::string();
  return std::exchange(it->second.outbox, std::string());
}

std::vector<uint64_t> ServerCore::ClientsWithOutput() const {
  popan::AssumeRole command(command_role_);
  std::vector<uint64_t> ids;
  for (const auto& [id, state] : clients_) {
    if (!state.outbox.empty()) ids.push_back(id);
  }
  return ids;
}

Response ServerCore::HandleWrite(uint64_t client_id,
                                 const Request& request) {
  (void)client_id;
  Response response;
  response.type = ResponseTypeFor(request.type);
  if (request.type == MsgType::kInsertBatch) {
    for (const geo::Point2& p : request.batch) {
      StatusOr<uint64_t> applied = store_->ApplyInsert(p);
      if (applied.ok()) {
        NotifyWrite('I', p, applied.value());
        ++response.inserted;
      } else if (applied.status().code() == StatusCode::kAlreadyExists) {
        ++response.duplicates;
      } else {
        ++response.rejected;
      }
    }
    response.sequence = store_->sequence();
    return response;
  }
  const geo::Point2& p = request.point;
  StatusOr<uint64_t> applied = request.type == MsgType::kInsert
                                   ? store_->ApplyInsert(p)
                                   : store_->ApplyErase(p);
  if (!applied.ok()) {
    return ErrorResponse(request.type, applied.status());
  }
  char op = request.type == MsgType::kInsert ? 'I' : 'E';
  NotifyWrite(op, p, applied.value());
  response.sequence = applied.value();
  return response;
}

Response ServerCore::HandleSubscribe(uint64_t client_id,
                                     const Request& request) {
  StatusOr<uint64_t> sub_id = subs_.Subscribe(request.box);
  if (!sub_id.ok()) {
    return ErrorResponse(request.type, sub_id.status());
  }
  sub_owner_.emplace(sub_id.value(), client_id);
  clients_.find(client_id)->second.sub_ids.push_back(sub_id.value());
  Response response;
  response.type = ResponseTypeFor(request.type);
  response.sub_id = sub_id.value();
  return response;
}

void ServerCore::NotifyWrite(char op, const geo::Point2& p,
                             uint64_t sequence) {
  match_scratch_.clear();
  subs_.Match(p, &match_scratch_);
  for (uint64_t sub_id : match_scratch_) {
    auto owner = sub_owner_.find(sub_id);
    POPAN_CHECK(owner != sub_owner_.end());
    auto client = clients_.find(owner->second);
    if (client == clients_.end()) continue;
    Notification notification;
    notification.sub_id = sub_id;
    notification.op = op;
    notification.point = p;
    notification.sequence = sequence;
    client->second.outbox += EncodeNotificationFrame(notification);
    ++notifications_sent_;
  }
}

}  // namespace popan::server
