#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

namespace popbench {

namespace server = popan::server;
using popan::Status;

server::Request ToRequest(const Op& op) {
  server::Request r;
  switch (op.kind) {
    case OpKind::kInsert:
      r.type = server::MsgType::kInsert;
      r.point = op.point;
      break;
    case OpKind::kErase:
      r.type = server::MsgType::kErase;
      r.point = op.point;
      break;
    case OpKind::kInsertBatch:
      r.type = server::MsgType::kInsertBatch;
      r.batch = op.batch;
      break;
    case OpKind::kRange:
      r.type = server::MsgType::kRange;
      r.box = op.box;
      break;
    case OpKind::kPartialMatch:
      r.type = server::MsgType::kPartialMatch;
      r.axis = op.axis;
      r.value = op.value;
      break;
    case OpKind::kNearestK:
      r.type = server::MsgType::kNearestK;
      r.point = op.point;
      r.k = op.k;
      break;
    case OpKind::kCensus:
      r.type = server::MsgType::kCensus;
      break;
    case OpKind::kSubscribe:
      r.type = server::MsgType::kSubscribe;
      r.box = op.box;
      break;
  }
  return r;
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Status Connection::Dial(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Internal("socket() failed");
  // Default socket options, as popan_client uses: the benchmark sees the
  // latencies the server gives an ordinary client.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return Status::Internal(std::string("connect failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status Connection::SendAll(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Internal("send failed");
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Connection::ReadSome() {
  if (offset_ > 0 && offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  } else if (offset_ > (1u << 20)) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  char chunk[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return Status::Internal("server closed the connection");
    if (n < 0) return Status::Internal("recv failed");
    buffer_.append(chunk, static_cast<size_t>(n));
    return Status::OK();
  }
}

bool Connection::NextResponse(
    std::string* payload, std::vector<server::Notification>* notifications,
    Status* error) {
  for (;;) {
    std::string_view frame;
    size_t at = offset_;
    if (!server::NextFrame(buffer_, &at, &frame, error)) return false;
    offset_ = at;
    if (!frame.empty() &&
        static_cast<uint8_t>(frame[0]) ==
            static_cast<uint8_t>(server::MsgType::kNotification)) {
      popan::StatusOr<server::Notification> n =
          server::DecodeNotificationPayload(frame);
      if (!n.ok()) {
        *error = n.status();
        return false;
      }
      if (notifications != nullptr) notifications->push_back(n.value());
      continue;
    }
    payload->assign(frame.data(), frame.size());
    return true;
  }
}

Status Connection::ReadResponse(
    std::string* payload, std::vector<server::Notification>* notifications) {
  for (;;) {
    Status error;
    if (NextResponse(payload, notifications, &error)) return Status::OK();
    if (!error.ok()) return error;
    POPAN_RETURN_IF_ERROR(ReadSome());
  }
}

}  // namespace popbench
