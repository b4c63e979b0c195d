#ifndef POPBENCH_WIRE_H_
#define POPBENCH_WIRE_H_

// A loopback client connection to popan_server: it sends request frames
// and reads frames until a request's response, collecting the
// notification frames that arrive in between. ReadResponse blocks;
// ReadSome + NextResponse let one thread poll several connections.

#include <cstdint>
#include <string>
#include <vector>

#include "ops.h"
#include "server/protocol.h"
#include "util/status.h"
#include "util/statusor.h"

namespace popbench {

/// The wire request for an op.
popan::server::Request ToRequest(const Op& op);

class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] popan::Status Dial(uint16_t port);

  int fd() const { return fd_; }

  [[nodiscard]] popan::Status SendAll(const std::string& bytes);
  /// Reads until one response frame arrives; notification frames read
  /// on the way are decoded into `notifications`. `payload` receives the
  /// response payload bytes.
  [[nodiscard]] popan::Status ReadResponse(
      std::string* payload,
      std::vector<popan::server::Notification>* notifications);

  /// One recv() into the buffer (blocks only if nothing is readable).
  [[nodiscard]] popan::Status ReadSome();
  /// Takes the next response already buffered, decoding notification
  /// frames before it into `notifications`. False when no complete
  /// response is buffered yet (or `*error` is set).
  bool NextResponse(std::string* payload,
                    std::vector<popan::server::Notification>* notifications,
                    popan::Status* error);

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t offset_ = 0;
};

}  // namespace popbench

#endif  // POPBENCH_WIRE_H_
