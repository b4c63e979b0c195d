// popbench drive: the closed-loop socket client of the two server
// workloads. kConnections connections served by one thread, every one
// waiting for its reply before sending its next request (the way
// popan_client and traffic_sim talk to the server). After a warm-up,
// throughput is the median over equal windows and each latency
// percentile the median over chunks of consecutive requests. When the
// clock runs out the final state is checked over the
// wire against the client's own model of the point set, and (ingest)
// every notification is matched against the acknowledged writes.

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <tuple>

#include "cli.h"
#include "ops.h"
#include "spans.h"
#include "stats.h"
#include "wire.h"

namespace popbench {

namespace geo = popan::geo;
namespace server = popan::server;

namespace {

struct ConnResult {
  FailureLedger ledger;
  /// (completion time, round trip in µs) of each measured request.
  std::vector<std::pair<int64_t, double>> read_us;
  std::vector<std::pair<int64_t, double>> write_us;
  std::vector<uint64_t> completed;            ///< per window
  std::vector<uint64_t> points;               ///< acked inserts per window
  std::vector<geo::Point2> acked_inserts;
  std::vector<geo::Point2> acked_erases;
  std::vector<server::Notification> notifications;
  std::vector<uint64_t> sub_ids;  ///< reader: id per subscription box
  std::vector<Span> spans;        ///< traced run: one "socket" span per op
  std::string error;
};

struct RunClock {
  int64_t measure_start = 0;
  int64_t window_ns = 0;
  size_t windows = 0;
  int64_t end = 0;
};

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Checks a successful answer against what the request allows; true when
// the answer is plausible. (Exact answers are checked on the final state,
// where concurrent writers no longer move them.)
bool AnswerIsPlausible(const Op& op, const server::Response& r) {
  switch (op.kind) {
    case OpKind::kRange:
      for (const geo::Point2& p : r.points) {
        if (!op.box.Contains(p)) return false;
      }
      return true;
    case OpKind::kPartialMatch: {
      bool holds_anchor = false;
      for (const geo::Point2& p : r.points) {
        if (p[op.axis] != op.value) return false;
        holds_anchor = holds_anchor || p == op.point;
      }
      return holds_anchor || !op.anchored;
    }
    case OpKind::kNearestK:
      return r.points.size() == op.k;
    case OpKind::kCensus:
      return r.size > 0;
    case OpKind::kInsertBatch:
      return r.inserted == op.batch.size() && r.duplicates == 0 &&
             r.rejected == 0;
    case OpKind::kSubscribe:
      return r.sub_id != 0;
    case OpKind::kInsert:
    case OpKind::kErase:
      return true;
  }
  return false;
}

constexpr int64_t kAnswerTimeoutNs = 30'000'000'000;
// Requests per latency chunk: p99 of 1000 has exactly ten beyond it.
constexpr size_t kChunk = 1000;

// One connection of the client's event loop: its stream, its results,
// and the request it has in flight.
struct Slot {
  Connection conn;
  OpStream* stream = nullptr;
  ConnResult* out = nullptr;
  Op op;
  int64_t t0 = 0;
  bool busy = false;
  bool measured = false;
};

// Sends `op` on `slot`; false when the connection is lost.
bool Send(Slot* slot, Op op, bool measured) {
  const std::string frame = server::EncodeRequestFrame(ToRequest(op));
  ++slot->out->ledger.attempted;
  slot->op = std::move(op);
  slot->measured = measured;
  slot->t0 = NowNs();
  popan::Status s = slot->conn.SendAll(frame);
  if (!s.ok()) {
    slot->out->error = s.ToString();
    return false;
  }
  slot->busy = true;
  return true;
}

// Accounts the response to `slot`'s request, timed from its first byte
// sent to the response read (t1).
void Complete(Slot* slot, const std::string& payload, int64_t t1,
              const RunClock& clock, bool traced) {
  ConnResult* out = slot->out;
  const Op& op = slot->op;
  slot->busy = false;
  ++out->ledger.answered;
  popan::StatusOr<server::Response> r = server::DecodeResponsePayload(payload);
  const bool ok = r.ok() && r.value().status == 0;
  if (!ok) {
    ++out->ledger.errors;
  } else if (!AnswerIsPlausible(op, r.value())) {
    ++out->ledger.wrong;
  }
  if (ok && op.kind == OpKind::kSubscribe) {
    out->sub_ids.push_back(r.value().sub_id);
  }
  size_t inserted = 0;
  if (ok && op.kind == OpKind::kInsert) {
    inserted = 1;
    out->acked_inserts.push_back(op.point);
  } else if (ok && op.kind == OpKind::kInsertBatch) {
    inserted = r.value().inserted;
    out->acked_inserts.insert(out->acked_inserts.end(), op.batch.begin(),
                              op.batch.end());
  } else if (ok && op.kind == OpKind::kErase) {
    out->acked_erases.push_back(op.point);
  }
  if (traced) out->spans.push_back(Span{0, Span::kRoot, op.id, slot->t0, t1});
  const int64_t since = t1 - clock.measure_start;
  if (slot->measured && since >= 0) {
    const size_t win = static_cast<size_t>(since / clock.window_ns);
    if (win < clock.windows) {
      const double us = static_cast<double>(t1 - slot->t0) / 1000.0;
      (IsWrite(op.kind) ? out->write_us : out->read_us).emplace_back(t1, us);
      ++out->completed[win];
      out->points[win] += inserted;
    }
  }
}

// Sends `op` and waits for its answer (outside the measured loop).
bool Issue(Slot* slot, Op op, const RunClock& clock, bool traced) {
  if (!Send(slot, std::move(op), false)) return false;
  std::string payload;
  popan::Status s = slot->conn.ReadResponse(&payload, &slot->out->notifications);
  if (!s.ok()) {
    slot->out->error = s.ToString();
    slot->busy = false;
    return false;
  }
  Complete(slot, payload, NowNs(), clock, traced);
  return true;
}

// The closed loop: every connection keeps exactly one request in flight
// and sends its next one as soon as the answer is read, until the clock
// runs out. One thread serves all connections through poll(), so client
// threads never compete with each other (or the server) for CPUs.
void RunClosedLoop(std::vector<Slot>* slots, const RunClock& clock,
                   bool traced) {
  for (Slot& slot : *slots) {
    if (slot.out->error.empty()) Send(&slot, slot.stream->Next(), true);
  }
  std::vector<pollfd> fds;
  std::vector<Slot*> polled;
  std::string payload;
  for (;;) {
    fds.clear();
    polled.clear();
    for (Slot& slot : *slots) {
      if (!slot.busy) continue;
      fds.push_back(pollfd{slot.conn.fd(), POLLIN, 0});
      polled.push_back(&slot);
    }
    // A server that stops answering leaves its requests unanswered (they
    // count as failures) instead of hanging the run.
    if (fds.empty() || NowNs() > clock.end + kAnswerTimeoutNs) return;
    if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) return;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Slot* slot = polled[i];
      popan::Status s = slot->conn.ReadSome();
      popan::Status error;
      if (s.ok() &&
          slot->conn.NextResponse(&payload, &slot->out->notifications,
                                  &error)) {
        Complete(slot, payload, NowNs(), clock, traced);
        if (NowNs() < clock.end) Send(slot, slot->stream->Next(), true);
      } else if (!s.ok() || !error.ok()) {
        slot->out->error = (s.ok() ? error : s).ToString();
        slot->busy = false;
      }
    }
  }
}

// Splits `points` into half-open boxes of at most `limit` points each
// (median cuts, alternating axes), so every final-state range response
// stays well under the server's per-connection output cap.
void PartitionBoxes(const geo::Box2& box, std::vector<geo::Point2> points,
                    size_t axis, size_t limit, std::vector<geo::Box2>* out) {
  if (points.size() <= limit) {
    out->push_back(box);
    return;
  }
  const size_t mid = points.size() / 2;
  std::nth_element(points.begin(), points.begin() + mid, points.end(),
                   [axis](const geo::Point2& a, const geo::Point2& b) {
                     return a[axis] < b[axis];
                   });
  const double cut = points[mid][axis];
  std::vector<geo::Point2> left;
  std::vector<geo::Point2> right;
  for (const geo::Point2& p : points) (p[axis] < cut ? left : right).push_back(p);
  if (left.empty() || right.empty()) {  // all on one coordinate
    out->push_back(box);
    return;
  }
  geo::Point2 lo_hi = box.hi();
  lo_hi[axis] = cut;
  geo::Point2 hi_lo = box.lo();
  hi_lo[axis] = cut;
  PartitionBoxes(geo::Box2(box.lo(), lo_hi), std::move(left), 1 - axis, limit,
                 out);
  PartitionBoxes(geo::Box2(hi_lo, box.hi()), std::move(right), 1 - axis,
                 limit, out);
}

bool PointLess(const geo::Point2& a, const geo::Point2& b) {
  return a.x() != b.x() ? a.x() < b.x() : a.y() < b.y();
}

// Check (a): the final state over the wire equals the model. Returns the
// number of wrong answers; each request is accounted in `ledger`.
uint64_t CheckFinalState(uint16_t port, std::vector<geo::Point2> model,
                         FailureLedger* ledger, std::string* note) {
  Connection conn;
  if (!conn.Dial(port).ok()) {
    ++ledger->attempted;
    *note = "cannot connect for the final check";
    return 0;
  }
  auto ask = [&](const Op& op, server::Response* r) {
    ++ledger->attempted;
    std::string payload;
    if (!conn.SendAll(server::EncodeRequestFrame(ToRequest(op))).ok() ||
        !conn.ReadResponse(&payload, nullptr).ok()) {
      return false;
    }
    ++ledger->answered;
    popan::StatusOr<server::Response> d =
        server::DecodeResponsePayload(payload);
    if (!d.ok() || d.value().status != 0) {
      ++ledger->errors;
      return false;
    }
    *r = std::move(d).value();
    return true;
  };
  uint64_t wrong = 0;
  Op census;
  census.kind = OpKind::kCensus;
  server::Response r;
  if (ask(census, &r) && r.size != model.size()) {
    ++wrong;
    *note = "census size " + std::to_string(r.size) + " != model " +
            std::to_string(model.size());
  }
  std::vector<geo::Box2> boxes;
  PartitionBoxes(geo::Box2::UnitCube(1.0), model, 0, 100000, &boxes);
  std::vector<geo::Point2> served;
  served.reserve(model.size());
  for (const geo::Box2& box : boxes) {
    Op range;
    range.kind = OpKind::kRange;
    range.box = box;
    if (!ask(range, &r)) return wrong;
    served.insert(served.end(), r.points.begin(), r.points.end());
  }
  std::sort(model.begin(), model.end(), PointLess);
  std::sort(served.begin(), served.end(), PointLess);
  if (served != model) {
    ++wrong;
    *note += " full-range result " + std::to_string(served.size()) +
             " points differs from the model's " +
             std::to_string(model.size());
  }
  return wrong;
}

// Check (b): every acknowledged write inside a subscribed box produced
// exactly one notification. Returns the number of notifications missing
// or unexpected.
uint64_t CheckNotifications(uint64_t seed,
                            const std::vector<ConnResult>& results) {
  using Key = std::tuple<uint64_t, char, uint64_t, uint64_t>;
  const std::vector<geo::Box2> boxes = SubscriptionBoxes(seed);
  const ConnResult& reader = results[kIngestWriters];
  if (reader.sub_ids.size() != boxes.size()) return 1;
  std::vector<Key> expected;
  for (size_t c = 0; c < kIngestWriters; ++c) {
    for (char op : {'I', 'E'}) {
      const auto& points =
          op == 'I' ? results[c].acked_inserts : results[c].acked_erases;
      for (const geo::Point2& p : points) {
        for (size_t b = 0; b < boxes.size(); ++b) {
          if (boxes[b].Contains(p)) {
            expected.emplace_back(reader.sub_ids[b], op, Bits(p.x()),
                                  Bits(p.y()));
          }
        }
      }
    }
  }
  std::vector<Key> received;
  for (const server::Notification& n : reader.notifications) {
    received.emplace_back(n.sub_id, n.op, Bits(n.point.x()),
                          Bits(n.point.y()));
  }
  std::sort(expected.begin(), expected.end());
  std::sort(received.begin(), received.end());
  std::vector<Key> diff;
  std::set_symmetric_difference(expected.begin(), expected.end(),
                                received.begin(), received.end(),
                                std::back_inserter(diff));
  return diff.size();
}

}  // namespace

int RunDrive(const Args& args) {
  Workload w;
  if (!ParseWorkload(args.Str("workload", ""), &w) ||
      w == Workload::kPaperSweep || !args.Has("port")) {
    std::cerr << "drive needs --workload serve_query|ingest_sharded --port P\n";
    return 2;
  }
  const uint64_t seed = args.U64("seed", 1);
  const uint16_t port = static_cast<uint16_t>(args.U64("port", 0));
  const double seconds = args.Num("seconds", 10);
  const double warmup = args.Num("warmup", 1);
  // About one-second windows, at least five: throughput moves by tens of
  // percent from one second to the next, and the median over many
  // windows is what keeps one run comparable with the next.
  const size_t windows = std::max<size_t>(5, std::llround(seconds));
  const std::string spans_path = args.Str("spans", "");

  RunClock clock;
  clock.windows = windows;
  clock.window_ns = static_cast<int64_t>(seconds * 1e9 / windows);
  std::vector<ConnResult> results(kConnections);
  std::vector<OpStream> streams;
  for (size_t c = 0; c < kConnections; ++c) streams.emplace_back(w, seed, c);
  // Dial in connection order, one at a time: the server accepts in that
  // order and its poll loop serves connections in accept order, so the
  // ingest reader is always served after the three writers in a round.
  // (Dialled concurrently, the order was a race, and the reader's
  // latency flipped between two regimes 2x apart from run to run.)
  const bool traced = !spans_path.empty();
  std::vector<Slot> slots(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    Slot& slot = slots[c];
    slot.stream = &streams[c];
    slot.out = &results[c];
    slot.out->completed.assign(windows, 0);
    slot.out->points.assign(windows, 0);
    popan::Status dialed = slot.conn.Dial(port);
    if (!dialed.ok()) slot.out->error = dialed.ToString();
  }
  // The ingest reader holds its subscriptions before anyone writes.
  Slot& reader = slots[kIngestWriters];
  if (w == Workload::kIngestSharded) {
    for (size_t i = 0; i < kSubscriptions && reader.out->error.empty(); ++i) {
      Issue(&reader, reader.stream->Next(), clock, traced);
    }
  }
  const int64_t start = NowNs();
  clock.measure_start = start + static_cast<int64_t>(warmup * 1e9);
  clock.end = clock.measure_start + clock.window_ns * windows;
  RunClosedLoop(&slots, clock, traced);
  if (w == Workload::kIngestSharded && reader.out->error.empty()) {
    // Every write has been answered, so every notification it caused is
    // queued ahead of this request's response.
    Op ping;
    ping.kind = OpKind::kCensus;
    Issue(&reader, ping, clock, traced);
  }

  FailureLedger ledger;
  std::string errors;
  for (const ConnResult& r : results) {
    ledger.Merge(r.ledger);
    if (!r.error.empty()) errors += r.error + "; ";
  }

  // The model: the prepared points plus what each connection left.
  std::vector<geo::Point2> model = PreparedPoints(w, seed);
  for (const OpStream& s : streams) {
    model.insert(model.end(), s.live().begin(), s.live().end());
  }
  const size_t model_points = model.size();
  std::string final_note;
  FailureLedger final_ledger;
  final_ledger.wrong =
      CheckFinalState(port, std::move(model), &final_ledger, &final_note);
  ledger.Merge(final_ledger);
  uint64_t notification_mismatches = 0;
  if (w == Workload::kIngestSharded) {
    notification_mismatches = CheckNotifications(seed, results);
    ledger.wrong += notification_mismatches;
  }

  std::vector<double> rps;
  std::vector<double> pps;
  const double window_s = static_cast<double>(clock.window_ns) / 1e9;
  for (size_t win = 0; win < windows; ++win) {
    uint64_t completed = 0;
    uint64_t points = 0;
    for (const ConnResult& r : results) {
      completed += r.completed[win];
      points += r.points[win];
    }
    rps.push_back(static_cast<double>(completed) / window_s);
    pps.push_back(static_cast<double>(points) / window_s);
  }
  // Latency percentiles are taken per run of kChunk consecutive requests
  // (in completion order) and reported as the median over the runs: a
  // hypervisor stall of a few ms then spoils a few short chunks instead
  // of the tail of every one-second window.
  auto chunked = [&](auto member) {
    std::vector<std::pair<int64_t, double>> all;
    for (const ConnResult& r : results) {
      all.insert(all.end(), (r.*member).begin(), (r.*member).end());
    }
    std::sort(all.begin(), all.end());
    std::vector<double> ordered;
    for (const auto& [t, us] : all) ordered.push_back(us);
    return Chunks(ordered, kChunk);
  };
  const std::vector<std::vector<double>> reads = chunked(&ConnResult::read_us);
  const std::vector<std::vector<double>> writes =
      chunked(&ConnResult::write_us);
  uint64_t notifications = 0;
  for (const ConnResult& r : results) notifications += r.notifications.size();

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    for (const ConnResult& r : results) {
      for (const Span& s : r.spans) {
        out << s.op_id << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
      }
    }
  }

  Json checks;
  checks.Bool("final_state", final_ledger.wrong == 0 &&
                                 final_ledger.failed() == 0)
      .Str("final_state_note", final_note)
      .Int("notification_mismatches", notification_mismatches)
      .Int("notifications", notifications)
      .Str("connection_errors", errors);
  Json out;
  out.Str("workload", WorkloadName(w))
      .Obj("requests_per_s", Metric(Median(rps), "1/s"))
      .Obj("points_per_s", Metric(Median(pps), "1/s"))
      .Pct("read_p50_us", MedianOfChunks(reads, 50), "us")
      .Pct("read_p99_us", MedianOfChunks(reads, 99), "us")
      .Pct("write_p50_us", MedianOfChunks(writes, 50), "us")
      .Pct("write_p99_us", MedianOfChunks(writes, 99), "us")
      .Int("attempted", ledger.attempted)
      .Int("failed", ledger.failed())
      .Int("model_points", model_points)
      .Int("windows", windows)
      .Num("window_s", window_s)
      .Obj("checks", checks);
  std::cout << out.Dump() << std::endl;
  return 0;
}

}  // namespace popbench
