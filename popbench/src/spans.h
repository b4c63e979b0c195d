#ifndef POPBENCH_SPANS_H_
#define POPBENCH_SPANS_H_

// In-memory spans of the traced run. Every timed call into a layer
// records one span: layer name, the layer it was called for (its
// parent), the op's id, start and end. The same op's span one layer up
// is its parent, so a layer's self time is its span minus the spans of
// the same op whose parent it is. Spans stay in memory and are written
// out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace popbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  static constexpr uint16_t kRoot = 0xffff;

  uint16_t layer = 0;  ///< index into SpanRecorder names
  uint16_t parent = kRoot;
  uint64_t op_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  /// The index of layer `name`, declaring it on first use.
  uint16_t Layer(const std::string& name);

  /// Records `layer`'s span for `op_id`, called on behalf of `parent`
  /// (Span::kRoot for an outermost span).
  void Record(uint16_t layer, uint16_t parent, uint64_t op_id,
              int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{layer, parent, op_id, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(uint16_t layer) const { return names_[layer]; }

  /// Self time of every span: its duration minus the durations of the
  /// same op's spans whose parent is its layer. Indexed like spans().
  std::vector<int64_t> SelfTimes() const;

  /// Self times of `layer`'s spans, in record order.
  std::vector<int64_t> SelfTimes(uint16_t layer) const;

  /// Total duration of `layer`'s spans per op id.
  std::map<uint64_t, int64_t> DurationsByOp(uint16_t layer) const;

  /// Writes "layer<TAB>parent<TAB>op_id<TAB>start_ns<TAB>end_ns<TAB>
  /// self_ns" lines with a header. False when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace popbench

#endif  // POPBENCH_SPANS_H_
