#include "spans.h"

#include <fstream>
#include <unordered_map>

namespace popbench {

uint16_t SpanRecorder::Layer(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

std::map<uint64_t, int64_t> SpanRecorder::DurationsByOp(
    uint16_t layer) const {
  std::map<uint64_t, int64_t> out;
  for (const Span& s : spans_) {
    if (s.layer == layer) out[s.op_id] += s.duration();
  }
  return out;
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  // (op id, layer) -> total duration of that op's children of the layer.
  std::unordered_map<uint64_t, std::unordered_map<uint16_t, int64_t>> child;
  for (const Span& s : spans_) {
    if (s.parent != Span::kRoot) child[s.op_id][s.parent] += s.duration();
  }
  std::vector<int64_t> out;
  out.reserve(spans_.size());
  for (const Span& s : spans_) {
    int64_t self = s.duration();
    auto op = child.find(s.op_id);
    if (op != child.end()) {
      auto it = op->second.find(s.layer);
      if (it != op->second.end()) self -= it->second;
    }
    out.push_back(self);
  }
  return out;
}

std::vector<int64_t> SpanRecorder::SelfTimes(uint16_t layer) const {
  const std::vector<int64_t> all = SelfTimes();
  std::vector<int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer == layer) out.push_back(all[i]);
  }
  return out;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<int64_t> self = SelfTimes();
  out << "layer\tparent\top_id\tstart_ns\tend_ns\tself_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << names_[s.layer] << '\t'
        << (s.parent == Span::kRoot ? "" : names_[s.parent]) << '\t'
        << s.op_id << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << self[i] << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace popbench
