// popbench: the native half of the popan benchmark (popbench/run.py is
// the other half and the entry point). Subcommands:
//
//   popbench host                        ISA / compiler / build type
//   popbench prepare --workload W --seed S --out PATH
//                                        write the prepared store
//   popbench drive --workload W --seed S --port P --seconds T
//                  [--warmup W] [--spans PATH]
//                                        closed-loop socket client
//   popbench sweep --seed S --seconds T --work DIR
//                                        in-process paper sweep
//   popbench trace --seed S --work DIR --log PATH [--socket-spans PATH]
//                  --spans PATH          per-layer replay (the ledger)
//
// Each prints its result as one JSON line on stdout.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "cli.h"
#include "util/simd.h"

namespace popbench {

bool Args::Parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    values_[key.substr(2)] = argv[i + 1];
  }
  return true;
}

std::string Args::Str(const std::string& key,
                      const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Args::Num(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

uint64_t Args::U64(const std::string& key, uint64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtoull(it->second.c_str(), nullptr, 10);
}

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

Json& Json::Raw(const std::string& key, std::string raw) {
  fields_.emplace_back(key, std::move(raw));
  return *this;
}

Json& Json::Num(const std::string& key, double value) {
  if (!std::isfinite(value)) return Raw(key, "null");
  std::ostringstream os;
  os.precision(17);
  os << value;
  return Raw(key, os.str());
}

Json& Json::Int(const std::string& key, uint64_t value) {
  return Raw(key, std::to_string(value));
}

Json& Json::Str(const std::string& key, const std::string& value) {
  return Raw(key, JsonEscape(value));
}

Json& Json::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

Json& Json::Obj(const std::string& key, const Json& value) {
  return Raw(key, value.Dump());
}

Json& Json::StrList(const std::string& key,
                    const std::vector<std::string>& values) {
  std::string raw = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) raw += ", ";
    raw += JsonEscape(values[i]);
  }
  return Raw(key, raw + "]");
}

Json& Json::Pct(const std::string& key, const Percentile& p,
                const std::string& unit) {
  return Obj(key, Metric(p.value, unit).Str("label", PercentileLabel(p)));
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonEscape(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

Json Metric(double value, const std::string& unit) {
  Json j;
  j.Num("value", value).Str("unit", unit);
  return j;
}

Json HostFingerprint() {
  Json j;
  j.Str("isa", popan::simd::IsaName())
      .Str("compiler", POPBENCH_COMPILER)
      .Str("build_type", POPBENCH_BUILD_TYPE);
  return j;
}

int RunHost(const Args&) {
  std::cout << HostFingerprint().Dump() << std::endl;
  return 0;
}

}  // namespace popbench

int main(int argc, char** argv) {
  using namespace popbench;
  if (argc < 2) {
    std::cerr << "usage: popbench host|prepare|drive|sweep|trace [--key "
                 "value ...]\n";
    return 2;
  }
  Args args;
  if (!args.Parse(argc, argv, 2)) {
    std::cerr << "arguments must be --key value pairs\n";
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "host") return RunHost(args);
  if (cmd == "prepare") return RunPrepare(args);
  if (cmd == "drive") return RunDrive(args);
  if (cmd == "sweep") return RunSweep(args);
  if (cmd == "trace") return RunTrace(args);
  std::cerr << "unknown subcommand: " << cmd << "\n";
  return 2;
}
