#ifndef POPBENCH_CLI_H_
#define POPBENCH_CLI_H_

// Shared plumbing of the popbench subcommands: "--key value" arguments
// and a flat JSON object writer for the one-line results run.py reads.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace popbench {

class Args {
 public:
  /// Parses argv[first..] as "--key value" pairs; false on a stray token.
  bool Parse(int argc, char** argv, int first);
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Str(const std::string& key, const std::string& fallback) const;
  double Num(const std::string& key, double fallback) const;
  uint64_t U64(const std::string& key, uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// An insertion-ordered JSON object of scalars and nested objects.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, uint64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Obj(const std::string& key, const Json& value);
  Json& StrList(const std::string& key, const std::vector<std::string>& values);
  /// {"value": v, "unit": u, "label": "p99 of n"} for a percentile.
  Json& Pct(const std::string& key, const Percentile& p,
            const std::string& unit);
  std::string Dump() const;

 private:
  Json& Raw(const std::string& key, std::string raw);
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// A metric entry {"value": v, "unit": u} plus optional extra fields.
Json Metric(double value, const std::string& unit);

std::string JsonEscape(const std::string& s);

// Subcommands (one translation unit each).
int RunPrepare(const Args& args);
int RunDrive(const Args& args);
int RunSweep(const Args& args);
int RunTrace(const Args& args);
int RunHost(const Args& args);

/// ISA, compiler and build type of this binary, as JSON fields.
Json HostFingerprint();

}  // namespace popbench

#endif  // POPBENCH_CLI_H_
