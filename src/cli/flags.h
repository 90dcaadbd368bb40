#ifndef TOPKRGS_CLI_FLAGS_H_
#define TOPKRGS_CLI_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace topkrgs {

/// Minimal command-line flag parser for the topkrgs tools: accepts
/// "--key value" and "--key=value" pairs, rejects unknown or positional
/// arguments, and tracks which flags were consumed so callers can report
/// typos.
class FlagParser {
 public:
  /// Parses argv-style arguments (excluding the program name).
  static StatusOr<FlagParser> Parse(const std::vector<std::string>& args);

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// String flag with a default.
  std::string GetString(const std::string& key, const std::string& fallback) const;

  /// Required string flag.
  [[nodiscard]] StatusOr<std::string> GetRequired(const std::string& key) const;

  /// Integer flag with a default; InvalidArgument on malformed values.
  [[nodiscard]] StatusOr<int64_t> GetInt(const std::string& key, int64_t fallback) const;

  /// Double flag with a default; InvalidArgument on malformed or
  /// non-finite values (nan, inf).
  [[nodiscard]] StatusOr<double> GetDouble(const std::string& key, double fallback) const;

  /// Returns an error naming any flag not in `known` (typo detection).
  [[nodiscard]] Status CheckKnown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace topkrgs

#endif  // TOPKRGS_CLI_FLAGS_H_
