#include "cli/flags.h"

#include <algorithm>
#include <cstdlib>

#include "util/io.h"

namespace topkrgs {

StatusOr<FlagParser> FlagParser::Parse(const std::vector<std::string>& args) {
  FlagParser parser;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      return Status::InvalidArgument("unexpected argument: '" + arg +
                                     "' (flags are --key value)");
    }
    const size_t eq = arg.find('=');
    std::string key;
    std::string value;
    if (eq != std::string::npos) {
      key = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    } else {
      key = arg.substr(2);
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("flag --" + key + " needs a value");
      }
      value = args[++i];
    }
    if (parser.values_.count(key) > 0) {
      return Status::InvalidArgument("flag --" + key + " given twice");
    }
    parser.values_[key] = value;
  }
  return parser;
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

StatusOr<std::string> FlagParser::GetRequired(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::InvalidArgument("missing required flag --" + key);
  }
  return it->second;
}

StatusOr<int64_t> FlagParser::GetInt(const std::string& key,
                                     int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end != it->second.c_str() + it->second.size() || it->second.empty()) {
    return Status::InvalidArgument("--" + key + " expects an integer, got '" +
                                   it->second + "'");
  }
  return static_cast<int64_t>(v);
}

StatusOr<double> FlagParser::GetDouble(const std::string& key,
                                       double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  auto v = ParseFiniteDouble(it->second);
  if (!v.ok()) {
    return Status::InvalidArgument("--" + key +
                                   " expects a finite number, got '" +
                                   it->second + "'");
  }
  return v.value();
}

Status FlagParser::CheckKnown(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  return Status::OK();
}

}  // namespace topkrgs
