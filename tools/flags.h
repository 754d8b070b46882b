// Minimal command-line flag parsing for the CLI tools: --name=value or --name value.
//
// GetString/GetBool read free-form values. Numbers only come through the
// validating getters (GetDoubleInRange/GetUintChecked and the list forms): they
// reject text that is not entirely a number, NaN/inf, negatives, and
// out-of-range values with a human-readable error instead of silently
// misbehaving.
#ifndef DISTCACHE_TOOLS_FLAGS_H_
#define DISTCACHE_TOOLS_FLAGS_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.h"

namespace distcache {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  std::string GetString(const std::string& name, const std::string& def) const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  bool GetBool(const std::string& name, bool def) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      return def;
    }
    return it->second == "true" || it->second == "1";
  }

  // Parses --name as a finite double in [lo, hi] (common/parse.h strictness).
  // Returns false and fills *error (mentioning the flag, the offending value and
  // the accepted range) on malformed input or a value outside the range. An
  // absent flag yields `def` (which is trusted, not range-checked).
  bool GetDoubleInRange(const std::string& name, double def, double lo, double hi,
                        double* out, std::string* error) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      *out = def;
      return true;
    }
    double value = 0.0;
    if (!ParseStrictDouble(it->second, &value) || value < lo || value > hi) {
      *error = "--" + name + "=" + it->second + ": want a finite value in [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]";
      return false;
    }
    *out = value;
    return true;
  }

  // Parses --name as a non-negative integer (common/parse.h strictness: a
  // negative — even whitespace-prefixed — would otherwise wrap to a huge
  // uint64). Returns false and fills *error on malformed input.
  bool GetUintChecked(const std::string& name, uint64_t def, uint64_t* out,
                      std::string* error) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      *out = def;
      return true;
    }
    if (!ParseStrictUint(it->second, out)) {
      *error = "--" + name + "=" + it->second + ": want a non-negative integer";
      return false;
    }
    return true;
  }

  // Parses --name as a comma-separated list of positive integers (strict per
  // element, e.g. "32,16,32"). An absent flag leaves *out untouched and returns
  // true; malformed input fills *error and returns false.
  bool GetUintList(const std::string& name, std::vector<uint64_t>* out,
                   std::string* error) const {
    return GetList(name, ParseStrictUint, "positive integers", out, error);
  }

  // As GetUintList, for positive finite doubles (e.g. "6,1.5").
  bool GetDoubleList(const std::string& name, std::vector<double>* out,
                     std::string* error) const {
    return GetList(name, ParseStrictDouble, "positive finite values", out,
                   error);
  }

  bool Has(const std::string& name) const { return values_.contains(name); }

  // The first parsed flag not named in `known`, or "" when all are known.
  std::string FirstUnknown(std::initializer_list<std::string_view> known) const {
    for (const auto& entry : values_) {
      if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
        return entry.first;
      }
    }
    return "";
  }

 private:
  template <typename T, typename Parse>
  bool GetList(const std::string& name, Parse parse, const char* want,
               std::vector<T>* out, std::string* error) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      return true;
    }
    std::vector<T> parsed;
    const std::string& text = it->second;
    size_t start = 0;
    while (start <= text.size()) {
      const size_t comma = text.find(',', start);
      const std::string field =
          text.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      T value{};
      if (!parse(field, &value) || value <= T{}) {
        *error = "--" + name + "=" + text + ": want a comma-separated list of " +
                 want;
        return false;
      }
      parsed.push_back(value);
      if (comma == std::string::npos) {
        break;
      }
      start = comma + 1;
    }
    *out = std::move(parsed);
    return true;
  }

  std::map<std::string, std::string> values_;
};

}  // namespace distcache

#endif  // DISTCACHE_TOOLS_FLAGS_H_
