// Minimal command-line flag parsing for the CLI tools: --name=value or --name value.
// Refusal() names a word that is neither, an unknown flag or a bad boolean value.
//
// GetString/GetBool read free-form values. Numbers only come through the
// validating getters (GetDoubleInRange/GetUintChecked and the list forms): they
// reject text that is not entirely a number, NaN/inf, negatives, and
// out-of-range values with a human-readable error instead of silently
// misbehaving.
#ifndef DISTCACHE_TOOLS_FLAGS_H_
#define DISTCACHE_TOOLS_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.h"

namespace distcache {

// How a program reads a flag: not at all, as a boolean (a bare --name, or a
// value of true|false|1|0), or with a value.
enum class FlagKind { kUnknown, kBoolean, kValued };

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        stray_.push_back(std::move(arg));
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

  // As GetUintChecked, for a uint32 of at least `min` (a count or a size).
  bool GetUint32(const std::string& name, uint32_t def, uint32_t min,
                 uint32_t* out, std::string* error) const {
    uint64_t value = 0;
    if (!GetUintChecked(name, def, &value, error)) {
      return false;
    }
    if (value < min || value > 0xffffffffULL) {
      *error = "--" + name + "=" + std::to_string(value) + ": want an integer in [" +
               std::to_string(min) + ", 2^32)";
      return false;
    }
    *out = static_cast<uint32_t>(value);
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

  // Why the command line cannot run, given `kind(std::string_view name)`, or
  // "": the first word that is neither --name[=value] nor the value of the flag
  // before it, else the first flag of FlagKind::kUnknown or boolean flag whose
  // value is not true|false|1|0.
  template <typename Kind>
  std::string Refusal(Kind kind) const {
    if (!stray_.empty()) {
      return "error: unexpected argument '" + stray_.front() + "' (want --name[=value])";
    }
    for (const auto& [name, value] : values_) {
      const FlagKind k = kind(std::string_view(name));
      if (k == FlagKind::kUnknown) {
        return "error: unknown flag --" + name;
      }
      if (k == FlagKind::kBoolean && value != "true" && value != "false" &&
          value != "1" && value != "0") {
        return "error: --" + name + " takes no value or true|false|1|0, not '" +
               value + "'";
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
  std::vector<std::string> stray_;  // words that are neither a flag nor its value
};

}  // namespace distcache

#endif  // DISTCACHE_TOOLS_FLAGS_H_
