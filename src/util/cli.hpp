// Tiny command-line flag parser for the bench, example and tool
// executables. Supports `--name value`, `--name=value`, and boolean
// `--name`.
//
// Every flag is declared up front, as a boolean (`bool_flags`) or as
// taking a value (`value_flags`). Any other `--name` on the command line
// is a usage error naming it, so a misspelt flag cannot run silently at
// its default; reading a name that was never declared is a logic error.
// Declared booleans never consume the next argument (`bench --profile
// out.json` used to store "out.json" as the value of --profile); read them
// with get_bool(), which also accepts explicit `--flag=0` / `--flag=true`
// forms.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace accred::util {

class Cli {
public:
  Cli(int argc, char** argv, const std::vector<std::string_view>& bool_flags,
      const std::vector<std::string_view>& value_flags) {
    for (std::string_view f : bool_flags) takes_value_.emplace(f, false);
    for (std::string_view f : value_flags) takes_value_.emplace(f, true);
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        positional_.emplace_back(arg);
        continue;
      }
      arg.remove_prefix(2);
      const std::size_t eq = arg.find('=');
      std::string name(arg.substr(0, eq));
      const auto decl = takes_value_.find(name);
      if (decl == takes_value_.end()) {
        throw std::invalid_argument("unknown flag --" + name);
      }
      if (eq != std::string_view::npos) {
        flags_[std::move(name)] = std::string(arg.substr(eq + 1));
      } else if (decl->second && i + 1 < argc &&
                 !std::string_view(argv[i + 1]).starts_with("--")) {
        flags_[std::move(name)] = argv[++i];
      } else {
        flags_[std::move(name)] = "";  // boolean flag
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return value(name) != nullptr;
  }

  [[nodiscard]] std::string get(const std::string& name,
                                std::string fallback) const {
    const std::string* v = value(name);
    return v == nullptr ? std::move(fallback) : *v;
  }

  /// Boolean flag value: absent -> fallback, bare `--name` (empty value)
  /// -> true, `--name=0/false/no/off` -> false, `--name=1/true/yes/on`
  /// -> true; anything else is a usage error.
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool fallback = false) const {
    const std::string* p = value(name);
    if (p == nullptr) return fallback;
    const std::string& v = *p;
    if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
      return true;
    }
    if (v == "0" || v == "false" || v == "no" || v == "off") return false;
    throw std::invalid_argument("--" + name + ": expected a boolean, got \"" +
                                v + "\"");
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const {
    const std::string* v = value(name);
    return v == nullptr ? fallback : parse_int(name, *v);
  }

  /// Comma-separated list of counts (`--sizes 64,128`): every element
  /// gets get_int()'s checks and must be at least 1, so `20x`, `abc`, an
  /// empty element or `-4` is a usage error naming the flag, never a
  /// silently truncated or wrapped count.
  [[nodiscard]] std::vector<std::int64_t> get_counts(
      const std::string& name, const std::string& fallback) const {
    const std::string text = get(name, fallback);
    std::vector<std::int64_t> counts;
    for (std::size_t begin = 0;;) {
      const std::size_t comma = text.find(',', begin);
      const std::string item = text.substr(begin, comma - begin);
      const std::int64_t v = parse_int(name, item);
      if (v < 1) {
        throw std::invalid_argument("--" + name +
                                    ": expected counts of at least 1, got \"" +
                                    item + "\"");
      }
      counts.push_back(v);
      if (comma == std::string::npos) return counts;
      begin = comma + 1;
    }
  }

  /// Non-negative integer flag that fits in 32 bits (counts such as
  /// --sim-threads). A negative or oversized value is a usage error: a
  /// plain cast would wrap it (-1 became 4294967295, then 256 shards).
  [[nodiscard]] std::uint32_t get_uint32(const std::string& name,
                                         std::uint32_t fallback) const {
    const std::int64_t v = get_int(name, fallback);
    if (v < 0 || v > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "--" + name + ": expected a non-negative 32-bit integer, got \"" +
          get(name, "") + "\"");
    }
    return static_cast<std::uint32_t>(v);
  }

  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const {
    const std::string* text = value(name);
    if (text == nullptr) return fallback;
    std::size_t pos = 0;
    double v = 0;
    try {
      v = std::stod(*text, &pos);
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + name + ": expected a number, got \"" +
                                  *text + "\"");
    }
    if (pos != text->size()) {
      throw std::invalid_argument("--" + name +
                                  ": trailing characters after number: \"" +
                                  *text + "\"");
    }
    return v;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

private:
  /// The value given for `name` ("" for a bare flag), or null when absent.
  const std::string* value(const std::string& name) const {
    if (!takes_value_.contains(name)) {
      throw std::logic_error("flag --" + name + " is read but not declared");
    }
    const auto it = flags_.find(name);
    return it == flags_.end() ? nullptr : &it->second;
  }

  static std::int64_t parse_int(const std::string& name,
                                const std::string& text) {
    std::size_t pos = 0;
    std::int64_t v = 0;
    try {
      v = std::stoll(text, &pos);
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + name + ": expected an integer, got \"" +
                                  text + "\"");
    }
    if (pos != text.size()) {
      throw std::invalid_argument("--" + name +
                                  ": trailing characters after integer: \"" +
                                  text + "\"");
    }
    return v;
  }

  /// Every declared flag, and whether it takes a value.
  std::map<std::string, bool, std::less<>> takes_value_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace accred::util
