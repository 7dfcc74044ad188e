// Dependency-free JSON document model for the observability layer: an
// insertion-ordered value type, a stable writer (shortest round-tripping
// number form, deterministic key order), and a strict recursive-descent
// parser. Small by design — just enough for the bench record schema
// (record.hpp), the trace exporter (trace.hpp), and accred_report.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace accred::obs {

class Json {
public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Json() = default;
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  Json(std::uint64_t v) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : kind_(Kind::kDouble), double_(v) {}
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}
  Json(std::string_view v) : Json(std::string(v)) {}
  Json(const char* v) : Json(std::string(v)) {}

  [[nodiscard]] static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  /// Scalar accessors; throw std::runtime_error on a kind mismatch
  /// (as_double accepts both number kinds).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array interface. push() turns a null value into an array.
  Json& push(Json v);
  [[nodiscard]] const std::vector<Json>& elements() const;
  [[nodiscard]] std::size_t size() const;

  /// Object interface (insertion-ordered; set() replaces an existing key
  /// in place so the schema field order stays stable). set() turns a null
  /// value into an object.
  Json& set(std::string key, Json v);
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// find() that throws with the key name when absent.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items() const;

  /// Serialize. indent = 0 emits compact one-line JSON; indent > 0 pretty
  /// prints with that many spaces per level. Output is deterministic:
  /// insertion order for objects, shortest round-tripping form for doubles.
  void dump(std::ostream& os, int indent = 0) const;
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Strict parser (no comments, no trailing commas). Throws
  /// std::runtime_error with a byte offset on malformed input.
  [[nodiscard]] static Json parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b);

private:
  void dump_impl(std::ostream& os, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Escape `s` into a JSON string literal (including the quotes).
void write_json_string(std::ostream& os, std::string_view s);

/// Shortest decimal form of `v` that parses back to exactly `v`
/// ("1.5", not "1.5000000000000000"); infinities and NaN (invalid JSON)
/// are clamped to null — the cost model never produces them.
void write_json_double(std::ostream& os, double v);

}  // namespace accred::obs
