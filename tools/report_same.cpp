// accred_report same: the determinism contract as a gate. Records are the
// same when their "entries" are equal after dropping every object key
// that starts with "wall" (host wall-clock time, never gated) at any
// depth. "meta" is not compared, because it records run settings such as
// the worker count. Objects compare as key sets, arrays element by
// element, and numbers by value (int 3 equals double 3.0).
//
// Exit 0 when every record equals the first, 1 naming the first entry
// and key path that differ, 2 when a record cannot be loaded.
#include <iostream>
#include <string>
#include <string_view>

#include "report.hpp"

namespace accred::report {

namespace {

using Kind = obs::Json::Kind;

bool is_wall(std::string_view key) { return key.starts_with("wall"); }

std::string join(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

/// A scalar as written, a container by its kind (never a whole dump).
std::string brief(const obs::Json& v) {
  if (v.kind() == Kind::kObject) return "an object";
  if (v.kind() == Kind::kArray) return "an array";
  return v.dump();
}

/// The first difference between `a` and `b` below `path`, ignoring wall*
/// keys, as "PATH: A vs B"; "" when they are equal.
std::string first_difference(const obs::Json& a, const obs::Json& b,
                             const std::string& path) {
  if (a.kind() == Kind::kObject && b.kind() == Kind::kObject) {
    for (const auto& [key, va] : a.items()) {
      if (is_wall(key)) continue;
      const obs::Json* vb = b.find(key);
      if (vb == nullptr) return join(path, key) + ": present vs absent";
      std::string d = first_difference(va, *vb, join(path, key));
      if (!d.empty()) return d;
    }
    for (const auto& [key, vb] : b.items()) {
      if (!is_wall(key) && a.find(key) == nullptr) {
        return join(path, key) + ": absent vs present";
      }
    }
    return "";
  }
  if (a.kind() == Kind::kArray && b.kind() == Kind::kArray) {
    if (a.size() != b.size()) {
      return path + ": " + std::to_string(a.size()) + " vs " +
             std::to_string(b.size()) + " elements";
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      std::string d = first_difference(a.elements()[i], b.elements()[i],
                                       path + "[" + std::to_string(i) + "]");
      if (!d.empty()) return d;
    }
    return "";
  }
  if (a == b) return "";  // scalars, or values of different kinds
  return path + ": " + brief(a) + " vs " + brief(b);
}

/// Why the entries of `cur` differ from those of `base`, or "".
std::string entries_difference(const obs::Json& base, const obs::Json& cur) {
  const auto& a = base.at("entries").elements();
  const auto& b = cur.at("entries").elements();
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const std::string d = first_difference(a[i], b[i], "");
    if (!d.empty()) {
      return "entry \"" + a[i].at("name").as_string() + "\": " + d;
    }
  }
  if (a.size() == b.size()) return "";
  const bool base_longer = a.size() > b.size();
  const obs::Json& extra = base_longer ? a[b.size()] : b[a.size()];
  return "entry \"" + extra.at("name").as_string() + "\": " +
         (base_longer ? "present vs absent" : "absent vs present") + " (" +
         std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
         " entries)";
}

}  // namespace

int same(const Invocation& inv) {
  if (inv.files.size() < 2) throw UsageError();
  const obs::Json base = inv.load(inv.files[0]);
  for (std::size_t i = 1; i < inv.files.size(); ++i) {
    const std::string d = entries_difference(base, inv.load(inv.files[i]));
    if (!d.empty()) {
      std::cout << inv.files[i] << " differs from " << inv.files[0] << ": "
                << d << '\n';
      return 1;
    }
  }
  std::cout << base.at("entries").size() << " entries equal across "
            << inv.files.size() << " records (wall* fields ignored)\n";
  return 0;
}

}  // namespace accred::report
