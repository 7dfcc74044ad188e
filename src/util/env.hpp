// Strict parsing of the numeric environment settings (ACCRED_SIM_THREADS,
// ACCRED_MAX_STEPS). strtoul/strtoull accept a leading '-' and wrap it
// modulo 2^64, so "-1" used to mean 256 simulation shards or a watchdog
// budget of 2^64-1 waves; every numeric env setting parses through here.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace accred::util {

/// Parse an unsigned decimal environment value (pass std::getenv's result
/// straight in). Digits only: null, empty text, a sign, whitespace,
/// trailing characters and values above 2^64-1 are malformed and yield
/// nullopt, which callers treat as "use the default".
[[nodiscard]] inline std::optional<std::uint64_t> parse_env_unsigned(
    const char* text) {
  if (text == nullptr) return std::nullopt;
  const std::string_view s(text);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace accred::util
