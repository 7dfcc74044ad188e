// OpenACC reduction operators and their algebra. The paper's algorithms
// rely on every OpenACC operator being associative and commutative (§3);
// identity elements let private copies start neutral and fold the incoming
// host value in at the very end (§3.1.1's initial-value rule).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace accred::acc {

/// All reduction operators of the OpenACC 2.0 spec for C.
enum class ReductionOp : std::uint8_t {
  kSum,     ///< +
  kProd,    ///< *
  kMax,     ///< max
  kMin,     ///< min
  kBitAnd,  ///< &
  kBitOr,   ///< |
  kBitXor,  ///< ^
  kLogAnd,  ///< &&
  kLogOr,   ///< ||
};

[[nodiscard]] constexpr std::string_view to_string(ReductionOp op) {
  switch (op) {
    case ReductionOp::kSum: return "+";
    case ReductionOp::kProd: return "*";
    case ReductionOp::kMax: return "max";
    case ReductionOp::kMin: return "min";
    case ReductionOp::kBitAnd: return "&";
    case ReductionOp::kBitOr: return "|";
    case ReductionOp::kBitXor: return "^";
    case ReductionOp::kLogAnd: return "&&";
    case ReductionOp::kLogOr: return "||";
  }
  return "?";
}

/// Parse the clause spelling ("+", "*", "max", ...). Throws on junk.
[[nodiscard]] ReductionOp parse_reduction_op(std::string_view s);

/// Bitwise operators are only defined for integral operand types (C rules).
template <typename T>
[[nodiscard]] constexpr bool op_valid_for_type(ReductionOp op) {
  if constexpr (std::integral<T>) {
    return true;
  } else {
    switch (op) {
      case ReductionOp::kBitAnd:
      case ReductionOp::kBitOr:
      case ReductionOp::kBitXor:
        return false;
      default:
        return true;
    }
  }
}

/// A reduction operator bound at run time. One instantiation per operand
/// type keeps template bloat down (the simulator's per-element overhead
/// dwarfs the switch); compile-time functors exist below for hot paths.
template <typename T>
struct RuntimeOp {
  ReductionOp op = ReductionOp::kSum;

  [[nodiscard]] constexpr T identity() const {
    switch (op) {
      case ReductionOp::kSum: return T{0};
      case ReductionOp::kProd: return T{1};
      case ReductionOp::kMax: return std::numeric_limits<T>::lowest();
      case ReductionOp::kMin: return std::numeric_limits<T>::max();
      case ReductionOp::kBitAnd:
        if constexpr (std::integral<T>) return static_cast<T>(~T{0});
        break;
      case ReductionOp::kBitOr:
      case ReductionOp::kBitXor:
        if constexpr (std::integral<T>) return T{0};
        break;
      case ReductionOp::kLogAnd: return T{1};
      case ReductionOp::kLogOr: return T{0};
    }
    throw std::invalid_argument("operator invalid for operand type");
  }

  [[nodiscard]] constexpr T apply(T a, T b) const {
    // Signed + and * wrap in two's complement, as CUDA's add.s32 and
    // mul.lo.s32 do: computed in the unsigned type, since signed overflow
    // is undefined behaviour in C++.
    using W = typename std::conditional_t<std::signed_integral<T>,
                                          std::make_unsigned<T>,
                                          std::type_identity<T>>::type;
    switch (op) {
      case ReductionOp::kSum:
        return static_cast<T>(static_cast<W>(a) + static_cast<W>(b));
      case ReductionOp::kProd:
        return static_cast<T>(static_cast<W>(a) * static_cast<W>(b));
      // min/max propagate NaN regardless of operand order: std::min/max
      // return the first operand on unordered comparisons, so a bare
      // std::max(a, b) silently drops a NaN in `b` — which fold order
      // (and therefore strategy choice) would otherwise make observable,
      // breaking the associativity assumption of §3.
      case ReductionOp::kMax:
        if constexpr (std::floating_point<T>) {
          if (b != b) return b;
          if (a != a) return a;
        }
        return std::max(a, b);
      case ReductionOp::kMin:
        if constexpr (std::floating_point<T>) {
          if (b != b) return b;
          if (a != a) return a;
        }
        return std::min(a, b);
      case ReductionOp::kBitAnd:
        if constexpr (std::integral<T>) return a & b;
        break;
      case ReductionOp::kBitOr:
        if constexpr (std::integral<T>) return a | b;
        break;
      case ReductionOp::kBitXor:
        if constexpr (std::integral<T>) return a ^ b;
        break;
      case ReductionOp::kLogAnd: return static_cast<T>((a != T{0}) && (b != T{0}));
      case ReductionOp::kLogOr: return static_cast<T>((a != T{0}) || (b != T{0}));
    }
    throw std::invalid_argument("operator invalid for operand type");
  }
};

// Compile-time functors, for host reference folds and hot benchmark paths.
struct SumOp {
  template <typename T>
  constexpr T operator()(T a, T b) const { return a + b; }
  template <typename T>
  static constexpr T identity() { return T{0}; }
};
struct ProdOp {
  template <typename T>
  constexpr T operator()(T a, T b) const { return a * b; }
  template <typename T>
  static constexpr T identity() { return T{1}; }
};
struct MaxOp {
  template <typename T>
  constexpr T operator()(T a, T b) const {
    if constexpr (std::floating_point<T>) {  // NaN-deterministic, as RuntimeOp
      if (b != b) return b;
      if (a != a) return a;
    }
    return std::max(a, b);
  }
  template <typename T>
  static constexpr T identity() { return std::numeric_limits<T>::lowest(); }
};
struct MinOp {
  template <typename T>
  constexpr T operator()(T a, T b) const {
    if constexpr (std::floating_point<T>) {  // NaN-deterministic, as RuntimeOp
      if (b != b) return b;
      if (a != a) return a;
    }
    return std::min(a, b);
  }
  template <typename T>
  static constexpr T identity() { return std::numeric_limits<T>::max(); }
};

// ---- Payload reductions (beyond the OpenACC scalar operators) ----------
//
// The generic-reduction extension: reductions whose element is not a bare
// scalar but a small trivially-copyable struct, folded with an associative
// + commutative op carrying the same `.identity()` / `.apply(a, b)` shape
// as RuntimeOp so the tree/staging/finalize machinery is reusable as-is.

/// Value + flat iteration index, the element of argmin/argmax reductions
/// (RAJA's ReduceMinLoc/MaxLoc). Ties break toward the smallest index so
/// every fold order returns the same pair.
template <typename T>
struct ValueIndex {
  T value{};
  std::int64_t index = -1;

  friend constexpr bool operator==(const ValueIndex&,
                                   const ValueIndex&) = default;
};

namespace detail {

/// Shared argmin/argmax combine. NaN wins unconditionally (mirroring the
/// NaN-propagating scalar min/max above); among several NaNs the smallest
/// index wins, which keeps the fold associative and commutative even when
/// multiple lanes contribute NaN.
template <typename T, bool kWantMin>
[[nodiscard]] constexpr ValueIndex<T> arg_combine(ValueIndex<T> a,
                                                  ValueIndex<T> b) {
  if constexpr (std::floating_point<T>) {
    const bool a_nan = a.value != a.value;
    const bool b_nan = b.value != b.value;
    if (a_nan || b_nan) {
      if (a_nan && b_nan) return a.index <= b.index ? a : b;
      return a_nan ? a : b;
    }
  }
  if constexpr (kWantMin) {
    if (a.value < b.value) return a;
    if (b.value < a.value) return b;
  } else {
    if (a.value > b.value) return a;
    if (b.value > a.value) return b;
  }
  return a.index <= b.index ? a : b;
}

}  // namespace detail

/// Argmin over (value, index) pairs. The identity's value is +inf for
/// floating operands (so an all-+inf input still yields a real index) and
/// the type's max otherwise; its index is the largest representable one,
/// so any real contribution — including an equal-value tie — beats it.
template <typename T>
struct ArgMinOp {
  [[nodiscard]] static constexpr ValueIndex<T> identity() {
    if constexpr (std::floating_point<T>) {
      return {std::numeric_limits<T>::infinity(),
              std::numeric_limits<std::int64_t>::max()};
    } else {
      return {std::numeric_limits<T>::max(),
              std::numeric_limits<std::int64_t>::max()};
    }
  }
  [[nodiscard]] constexpr ValueIndex<T> apply(ValueIndex<T> a,
                                              ValueIndex<T> b) const {
    return detail::arg_combine<T, true>(a, b);
  }
};

template <typename T>
struct ArgMaxOp {
  [[nodiscard]] static constexpr ValueIndex<T> identity() {
    if constexpr (std::floating_point<T>) {
      return {-std::numeric_limits<T>::infinity(),
              std::numeric_limits<std::int64_t>::max()};
    } else {
      return {std::numeric_limits<T>::lowest(),
              std::numeric_limits<std::int64_t>::max()};
    }
  }
  [[nodiscard]] constexpr ValueIndex<T> apply(ValueIndex<T> a,
                                              ValueIndex<T> b) const {
    return detail::arg_combine<T, false>(a, b);
  }
};

}  // namespace accred::acc
