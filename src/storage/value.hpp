// Boxed runtime value. Used at the system's edges — query constants,
// result extraction, printing. The hot paths (scans, joins, path matching)
// operate directly on typed column storage and never box.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <variant>

#include "common/check.hpp"
#include "storage/type.hpp"

namespace gems::storage {

/// ORDER BY's total order on doubles: -0.0 == +0.0, every NaN after every
/// number (+inf included), NaN == NaN. IEEE `<` alone is no strict weak
/// order once a NaN is present (NaN would be "equal" to every number),
/// and a sort over such a comparator is undefined behaviour.
inline int compare_doubles(double a, double b) noexcept {
  if (a < b) return -1;
  if (b < a) return 1;
  return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
}

class Value {
 public:
  /// SQL NULL.
  Value() = default;

  static Value null() { return Value(); }
  static Value boolean(bool v) { return Value(TypeKind::kBool, v); }
  static Value int64(std::int64_t v) { return Value(TypeKind::kInt64, v); }
  static Value float64(double v) { return Value(TypeKind::kDouble, v); }
  static Value varchar(std::string v) {
    return Value(TypeKind::kVarchar, std::move(v));
  }
  /// `days` is days-since-epoch (see type.hpp).
  static Value date(std::int64_t days) { return Value(TypeKind::kDate, days); }

  bool is_null() const noexcept {
    return std::holds_alternative<std::monostate>(data_);
  }

  /// Kind of a non-null value; calling on NULL is a programming error.
  TypeKind kind() const noexcept {
    GEMS_DCHECK(!is_null());
    return kind_;
  }

  bool as_bool() const {
    GEMS_DCHECK(kind_ == TypeKind::kBool);
    return std::get<bool>(data_);
  }
  std::int64_t as_int64() const {
    GEMS_DCHECK(kind_ == TypeKind::kInt64 || kind_ == TypeKind::kDate);
    return std::get<std::int64_t>(data_);
  }
  double as_double() const {
    GEMS_DCHECK(kind_ == TypeKind::kDouble);
    return std::get<double>(data_);
  }
  const std::string& as_string() const {
    GEMS_DCHECK(kind_ == TypeKind::kVarchar);
    return std::get<std::string>(data_);
  }

  /// Numeric value with Int64 -> Double promotion.
  double as_numeric() const {
    if (kind_ == TypeKind::kDouble) return as_double();
    return static_cast<double>(as_int64());
  }

  /// Structural equality (NULL == NULL is true, matching GROUP BY /
  /// DISTINCT grouping semantics; comparisons in WHERE never see NULLs
  /// because predicates reject them first).
  bool operator==(const Value& other) const;

  /// Total order used by ORDER BY: NULL sorts first; numerics compare by
  /// promoted value under compare_doubles; strings lexicographically.
  /// Returns <0, 0, >0.
  /// Comparing incomparable kinds is a programming error (the static type
  /// checker rejects such queries earlier).
  int compare(const Value& other) const;

  /// Render for CSV output / the shell ("" for NULL).
  std::string to_string() const;

  /// Hash consistent with operator==.
  std::size_t hash() const;

 private:
  template <typename T>
  Value(TypeKind kind, T v) : kind_(kind), data_(std::move(v)) {}

  TypeKind kind_ = TypeKind::kInt64;
  std::variant<std::monostate, bool, std::int64_t, double, std::string> data_;
};

struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.hash(); }
};

}  // namespace gems::storage
