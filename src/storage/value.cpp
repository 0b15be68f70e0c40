#include "storage/value.hpp"

#include <functional>

#include "common/hash.hpp"

namespace gems::storage {

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (kind_ != other.kind_) {
    if (DataType{kind_, 0}.is_numeric() &&
        DataType{other.kind_, 0}.is_numeric()) {
      return as_numeric() == other.as_numeric();
    }
    return false;
  }
  return data_ == other.data_;
}

int Value::compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  auto cmp3 = [](auto a, auto b) { return a < b ? -1 : (a > b ? 1 : 0); };
  if (kind_ != other.kind_) {
    const bool both_numeric = DataType{kind_, 0}.is_numeric() &&
                              DataType{other.kind_, 0}.is_numeric();
    GEMS_CHECK_MSG(both_numeric, "comparing incomparable value kinds");
    return compare_doubles(as_numeric(), other.as_numeric());
  }
  switch (kind_) {
    case TypeKind::kBool:
      return cmp3(as_bool() ? 1 : 0, other.as_bool() ? 1 : 0);
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return cmp3(as_int64(), other.as_int64());
    case TypeKind::kDouble:
      return compare_doubles(as_double(), other.as_double());
    case TypeKind::kVarchar:
      return as_string().compare(other.as_string()) < 0
                 ? -1
                 : (as_string() == other.as_string() ? 0 : 1);
  }
  GEMS_UNREACHABLE("bad value kind");
}

std::string Value::to_string() const {
  if (is_null()) return "";
  switch (kind_) {
    case TypeKind::kBool:
      return as_bool() ? "true" : "false";
    case TypeKind::kInt64:
      return std::to_string(as_int64());
    case TypeKind::kDouble: {
      std::string s = std::to_string(as_double());
      return s;
    }
    case TypeKind::kVarchar:
      return as_string();
    case TypeKind::kDate:
      return format_date(as_int64());
  }
  GEMS_UNREACHABLE("bad value kind");
}

std::size_t Value::hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ull;
  // Numeric kinds share a seed so that promoted-equal values hash equal.
  const TypeKind seed_kind =
      (kind_ == TypeKind::kDouble || kind_ == TypeKind::kDate)
          ? TypeKind::kInt64
          : kind_;
  std::size_t seed = static_cast<std::size_t>(seed_kind);
  switch (kind_) {
    case TypeKind::kBool:
      hash_combine(seed, as_bool() ? 1 : 0);
      break;
    case TypeKind::kInt64:
    case TypeKind::kDate:
      hash_combine(seed, std::hash<std::int64_t>{}(as_int64()));
      break;
    case TypeKind::kDouble: {
      const double d = as_double();
      // Hash integral doubles like their int64 counterparts so the
      // numeric-promotion equality stays hash-consistent.
      if (d == static_cast<double>(static_cast<std::int64_t>(d))) {
        hash_combine(seed, std::hash<std::int64_t>{}(
                               static_cast<std::int64_t>(d)));
      } else {
        hash_combine(seed, std::hash<double>{}(d));
      }
      break;
    }
    case TypeKind::kVarchar:
      hash_combine(seed, std::hash<std::string>{}(as_string()));
      break;
  }
  return seed;
}

}  // namespace gems::storage
