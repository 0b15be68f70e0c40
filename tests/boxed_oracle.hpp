// Reference for typed result appends: a table must be byte-identical —
// data arrays and validity words — to the table obtained by boxing each
// of its cells with value_at and appending the row with
// append_row_unchecked on the same pool. That generic path re-interns
// every string and canonicalizes every NULL, so a column-to-column copy
// that carried a stale id or a non-zero NULL payload would differ.
// expect_same_result is the cross-database form: one statement's result
// from two engines must match cell for cell and bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "storage/table.hpp"

namespace gems::testing {

inline void expect_matches_boxed(const storage::Table& table,
                                 const std::string& what) {
  storage::Table boxed(table.name(), table.schema(), table.pool());
  for (storage::RowIndex r = 0; r < table.num_rows(); ++r) {
    boxed.append_row_unchecked(table.row(r));
  }
  ASSERT_EQ(boxed.num_rows(), table.num_rows()) << what;
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    const auto col = static_cast<storage::ColumnIndex>(c);
    const storage::Column& got = table.column(col);
    const storage::Column& want = boxed.column(col);
    const std::string where =
        what + ", column " + table.schema().column(col).name;
    EXPECT_TRUE(std::ranges::equal(got.validity().words(),
                                   want.validity().words()))
        << where;
    switch (got.type().kind) {
      case storage::TypeKind::kBool:
      case storage::TypeKind::kInt64:
      case storage::TypeKind::kDate:
        EXPECT_TRUE(std::ranges::equal(got.int_span(), want.int_span()))
            << where;
        break;
      case storage::TypeKind::kDouble:
        // Bit patterns, so -0.0 and NaN payloads count.
        EXPECT_TRUE(std::ranges::equal(
            got.double_span(), want.double_span(), [](double a, double b) {
              return std::bit_cast<std::uint64_t>(a) ==
                     std::bit_cast<std::uint64_t>(b);
            }))
            << where;
        break;
      case storage::TypeKind::kVarchar:
        EXPECT_TRUE(std::ranges::equal(got.string_span(), want.string_span()))
            << where;
        break;
    }
  }
}

/// Two results of one statement computed by different databases (each
/// with its own string pool, so string ids may differ) are the same when
/// their schemas match, their validity words and numeric payload arrays
/// match bit for bit (-0.0 and NaN payloads count), and their varchar
/// cells hold the same strings.
inline void expect_same_result(const storage::Table& a,
                               const storage::Table& b,
                               const std::string& what) {
  ASSERT_EQ(a.name(), b.name()) << what;
  ASSERT_EQ(a.schema().to_string(), b.schema().to_string()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (std::size_t c = 0; c < a.num_columns(); ++c) {
    const auto col = static_cast<storage::ColumnIndex>(c);
    const storage::Column& ca = a.column(col);
    const storage::Column& cb = b.column(col);
    const std::string where = what + ", column " + a.schema().column(col).name;
    EXPECT_TRUE(std::ranges::equal(ca.validity().words(),
                                   cb.validity().words()))
        << where;
    switch (ca.type().kind) {
      case storage::TypeKind::kBool:
      case storage::TypeKind::kInt64:
      case storage::TypeKind::kDate:
        EXPECT_TRUE(std::ranges::equal(ca.int_span(), cb.int_span())) << where;
        break;
      case storage::TypeKind::kDouble:
        EXPECT_TRUE(std::ranges::equal(
            ca.double_span(), cb.double_span(), [](double x, double y) {
              return std::bit_cast<std::uint64_t>(x) ==
                     std::bit_cast<std::uint64_t>(y);
            }))
            << where;
        break;
      case storage::TypeKind::kVarchar:
        for (storage::RowIndex r = 0; r < a.num_rows(); ++r) {
          if (ca.is_null(r)) continue;
          ASSERT_EQ(a.pool().view(ca.string_at(r)),
                    b.pool().view(cb.string_at(r)))
              << where << ", row " << r;
        }
        break;
    }
  }
}

}  // namespace gems::testing
