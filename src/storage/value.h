#ifndef BQE_STORAGE_VALUE_H_
#define BQE_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace bqe {

/// Runtime type of a Value.
enum class ValueType : uint8_t { kNull = 0, kInt, kDouble, kString };

/// Returns a stable name ("null", "int", "double", "string").
const char* ValueTypeName(ValueType t);

/// A dynamically typed SQL value: NULL, 64-bit integer, double, or string.
///
/// Ordering and equality are total: values order first by type tag, then by
/// payload. This gives deterministic sorting of heterogeneous tuples; query
/// predicates in practice always compare same-typed values. Doubles order
/// numerically with -0.0 equal to 0.0, and NaN sorts after every number and
/// equals only NaN; Hash() agrees with this equality.
class Value {
 public:
  /// Constructs NULL.
  Value() : v_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t i) { return Value(Repr(i)); }
  static Value Double(double d) { return Value(Repr(d)); }
  static Value Str(std::string s) { return Value(Repr(std::move(s))); }

  ValueType type() const {
    return static_cast<ValueType>(v_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Pre-condition: type() matches; asserted in debug builds.
  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Three-way comparison: type tag first, then payload.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  size_t Hash() const;

  /// SQL-ish rendering: NULL, 42, 3.5, 'text'.
  std::string ToString() const;

  /// Parses a literal in the ToString() format. Unquoted non-numeric text is
  /// rejected.
  static Result<Value> Parse(const std::string& text);

 private:
  using Repr = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Repr v) : v_(std::move(v)) {}

  Repr v_;
};

/// std::hash adapter for Value-keyed containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace bqe

#endif  // BQE_STORAGE_VALUE_H_
