#include "storage/value.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>

#include "common/strings.h"

namespace bqe {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

int Value::Compare(const Value& other) const {
  if (v_.index() != other.v_.index()) {
    return v_.index() < other.v_.index() ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt: {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kDouble: {
      double a = AsDouble(), b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      // Equal numbers (-0.0 equals 0.0), or a NaN: NaN sorts after every
      // number and equals only NaN, so the order stays total.
      bool a_nan = std::isnan(a), b_nan = std::isnan(b);
      return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
    }
    case ValueType::kString:
      return AsString().compare(other.AsString());
  }
  return 0;
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(v_.index()) * 0x9e3779b97f4a7c15ULL;
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      HashCombine(&seed, std::hash<int64_t>{}(AsInt()));
      break;
    case ValueType::kDouble: {
      // Hash as Compare equates: every NaN alike, and -0.0 like 0.0.
      double d = AsDouble();
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      if (d == 0.0) d = 0.0;
      HashCombine(&seed, std::hash<double>{}(d));
      break;
    }
    case ValueType::kString:
      HashCombine(&seed, std::hash<std::string>{}(AsString()));
      break;
  }
  return seed;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

Result<Value> Value::Parse(const std::string& text) {
  std::string t = StrTrim(text);
  if (t.empty()) return Status::ParseError("empty literal");
  if (t == "NULL" || t == "null") return Value::Null();
  if (t.size() >= 2 && t.front() == '\'' && t.back() == '\'') {
    return Value::Str(t.substr(1, t.size() - 2));
  }
  // Integer?
  {
    int64_t i = 0;
    auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), i);
    if (ec == std::errc() && p == t.data() + t.size()) return Value::Int(i);
  }
  // Double?
  {
    double d = 0;
    auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), d);
    if (ec == std::errc() && p == t.data() + t.size()) return Value::Double(d);
  }
  return Status::ParseError("cannot parse literal: " + t);
}

}  // namespace bqe
