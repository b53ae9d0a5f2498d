#ifndef BQE_COMMON_STRINGS_H_
#define BQE_COMMON_STRINGS_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace bqe {

/// Joins the elements of `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on the character `sep`; does not trim, keeps empty pieces.
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string StrTrim(std::string_view s);

/// ASCII lower-casing.
std::string StrLower(std::string_view s);

/// True if `s` begins with `prefix`.
bool StrStartsWith(std::string_view s, std::string_view prefix);

/// Concatenates the stream-formatted representations of all arguments.
template <typename... Args>
std::string StrCat(Args&&... args) {
  std::ostringstream os;
  ((os << std::forward<Args>(args)), ...);
  return os.str();
}

/// Combines a new 64-bit value into a running hash (boost::hash_combine
/// style, 64-bit constants).
inline void HashCombine(size_t* seed, size_t v) {
  *seed ^= v + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

}  // namespace bqe

#endif  // BQE_COMMON_STRINGS_H_
