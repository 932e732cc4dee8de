// 128-bit universally unique identifiers.
//
// AFT identifies every transaction by a <commit timestamp, UUID> pair; the
// UUID breaks timestamp ties with a lexicographic comparison (§3.1). UUIDs
// are generated locally with no coordination.

#ifndef SRC_COMMON_UUID_H_
#define SRC_COMMON_UUID_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace aft {

class Rng;

// A 128-bit identifier. Comparison is lexicographic on the big-endian byte
// representation, i.e. (hi, lo) pair ordering.
class Uuid {
 public:
  constexpr Uuid() : hi_(0), lo_(0) {}
  constexpr Uuid(uint64_t hi, uint64_t lo) : hi_(hi), lo_(lo) {}

  // Generates a version-4 style random UUID from the given generator.
  static Uuid Random(Rng& rng);

  // Parses the canonical form — exactly 36 characters, lowercase hex in
  // 8-4-4-4-12 groups — and returns the nil UUID on anything else.
  static Uuid Parse(std::string_view text) { return TryParse(text).value_or(Uuid()); }
  // The same, telling malformed input (nullopt) from the nil UUID.
  static std::optional<Uuid> TryParse(std::string_view text);

  bool IsNil() const { return hi_ == 0 && lo_ == 0; }

  uint64_t hi() const { return hi_; }
  uint64_t lo() const { return lo_; }

  // Canonical lowercase 8-4-4-4-12 hex representation.
  std::string ToString() const;
  // The same 36 characters appended to `out` — storage-key builders reserve
  // the full key once and append in place instead of concatenating temporaries.
  static constexpr size_t kStringLength = 36;
  void AppendTo(std::string& out) const;

  friend auto operator<=>(const Uuid& a, const Uuid& b) = default;

 private:
  uint64_t hi_;
  uint64_t lo_;
};

}  // namespace aft

template <>
struct std::hash<aft::Uuid> {
  size_t operator()(const aft::Uuid& u) const noexcept {
    // hi/lo are already uniformly random; xor-fold is sufficient.
    return static_cast<size_t>(u.hi() ^ (u.lo() * 0x9e3779b97f4a7c15ULL));
  }
};

#endif  // SRC_COMMON_UUID_H_
