#include "src/common/uuid.h"

#include "src/common/rng.h"

namespace aft {

Uuid Uuid::Random(Rng& rng) {
  uint64_t hi = rng();
  uint64_t lo = rng();
  // Stamp RFC 4122 version (4) and variant (10) bits so the string form is a
  // legal v4 UUID; the ordering semantics do not depend on this.
  hi = (hi & 0xffffffffffff0fffULL) | 0x0000000000004000ULL;
  lo = (lo & 0x3fffffffffffffffULL) | 0x8000000000000000ULL;
  return Uuid(hi, lo);
}

std::string Uuid::ToString() const {
  std::string out;
  out.reserve(kStringLength);
  AppendTo(out);
  return out;
}

namespace {

// Dash positions of the 8-4-4-4-12 form.
constexpr bool IsDash(size_t i) { return i == 8 || i == 13 || i == 18 || i == 23; }

constexpr char kHexDigits[] = "0123456789abcdef";

}  // namespace

void Uuid::AppendTo(std::string& out) const {
  char buf[kStringLength];
  int shift = 124;  // The 32 nibbles of hi:lo, most significant first.
  for (size_t i = 0; i < kStringLength; ++i) {
    if (IsDash(i)) {
      buf[i] = '-';
      continue;
    }
    const uint64_t word = shift >= 64 ? hi_ : lo_;
    buf[i] = kHexDigits[(word >> (shift % 64)) & 0xf];
    shift -= 4;
  }
  out.append(buf, kStringLength);
}

std::optional<Uuid> Uuid::TryParse(std::string_view text) {
  if (text.size() != kStringLength) {
    return std::nullopt;
  }
  uint64_t words[2] = {0, 0};
  size_t nibble = 0;
  for (size_t i = 0; i < kStringLength; ++i) {
    const char c = text[i];
    if (IsDash(i)) {
      if (c != '-') {
        return std::nullopt;
      }
      continue;
    }
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    uint64_t& word = words[nibble / 16];
    word = (word << 4) | digit;
    ++nibble;
  }
  return Uuid(words[0], words[1]);
}

}  // namespace aft
