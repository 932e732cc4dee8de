#include "src/core/txn_id.h"

#include <limits>

namespace aft {

std::string TxnId::Encode() const {
  std::string out;
  out.reserve(kEncodedLength);
  EncodeTo(out);
  return out;
}

void TxnId::EncodeTo(std::string& out) const {
  char buf[kTimestampDigits + 1];
  // Timestamps are non-negative; a negative one would not fit the form.
  uint64_t rest = timestamp < 0 ? 0 : static_cast<uint64_t>(timestamp);
  for (size_t i = kTimestampDigits; i > 0; --i) {
    buf[i - 1] = static_cast<char>('0' + rest % 10);
    rest /= 10;
  }
  buf[kTimestampDigits] = '_';
  out.append(buf, sizeof(buf));
  uuid.AppendTo(out);
}

TxnId TxnId::Decode(std::string_view text) {
  if (text.size() != kEncodedLength || text[kTimestampDigits] != '_') {
    return TxnId();
  }
  uint64_t timestamp = 0;
  for (size_t i = 0; i < kTimestampDigits; ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') {
      return TxnId();
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    constexpr uint64_t kMax = std::numeric_limits<int64_t>::max();
    if (timestamp > (kMax - digit) / 10) {
      return TxnId();
    }
    timestamp = timestamp * 10 + digit;
  }
  text.remove_prefix(kTimestampDigits + 1);
  const std::optional<Uuid> uuid = Uuid::TryParse(text);
  if (!uuid.has_value()) {
    return TxnId();
  }
  return TxnId(static_cast<int64_t>(timestamp), *uuid);
}

}  // namespace aft
