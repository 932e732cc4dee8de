// Transaction identifiers.
//
// Every transaction is assigned a globally unique UUID at StartTransaction
// and a commit timestamp (local system clock, microseconds) at commit (§3.1).
// The <timestamp, uuid> pair is the transaction's ID. Correctness never
// depends on clock synchronization; timestamps provide relative freshness
// and ties are broken by lexicographic UUID comparison.

#ifndef SRC_CORE_TXN_ID_H_
#define SRC_CORE_TXN_ID_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/common/uuid.h"

namespace aft {

struct TxnId {
  int64_t timestamp = 0;  // Microseconds since epoch; 0 == the NULL version.
  Uuid uuid;

  constexpr TxnId() = default;
  constexpr TxnId(int64_t ts, Uuid id) : timestamp(ts), uuid(id) {}

  // The distinguished ID older than every committed transaction; reads of
  // keys with no visible version observe this.
  static constexpr TxnId Null() { return TxnId(); }
  bool IsNull() const { return timestamp == 0 && uuid.IsNil(); }

  // Total order: timestamp first, UUID lexicographically on ties (§3.1).
  friend auto operator<=>(const TxnId& a, const TxnId& b) = default;

  // "00000000000000001234_<uuid>": the timestamp as 20 zero-padded decimal
  // digits, so the string order equals the ID order for every real
  // (non-negative) timestamp — commit records listed by prefix come back
  // time-ordered.
  std::string Encode() const;
  // The same characters appended to `out`; always kEncodedLength of them.
  static constexpr size_t kTimestampDigits = 20;
  static constexpr size_t kEncodedLength = kTimestampDigits + 1 + Uuid::kStringLength;
  void EncodeTo(std::string& out) const;
  // Parses exactly the form Encode produces; Null() on anything else
  // (wrong length, a non-digit, a timestamp past INT64_MAX, a bad UUID).
  static TxnId Decode(std::string_view text);

  std::string ToString() const { return Encode(); }
};

}  // namespace aft

template <>
struct std::hash<aft::TxnId> {
  size_t operator()(const aft::TxnId& id) const noexcept {
    return std::hash<aft::Uuid>{}(id.uuid) ^ std::hash<int64_t>{}(id.timestamp);
  }
};

#endif  // SRC_CORE_TXN_ID_H_
