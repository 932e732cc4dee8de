// Unit tests for transaction IDs, record codecs and the storage key layout.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/core/records.h"
#include "src/core/txn_id.h"

namespace aft {
namespace {

TEST(TxnIdTest, NullIsOldest) {
  Rng rng(1);
  EXPECT_TRUE(TxnId::Null().IsNull());
  const TxnId id(1, Uuid::Random(rng));
  EXPECT_LT(TxnId::Null(), id);
}

TEST(TxnIdTest, OrderedByTimestampThenUuid) {
  const TxnId a(100, Uuid(1, 1));
  const TxnId b(100, Uuid(1, 2));
  const TxnId c(200, Uuid(0, 0));
  EXPECT_LT(a, b);  // Same timestamp: UUID breaks the tie.
  EXPECT_LT(b, c);  // Timestamp dominates.
  EXPECT_EQ(a, TxnId(100, Uuid(1, 1)));
}

TEST(TxnIdTest, EncodeRoundTrips) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const TxnId id(static_cast<int64_t>(rng.Below(1ull << 60)), Uuid::Random(rng));
    EXPECT_EQ(TxnId::Decode(id.Encode()), id);
  }
}

TEST(TxnIdTest, EncodingOrderMatchesIdOrderOnTimestamps) {
  // The zero-padded encoding makes lexicographic string order equal
  // timestamp order — the property the bootstrap listing relies on.
  Rng rng(3);
  const Uuid u = Uuid::Random(rng);
  std::vector<int64_t> timestamps{1, 99, 100, 12345, 999999999, 1726000000000000};
  for (size_t i = 0; i + 1 < timestamps.size(); ++i) {
    EXPECT_LT(TxnId(timestamps[i], u).Encode(), TxnId(timestamps[i + 1], u).Encode());
  }
}

TEST(TxnIdTest, DecodeGarbageYieldsNull) {
  EXPECT_TRUE(TxnId::Decode("garbage").IsNull());
  EXPECT_TRUE(TxnId::Decode("").IsNull());
}

TEST(TxnIdTest, CodecRoundTripsSeededIdsAndRejectsNonCanonicalText) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    // Timestamps of every magnitude, UUIDs of every bit pattern.
    const int64_t timestamp = static_cast<int64_t>(rng() >> (1 + rng.Below(63)));
    const TxnId id(timestamp, Uuid(rng(), rng()));
    std::string text;
    id.EncodeTo(text);
    ASSERT_EQ(text.size(), TxnId::kEncodedLength);
    ASSERT_EQ(TxnId::Decode(text), id) << text;
  }
  const TxnId newest(INT64_MAX, Uuid(1, 2));
  EXPECT_EQ(TxnId::Decode(newest.Encode()), newest);
  const TxnId nil_uuid(42, Uuid());
  EXPECT_EQ(TxnId::Decode(nil_uuid.Encode()), nil_uuid);
  EXPECT_EQ(TxnId(1234, Uuid(0x0123456789abcdefULL, 0xfedcba9876543210ULL)).Encode(),
            "00000000000000001234_01234567-89ab-cdef-fedc-ba9876543210");

  const std::string uuid = "01234567-89ab-cdef-fedc-ba9876543210";
  const std::vector<std::string> malformed = {
      "0000000000000001234_" + uuid,    // 19 digits.
      "000000000000000001234_" + uuid,  // 21 digits.
      "00000000000000001234-" + uuid,   // Wrong separator.
      "-0000000000000001234_" + uuid,   // Sign.
      " 0000000000000001234_" + uuid,   // Leading space.
      "0000000000000000123a_" + uuid,   // Not a digit.
      "09223372036854775808_" + uuid,   // INT64_MAX + 1.
      "99999999999999999999_" + uuid,   // Past uint64 too.
      "00000000000000001234_01234567-89ab-cdef-fedc-ba987654321g",
      "00000000000000001234_01234567-89AB-cdef-fedc-ba9876543210",
      "00000000000000001234_" + uuid + "0",
  };
  for (const std::string& text : malformed) {
    EXPECT_TRUE(TxnId::Decode(text).IsNull()) << text;
  }
  EXPECT_TRUE(TxnIdFromCommitStorageKey("c/").IsNull());
  EXPECT_EQ(TxnIdFromCommitStorageKey(CommitStorageKey(newest)), newest);
}

TEST(StorageKeyTest, VersionKeyLayout) {
  const Uuid u(0x1111, 0x2222);
  const std::string key = VersionStorageKey("mykey", u);
  EXPECT_EQ(key.substr(0, 2), "v/");
  EXPECT_NE(key.find("mykey"), std::string::npos);
  EXPECT_NE(key.find(u.ToString()), std::string::npos);
}

TEST(StorageKeyTest, DistinctWritersGetDistinctVersionKeys) {
  Rng rng(5);
  const Uuid a = Uuid::Random(rng);
  const Uuid b = Uuid::Random(rng);
  EXPECT_NE(VersionStorageKey("k", a), VersionStorageKey("k", b));
}

TEST(StorageKeyTest, CommitKeyRoundTripsTxnId) {
  Rng rng(7);
  const TxnId id(1726000000000000, Uuid::Random(rng));
  const std::string storage_key = CommitStorageKey(id);
  EXPECT_EQ(storage_key.substr(0, 2), "c/");
  EXPECT_EQ(TxnIdFromCommitStorageKey(storage_key), id);
}

TEST(CommitRecordTest, SerializeRoundTrips) {
  Rng rng(11);
  CommitRecord record{TxnId(42, Uuid::Random(rng)), {"alpha", "beta", "gamma"}};
  auto decoded = CommitRecord::Deserialize(record.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, record.id);
  EXPECT_EQ(decoded->write_set, record.write_set);
}

TEST(CommitRecordTest, EmptyWriteSetRoundTrips) {
  Rng rng(13);
  CommitRecord record{TxnId(1, Uuid::Random(rng)), {}};
  auto decoded = CommitRecord::Deserialize(record.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->write_set.empty());
}

TEST(CommitRecordTest, CorruptBytesAreRejected) {
  EXPECT_FALSE(CommitRecord::Deserialize("junk").ok());
  Rng rng(17);
  CommitRecord record{TxnId(42, Uuid::Random(rng)), {"a"}};
  std::string bytes = record.Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(CommitRecord::Deserialize(bytes).ok());
}

TEST(VersionedValueTest, SerializeRoundTrips) {
  Rng rng(19);
  VersionedValue value{TxnId(77, Uuid::Random(rng)), {"k", "l"}, std::string(4096, 'x')};
  auto decoded = VersionedValue::Deserialize(value.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->writer, value.writer);
  EXPECT_EQ(decoded->cowritten, value.cowritten);
  EXPECT_EQ(decoded->payload, value.payload);
}

TEST(VersionedValueTest, MetadataOverheadIsSmall) {
  // The paper reports ~70 bytes of metadata on a 4KB payload (§6.1.2).
  Rng rng(23);
  VersionedValue value{TxnId(77, Uuid::Random(rng)),
                       {"key00000001", "key00000002"},
                       std::string(4096, 'x')};
  const size_t overhead = value.Serialize().size() - value.payload.size();
  EXPECT_LT(overhead, 128u);
}

TEST(VersionedValueTest, BinaryPayloadSurvives) {
  Rng rng(29);
  std::string payload;
  for (int i = 0; i < 256; ++i) {
    payload.push_back(static_cast<char>(i));
  }
  VersionedValue value{TxnId(1, Uuid::Random(rng)), {"k"}, payload};
  auto decoded = VersionedValue::Deserialize(value.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->payload, payload);
}

}  // namespace
}  // namespace aft
