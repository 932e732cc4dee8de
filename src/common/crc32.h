// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the Ethernet/zip
// checksum used by both the wire protocol (src/net/frame.h) and the durable
// WAL (src/storage/wal.h). One implementation so a frame CRC and a log-record
// CRC can never drift.
//
// Algorithm: slicing-by-16. Sixteen 256-entry tables (16 KiB, computed at
// compile time) fold one 16-byte block per step with sixteen independent
// lookups; a bytewise loop over table 0 handles the last 0-15 bytes. Words
// are assembled from bytes in little-endian order, so the result does not
// depend on host byte order or alignment. The output is the standard CRC-32
// (check value 0xCBF43926 for "123456789"), bit-identical to the classic
// one-byte-per-step loop: wire v1 frames and WAL records are unchanged.

#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace aft {

// Streaming interface for payloads held as segment chains / iovec lists:
// feed spans in order, no coalescing.
// `Crc32End(Crc32Feed(Crc32Begin(), d, n))` == `Crc32({d, n})`.
uint32_t Crc32Begin();
uint32_t Crc32Feed(uint32_t state, const void* data, size_t len);
uint32_t Crc32End(uint32_t state);

// One-shot convenience over a contiguous buffer.
uint32_t Crc32(std::string_view data);

}  // namespace aft

#endif  // SRC_COMMON_CRC32_H_
