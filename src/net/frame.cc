#include "src/net/frame.h"

#include <array>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/serde.h"

namespace aft {
namespace net {

namespace {

struct ParsedHeader {
  uint8_t version = 0;
  MessageType type = MessageType::kPing;
  uint8_t flags = 0;
  uint32_t payload_len = 0;
  uint32_t crc = 0;
};

// Header-only validation; payload length/CRC are checked against the actual
// payload by the caller once the bytes are in hand.
Result<ParsedHeader> ParseHeader(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::InvalidArgument("truncated frame header (" + std::to_string(bytes.size()) +
                                   " of " + std::to_string(kFrameHeaderSize) + " bytes)");
  }
  uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), 4);
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  ParsedHeader header;
  header.version = static_cast<uint8_t>(bytes[4]);
  if (header.version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " + std::to_string(header.version) +
                                   " (this peer speaks " + std::to_string(kWireVersion) + ")");
  }
  header.type = static_cast<MessageType>(bytes[5]);
  if (!IsKnownMessageType(header.type)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(static_cast<int>(header.type)));
  }
  // Unknown flag bits are ignored on read (versioning rules); known ones are
  // honored below when the payload is in hand.
  header.flags = static_cast<uint8_t>(bytes[6]);
  std::memcpy(&header.payload_len, bytes.data() + 8, 4);
  if (header.payload_len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload of " + std::to_string(header.payload_len) +
                                   " bytes exceeds the " + std::to_string(kMaxFramePayload) +
                                   "-byte limit");
  }
  std::memcpy(&header.crc, bytes.data() + 12, 4);
  return header;
}

// Checks `payload` (exactly the header's length, still in the caller's
// buffer) against the header CRC, then copies it into `*out` minus the
// trace-id prefix: the one copy a decoded frame costs.
Status FillFrame(const ParsedHeader& header, std::string_view payload, Frame* out) {
  if (Crc32(payload) != header.crc) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  out->type = header.type;
  out->trace_id = 0;
  if ((header.flags & kFrameFlagTraceContext) != 0) {
    if (payload.size() < sizeof(uint64_t)) {
      return Status::InvalidArgument("trace-flagged frame shorter than its trace id");
    }
    std::memcpy(&out->trace_id, payload.data(), sizeof(uint64_t));
    payload.remove_prefix(sizeof(uint64_t));
  }
  out->payload.assign(payload.data(), payload.size());
  return Status::Ok();
}

}  // namespace

bool IsKnownMessageType(MessageType type) {
  const uint8_t base = static_cast<uint8_t>(RequestOf(type));
  return base >= static_cast<uint8_t>(MessageType::kStartTxn) &&
         base <= static_cast<uint8_t>(MessageType::kGetMetrics);
}

std::string_view MessageTypeName(MessageType type) {
  switch (RequestOf(type)) {
    case MessageType::kStartTxn:
      return "StartTxn";
    case MessageType::kAdoptTxn:
      return "AdoptTxn";
    case MessageType::kGet:
      return "Get";
    case MessageType::kMultiGet:
      return "MultiGet";
    case MessageType::kPut:
      return "Put";
    case MessageType::kPutBatch:
      return "PutBatch";
    case MessageType::kCommit:
      return "Commit";
    case MessageType::kAbort:
      return "Abort";
    case MessageType::kApplyCommits:
      return "ApplyCommits";
    case MessageType::kPing:
      return "Ping";
    case MessageType::kGetMetrics:
      return "GetMetrics";
    default:
      return "Unknown";
  }
}

std::string EncodeFrame(MessageType type, std::string_view payload, uint64_t trace_id) {
  std::string traced_payload;
  if (trace_id != 0) {
    traced_payload.reserve(sizeof(uint64_t) + payload.size());
    traced_payload.append(reinterpret_cast<const char*>(&trace_id), sizeof(uint64_t));
    traced_payload.append(payload);
    payload = traced_payload;
  }
  BinaryWriter writer;
  writer.PutU32(kFrameMagic);
  writer.PutU8(kWireVersion);
  writer.PutU8(static_cast<uint8_t>(type));
  writer.PutU8(trace_id != 0 ? kFrameFlagTraceContext : 0);  // flags
  writer.PutU8(0);                                           // reserved
  writer.PutU32(static_cast<uint32_t>(payload.size()));
  writer.PutU32(Crc32(payload));
  std::string bytes = std::move(writer).TakeData();
  bytes.append(payload);
  return bytes;
}

Result<Frame> DecodeFrame(std::string_view bytes) {
  AFT_ASSIGN_OR_RETURN(ParsedHeader header, ParseHeader(bytes));
  const std::string_view payload = bytes.substr(kFrameHeaderSize);
  if (payload.size() < header.payload_len) {
    return Status::InvalidArgument("truncated frame payload (" + std::to_string(payload.size()) +
                                   " of " + std::to_string(header.payload_len) + " bytes)");
  }
  Frame frame;
  AFT_RETURN_IF_ERROR(FillFrame(header, payload.substr(0, header.payload_len), &frame));
  return frame;
}

Result<size_t> DecodeFrameFromBuffer(std::string_view buffer, Frame* out) {
  if (buffer.size() < kFrameHeaderSize) {
    return static_cast<size_t>(0);
  }
  AFT_ASSIGN_OR_RETURN(ParsedHeader header, ParseHeader(buffer));
  const size_t total = kFrameHeaderSize + header.payload_len;
  if (buffer.size() < total) {
    return static_cast<size_t>(0);
  }
  AFT_RETURN_IF_ERROR(
      FillFrame(header, buffer.substr(kFrameHeaderSize, header.payload_len), out));
  return total;
}

Result<FrameBytes> SealFrame(MessageType type, SegmentBuffer payload, uint64_t trace_id) {
  const size_t trace_len = trace_id != 0 ? sizeof(uint64_t) : 0;
  const size_t wire_payload_len = trace_len + payload.size();
  if (wire_payload_len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload of " + std::to_string(wire_payload_len) +
                                   " bytes exceeds the " + std::to_string(kMaxFramePayload) +
                                   "-byte limit");
  }
  // Length and CRC cover the trace prefix + payload, exactly as EncodeFrame.
  uint32_t crc_state = Crc32Begin();
  if (trace_len != 0) {
    crc_state = Crc32Feed(crc_state, &trace_id, trace_len);
  }
  payload.ForEachSpan([&crc_state](const char* data, size_t len) {
    crc_state = Crc32Feed(crc_state, data, len);
  });
  const uint32_t crc = Crc32End(crc_state);

  FrameBytes frame;
  frame.type = type;
  const uint32_t magic = kFrameMagic;
  std::memcpy(frame.head, &magic, 4);
  frame.head[4] = static_cast<char>(kWireVersion);
  frame.head[5] = static_cast<char>(type);
  frame.head[6] = static_cast<char>(trace_len != 0 ? kFrameFlagTraceContext : 0);
  frame.head[7] = 0;  // reserved
  const uint32_t len32 = static_cast<uint32_t>(wire_payload_len);
  std::memcpy(frame.head + 8, &len32, 4);
  std::memcpy(frame.head + 12, &crc, 4);
  frame.head_len = kFrameHeaderSize;
  if (trace_len != 0) {
    std::memcpy(frame.head + kFrameHeaderSize, &trace_id, trace_len);
    frame.head_len += trace_len;
  }
  frame.payload = std::move(payload);
  return frame;
}

size_t FillFrameIovecs(const FrameBytes& frame, size_t skip, struct iovec* iov, size_t max_iov) {
  size_t count = 0;
  if (skip < frame.head_len && count < max_iov) {
    iov[count].iov_base = const_cast<char*>(frame.head) + skip;
    iov[count].iov_len = frame.head_len - skip;
    ++count;
    skip = 0;
  } else {
    skip -= frame.head_len;
  }
  const size_t spans = frame.payload.SpanCount();
  for (size_t i = 0; i < spans && count < max_iov; ++i) {
    const auto [data, len] = frame.payload.Span(i);
    if (skip >= len) {
      skip -= len;
      continue;
    }
    iov[count].iov_base = const_cast<char*>(data) + skip;
    iov[count].iov_len = len - skip;
    ++count;
    skip = 0;
  }
  return count;
}

Status WriteFrame(Socket& socket, MessageType type, std::string_view payload,
                  uint64_t trace_id) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload of " + std::to_string(payload.size()) +
                                   " bytes exceeds the " + std::to_string(kMaxFramePayload) +
                                   "-byte limit");
  }
  return socket.SendAll(EncodeFrame(type, payload, trace_id));
}

Status WriteFrameBytes(Socket& socket, const FrameBytes& frame) {
  size_t sent = 0;
  const size_t total = frame.size();
  while (sent < total) {
    struct iovec iov[64];
    const size_t count = FillFrameIovecs(frame, sent, iov, 64);
    AFT_RETURN_IF_ERROR(socket.SendAllV(iov, count));
    for (size_t i = 0; i < count; ++i) {
      sent += iov[i].iov_len;
    }
  }
  return Status::Ok();
}

Status FrameReader::Next(Socket& socket, Frame* out) {
  if (buffer_.empty()) {
    buffer_.resize(kInitialSize);
  }
  for (;;) {
    AFT_ASSIGN_OR_RETURN(
        const size_t consumed,
        DecodeFrameFromBuffer(std::string_view(buffer_).substr(begin_, end_ - begin_), out));
    if (consumed > 0) {
      begin_ += consumed;
      return Status::Ok();
    }
    // Need more bytes: slide the partial frame to the front, grow the buffer
    // only when one frame outsizes it, then block for the peer.
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (end_ == buffer_.size()) {
      buffer_.resize(buffer_.size() * 2);
    } else if (end_ == 0 && buffer_.size() > kInitialSize) {
      buffer_.resize(kInitialSize);  // The big frame is served; give its memory back.
      buffer_.shrink_to_fit();
    }
    AFT_ASSIGN_OR_RETURN(const size_t got,
                         socket.RecvSome(buffer_.data() + end_, buffer_.size() - end_));
    end_ += got;
  }
}

void FrameReader::Reset() {
  buffer_.clear();
  buffer_.shrink_to_fit();
  begin_ = 0;
  end_ = 0;
}

}  // namespace net
}  // namespace aft
