#include "net/wire_protocol.h"

#include <cstring>

namespace spex {
namespace net {
namespace {

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// A tiny cursor over a payload; Take* return false past the end, which each
// Parse translates into one kInvalidArgument.
struct Cursor {
  std::string_view rest;

  bool TakeU8(uint8_t* v) {
    if (rest.size() < 1) return false;
    *v = static_cast<uint8_t>(rest[0]);
    rest.remove_prefix(1);
    return true;
  }
  bool TakeU16(uint16_t* v) {
    if (rest.size() < 2) return false;
    *v = static_cast<uint16_t>(static_cast<uint8_t>(rest[0]) |
                               static_cast<uint8_t>(rest[1]) << 8);
    rest.remove_prefix(2);
    return true;
  }
  bool TakeU32(uint32_t* v) {
    if (rest.size() < 4) return false;
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<uint8_t>(rest[i])) << (8 * i);
    }
    *v = out;
    rest.remove_prefix(4);
    return true;
  }
  bool TakeU64(uint64_t* v) {
    if (rest.size() < 8) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(rest[i])) << (8 * i);
    }
    *v = out;
    rest.remove_prefix(8);
    return true;
  }
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string(what) + " frame payload too short");
}

std::string WithHeader(FrameType type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out.push_back(static_cast<char>(type));
  out += payload;
  return out;
}

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kPrepare:
    case FrameType::kStream:
    case FrameType::kEndDoc:
    case FrameType::kPing:
    case FrameType::kWelcome:
    case FrameType::kPrepared:
    case FrameType::kResult:
    case FrameType::kDocDone:
    case FrameType::kError:
    case FrameType::kPong:
    case FrameType::kDrain:
      return true;
  }
  return false;
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kPrepare: return "prepare";
    case FrameType::kStream: return "stream";
    case FrameType::kEndDoc: return "end_doc";
    case FrameType::kPing: return "ping";
    case FrameType::kWelcome: return "welcome";
    case FrameType::kPrepared: return "prepared";
    case FrameType::kResult: return "result";
    case FrameType::kDocDone: return "doc_done";
    case FrameType::kError: return "error";
    case FrameType::kPong: return "pong";
    case FrameType::kDrain: return "drain";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out.push_back(static_cast<char>(type));
  out.append(payload);
  return out;
}

std::string HelloFrame::Encode() const {
  std::string payload;
  PutU16(&payload, min_version);
  PutU16(&payload, max_version);
  payload += client_name;
  return WithHeader(FrameType::kHello, payload);
}

Status HelloFrame::Parse(std::string_view payload) {
  Cursor c{payload};
  if (!c.TakeU16(&min_version) || !c.TakeU16(&max_version)) {
    return Truncated("hello");
  }
  if (min_version > max_version) {
    return Status::InvalidArgument("hello version range inverted");
  }
  client_name = std::string(c.rest);
  return Status::Ok();
}

std::string WelcomeFrame::Encode() const {
  std::string payload;
  PutU16(&payload, version);
  PutU32(&payload, max_frame_bytes);
  payload += banner;
  return WithHeader(FrameType::kWelcome, payload);
}

Status WelcomeFrame::Parse(std::string_view payload) {
  Cursor c{payload};
  if (!c.TakeU16(&version) || !c.TakeU32(&max_frame_bytes)) {
    return Truncated("welcome");
  }
  banner = std::string(c.rest);
  return Status::Ok();
}

std::string PrepareFrame::Encode() const {
  std::string payload;
  payload.push_back(static_cast<char>(kind));
  payload += text;
  return WithHeader(FrameType::kPrepare, payload);
}

Status PrepareFrame::Parse(std::string_view payload) {
  Cursor c{payload};
  if (!c.TakeU8(&kind)) return Truncated("prepare");
  if (kind != kQuery && kind != kPopulation) {
    return Status::InvalidArgument("prepare kind unknown");
  }
  text = std::string(c.rest);
  return Status::Ok();
}

std::string PreparedFrame::Encode() const {
  std::string payload;
  PutU32(&payload, handle);
  PutU32(&payload, slots);
  return WithHeader(FrameType::kPrepared, payload);
}

Status PreparedFrame::Parse(std::string_view payload) {
  Cursor c{payload};
  if (!c.TakeU32(&handle) || !c.TakeU32(&slots)) return Truncated("prepared");
  return Status::Ok();
}

std::string StreamFrame::Encode() const {
  std::string payload;
  payload.reserve(8 + chunk.size());
  PutU32(&payload, handle);
  PutU32(&payload, doc_id);
  payload.append(chunk);
  return WithHeader(FrameType::kStream, payload);
}

Status StreamFrame::Parse(std::string_view payload) {
  Cursor c{payload};
  if (!c.TakeU32(&handle) || !c.TakeU32(&doc_id)) return Truncated("stream");
  chunk = c.rest;
  return Status::Ok();
}

std::string EndDocFrame::Encode() const {
  std::string payload;
  PutU32(&payload, handle);
  PutU32(&payload, doc_id);
  return WithHeader(FrameType::kEndDoc, payload);
}

Status EndDocFrame::Parse(std::string_view payload) {
  Cursor c{payload};
  if (!c.TakeU32(&handle) || !c.TakeU32(&doc_id)) return Truncated("end_doc");
  return Status::Ok();
}

namespace {
constexpr size_t kResultFixedPayloadBytes = 9;  // doc_id, slot, certain
}  // namespace

void ResultFrame::EncodeTo(std::string* out) const {
  PutU32(out, static_cast<uint32_t>(kResultFixedPayloadBytes +
                                    fragment.size()));
  out->push_back(static_cast<char>(FrameType::kResult));
  PutU32(out, doc_id);
  PutU32(out, slot);
  out->push_back(static_cast<char>(certain));
  out->append(fragment);
}

std::string ResultFrame::Encode() const {
  std::string out;
  out.reserve(kFrameHeaderBytes + kResultFixedPayloadBytes + fragment.size());
  EncodeTo(&out);
  return out;
}

Status ResultFrame::Parse(std::string_view payload) {
  Cursor c{payload};
  if (!c.TakeU32(&doc_id) || !c.TakeU32(&slot) || !c.TakeU8(&certain)) {
    return Truncated("result");
  }
  if (certain > 1) return Status::InvalidArgument("result certain flag not 0/1");
  fragment = c.rest;
  return Status::Ok();
}

std::string DocDoneFrame::Encode() const {
  std::string payload;
  PutU32(&payload, doc_id);
  PutU64(&payload, certain);
  PutU64(&payload, total);
  return WithHeader(FrameType::kDocDone, payload);
}

Status DocDoneFrame::Parse(std::string_view payload) {
  Cursor c{payload};
  if (!c.TakeU32(&doc_id) || !c.TakeU64(&certain) || !c.TakeU64(&total)) {
    return Truncated("doc_done");
  }
  if (certain > total) {
    return Status::InvalidArgument("doc_done certain exceeds total");
  }
  return Status::Ok();
}

std::string ErrorFrame::Encode() const {
  std::string payload;
  PutU32(&payload, doc_id);
  payload.push_back(static_cast<char>(code));
  PutU64(&payload, certain);
  PutU64(&payload, total);
  PutU32(&payload, retry_after_ms);
  payload += message;
  return WithHeader(FrameType::kError, payload);
}

Status ErrorFrame::Parse(std::string_view payload) {
  Cursor c{payload};
  uint8_t raw_code = 0;
  if (!c.TakeU32(&doc_id) || !c.TakeU8(&raw_code) || !c.TakeU64(&certain) ||
      !c.TakeU64(&total) || !c.TakeU32(&retry_after_ms)) {
    return Truncated("error");
  }
  if (raw_code >= kStatusCodeCount) {
    return Status::InvalidArgument("error status code out of range");
  }
  code = static_cast<StatusCode>(raw_code);
  if (certain > total) {
    return Status::InvalidArgument("error certain exceeds total");
  }
  message = std::string(c.rest);
  return Status::Ok();
}

Status FrameDecoder::Append(std::string_view bytes) {
  if (!status_.ok()) return status_;
  // Compact lazily: move the unread suffix down once the consumed prefix
  // dominates, so long-lived connections do not grow the buffer without
  // bound while staying O(1) amortized per byte.
  if (consumed_ > 0 &&
      (consumed_ >= buffer_.size() || consumed_ > 64 * 1024)) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  // Reject a poisonous length prefix as soon as the header is visible —
  // before the payload is buffered, so the attacker controls at most
  // header + max_frame bytes of memory here, never the declared length.
  buffer_.append(bytes);
  if (buffer_.size() - consumed_ >= kFrameHeaderBytes) {
    const unsigned char* h =
        reinterpret_cast<const unsigned char*>(buffer_.data() + consumed_);
    const uint32_t length = static_cast<uint32_t>(h[0]) |
                            static_cast<uint32_t>(h[1]) << 8 |
                            static_cast<uint32_t>(h[2]) << 16 |
                            static_cast<uint32_t>(h[3]) << 24;
    if (length > max_frame_bytes_) {
      status_ = Status::InvalidArgument(
          "frame length " + std::to_string(length) + " exceeds cap " +
          std::to_string(max_frame_bytes_));
    } else if (!IsKnownFrameType(h[4])) {
      status_ = Status::InvalidArgument(
          "unknown frame type " + std::to_string(static_cast<int>(h[4])));
    }
  }
  return status_;
}

bool FrameDecoder::Next(Frame* frame) {
  if (!status_.ok()) return false;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return false;
  const unsigned char* h =
      reinterpret_cast<const unsigned char*>(buffer_.data() + consumed_);
  const uint32_t length = static_cast<uint32_t>(h[0]) |
                          static_cast<uint32_t>(h[1]) << 8 |
                          static_cast<uint32_t>(h[2]) << 16 |
                          static_cast<uint32_t>(h[3]) << 24;
  // Append validated the visible header already; re-check for the case of
  // several frames arriving in one Append (later headers were not at the
  // front then).
  if (length > max_frame_bytes_) {
    status_ = Status::InvalidArgument(
        "frame length " + std::to_string(length) + " exceeds cap " +
        std::to_string(max_frame_bytes_));
    return false;
  }
  if (!IsKnownFrameType(h[4])) {
    status_ = Status::InvalidArgument(
        "unknown frame type " + std::to_string(static_cast<int>(h[4])));
    return false;
  }
  if (available < kFrameHeaderBytes + length) return false;
  frame->type = static_cast<FrameType>(h[4]);
  frame->payload = std::string_view(buffer_.data() + consumed_ +
                                        kFrameHeaderBytes,
                                    length);
  consumed_ += kFrameHeaderBytes + length;
  return true;
}

void FrameDecoder::Reset() {
  buffer_.clear();
  consumed_ = 0;
  status_ = Status::Ok();
}

}  // namespace net
}  // namespace spex
