// SPEX wire protocol v1 (DESIGN.md §15): versioned length-prefixed binary
// frames over TCP.
//
// Every frame is
//
//   [u32 LE payload_length] [u8 type] [payload_length bytes of payload]
//
// so a decoder needs exactly five bytes of lookahead to know how much to
// buffer — and, critically, can reject an adversarial length prefix *before*
// allocating anything: a declared payload beyond the negotiated cap is a
// structured kInvalidArgument, not a multi-gigabyte resize.
//
// Multi-byte payload integers are little-endian.  Strings are raw bytes with
// no terminator (the frame length bounds them).
//
// Conversation (client → server / server → client):
//
//   HELLO(min_ver, max_ver)           → WELCOME(version, max_frame) | ERROR
//   PREPARE(kind, text)               → PREPARED(handle, slots) | ERROR
//   STREAM(handle, doc, chunk)*       → RESULT(doc, slot, certain, frag)*
//   END_DOC(handle, doc)                (as each fragment is decided)
//                                       then DOC_DONE(doc, certain, total)
//                                       or ERROR(doc, code, certain, total)
//   PING(payload)                     → PONG(payload)
//                                     ← DRAIN()       (server is shutting
//                                                      down; no new work)
//
// Results are progressive: a RESULT frame is sent as soon as its fragment
// is decided, so RESULT frames may arrive while the document is still
// streaming (before END_DOC is sent), interleaved with the frames of other
// documents on the connection.  A client must read while it writes.  The
// terminal DOC_DONE/ERROR counts exactly the RESULT frames sent for the
// document (certain ones first within each slot).
//
// A document that dies mid-stream — malformed bytes, deadline, resource
// breach, server drain — still terminates with one structured ERROR frame
// carrying the Status code and the certain/speculative result counts of the
// sealed partial (PR5 semantics extended to the wire), preceded by the
// partial RESULT frames themselves when the connection is still writable.
// That terminal may precede the document's END_DOC; the server swallows
// the document's remaining STREAM frames until its END_DOC.
//
// The codec layer here is deliberately dumb: framing, field packing and the
// incremental decoder.  All protocol *state* (handshake order, handle
// tables, deadlines) lives in net_server.cc / client.cc.

#ifndef SPEX_NET_WIRE_PROTOCOL_H_
#define SPEX_NET_WIRE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"

namespace spex {
namespace net {

// Protocol versions this build speaks.  Negotiation picks the highest
// version inside [HELLO.min, HELLO.max] ∩ [kMinVersion, kMaxVersion].
inline constexpr uint16_t kMinVersion = 1;
inline constexpr uint16_t kMaxVersion = 1;

// Frame header: u32 length + u8 type.
inline constexpr size_t kFrameHeaderBytes = 5;

// Default (and spexserve default) payload cap.  WELCOME advertises the
// server's actual cap so clients can size chunks.
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameType : uint8_t {
  // Client → server.
  kHello = 0x01,
  kPrepare = 0x02,
  kStream = 0x03,
  kEndDoc = 0x04,
  kPing = 0x05,
  // Server → client.
  kWelcome = 0x81,
  kPrepared = 0x82,
  kResult = 0x83,
  kDocDone = 0x84,
  kError = 0x85,
  kPong = 0x86,
  kDrain = 0x87,
};

// True for the type values the protocol defines (either direction).
bool IsKnownFrameType(uint8_t type);
// "hello", "prepared", ... ("unknown" otherwise) — for logs and tests.
const char* FrameTypeName(FrameType type);

// One decoded frame: the type plus its raw payload.  `payload` views into
// the decoder's buffer and is valid until the next Consume()/Reset().
struct Frame {
  FrameType type = FrameType::kHello;
  std::string_view payload;
};

// --- Typed payload views -------------------------------------------------
// Each struct has an Encode() producing a full frame (header included) and
// a Parse(payload) filling the struct from a decoded frame's payload;
// Parse returns kInvalidArgument on a payload that is too short or
// malformed for the frame type.

struct HelloFrame {
  uint16_t min_version = kMinVersion;
  uint16_t max_version = kMaxVersion;
  std::string client_name;  // informational

  std::string Encode() const;
  Status Parse(std::string_view payload);
};

struct WelcomeFrame {
  uint16_t version = kMaxVersion;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::string banner;  // informational

  std::string Encode() const;
  Status Parse(std::string_view payload);
};

// PREPARE admits either a single query or a whole subscription population
// (newline-separated queries) — the wire face of CompiledQueryCache::Get
// and ::GetMulti.
struct PrepareFrame {
  enum Kind : uint8_t { kQuery = 0, kPopulation = 1 };
  uint8_t kind = kQuery;
  std::string text;

  std::string Encode() const;
  Status Parse(std::string_view payload);
};

struct PreparedFrame {
  uint32_t handle = 0;
  uint32_t slots = 1;  // population slot count (1 for a single query)

  std::string Encode() const;
  Status Parse(std::string_view payload);
};

struct StreamFrame {
  uint32_t handle = 0;
  uint32_t doc_id = 0;
  std::string_view chunk;  // views the caller's bytes for Encode

  std::string Encode() const;
  Status Parse(std::string_view payload);
};

struct EndDocFrame {
  uint32_t handle = 0;
  uint32_t doc_id = 0;

  std::string Encode() const;
  Status Parse(std::string_view payload);
};

struct ResultFrame {
  uint32_t doc_id = 0;
  uint32_t slot = 0;   // population slot (0 for single-query handles)
  uint8_t certain = 1; // 1 = exact under any continuation, 0 = speculative
  std::string_view fragment;

  // Appends the full frame to *out (the connection's write buffer), with no
  // intermediate payload string; Encode() returns the same bytes.
  void EncodeTo(std::string* out) const;
  std::string Encode() const;
  Status Parse(std::string_view payload);
};

struct DocDoneFrame {
  uint32_t doc_id = 0;
  uint64_t certain = 0;
  uint64_t total = 0;

  std::string Encode() const;
  Status Parse(std::string_view payload);
};

// Structured failure, document-scoped (doc_id != 0 refers to a document on
// this connection) or connection-scoped (doc_id == 0: handshake/protocol
// errors, overload shedding, drain refusals).
struct ErrorFrame {
  uint32_t doc_id = 0;
  StatusCode code = StatusCode::kInternal;
  uint64_t certain = 0;         // certain results sealed before the failure
  uint64_t total = 0;           // total results sealed (certain prefix first)
  uint32_t retry_after_ms = 0;  // nonzero only for kUnavailable
  std::string message;

  std::string Encode() const;
  Status Parse(std::string_view payload);
};

// PING/PONG/DRAIN carry an opaque payload (PONG echoes PING's).
std::string EncodeFrame(FrameType type, std::string_view payload);

// --- Incremental decoder -------------------------------------------------
//
// Feed bytes in any chunking with Append(); Next() yields complete frames
// in order.  The decoder validates the header *before* buffering the
// payload: a declared length beyond `max_frame_bytes`, or an unknown frame
// type, poisons the decoder with kInvalidArgument — a byte stream cannot be
// resynchronized after a framing violation, so the connection must close.
// Memory is bounded by kFrameHeaderBytes + max_frame_bytes at all times.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  // Appends raw bytes.  Returns the decoder status: once non-OK, further
  // Append/Next calls keep reporting the same poison.
  Status Append(std::string_view bytes);

  // True when a complete frame is buffered; fills *frame (payload view
  // valid until the next Append/Next/Reset).  The frame's bytes are
  // consumed.  False when more input is needed or the decoder is poisoned
  // (check status()).
  bool Next(Frame* frame);

  const Status& status() const { return status_; }
  // Bytes currently buffered (tests assert boundedness).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  void Reset();

 private:
  size_t max_frame_bytes_;  // non-const so decoders are assignable
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out / skipped
  Status status_;
};

}  // namespace net
}  // namespace spex

#endif  // SPEX_NET_WIRE_PROTOCOL_H_
