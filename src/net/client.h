// Blocking client for the SPEX wire protocol (DESIGN.md §15).
//
// SpexClient is the reference peer of net/net_server.h: the spexclient CLI,
// the protocol tests and the net throughput bench all drive a server
// through it.  It is deliberately synchronous — connect, handshake,
// prepare, stream, collect — one thread per connection; concurrency in
// tests/bench comes from running many clients.
//
// The server sends RESULT frames as soon as fragments are decided, so they
// may arrive while a document is still streaming, interleaved with other
// documents' frames.  StreamDocument therefore reads while it writes (a
// result stream larger than the server's write cap cannot deadlock it),
// and frames of a document other than the one being collected are kept
// for that document's own Collect.
//
// Every call reports failures as spex::Status; a structured ERROR frame
// from the server is surfaced as the Status it carries (with the certain/
// total counts preserved in DocOutcome), while transport failures map to
// kCancelled ("connection closed") / kDeadlineExceeded (socket timeout).

#ifndef SPEX_NET_CLIENT_H_
#define SPEX_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "base/status.h"
#include "net/wire_protocol.h"

namespace spex {
namespace net {

struct ClientOptions {
  std::string client_name = "spexclient";
  // Socket receive/send timeout; 0 = block forever.  Collect loops obey it
  // per read, so a dead server surfaces as kDeadlineExceeded.
  int64_t io_timeout_ms = 10000;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // STREAM chunk size used by StreamDocument.
  size_t chunk_bytes = 64 * 1024;
};

// One result fragment from the server.
struct ClientResult {
  uint32_t slot = 0;
  bool certain = false;
  std::string fragment;
};

// Terminal outcome of one document: DOC_DONE (status ok) or a structured
// ERROR (status carries the server's code + message; certain/total are the
// sealed partial counts either way).
struct DocOutcome {
  Status status;
  uint64_t certain = 0;
  uint64_t total = 0;
  uint32_t retry_after_ms = 0;
  // True when the server's terminal frame (DOC_DONE or ERROR) was received;
  // false when the transport died first, in which case certain/total are
  // not authoritative.
  bool terminal_frame = false;
  std::vector<ClientResult> results;
};

// An owned decoded frame (payload copied out of the decoder buffer).
struct OwnedFrame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

class SpexClient {
 public:
  explicit SpexClient(ClientOptions options = {});
  ~SpexClient();

  SpexClient(const SpexClient&) = delete;
  SpexClient& operator=(const SpexClient&) = delete;

  // Connects and performs the HELLO/WELCOME handshake.
  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // Negotiated protocol version / server frame cap (valid after Connect).
  uint16_t version() const { return version_; }
  uint32_t server_max_frame_bytes() const { return server_max_frame_; }

  // PREPARE one query (kind kQuery) or a newline-separated population
  // (kind kPopulation); fills *handle and, when non-null, *slots.
  Status Prepare(const std::string& text, uint8_t kind, uint32_t* handle,
                 uint32_t* slots = nullptr);

  // Streams `document` in chunk_bytes STREAM frames and sends END_DOC,
  // reading the frames that arrive meanwhile, then collects RESULT frames
  // until the document's terminal DOC_DONE/ERROR.  Transport failures
  // surface in DocOutcome.status.
  DocOutcome StreamDocument(uint32_t handle, uint32_t doc_id,
                            const std::string& document);

  // Split phases for callers that interleave documents / kill mid-stream.
  Status SendChunk(uint32_t handle, uint32_t doc_id, std::string_view chunk);
  Status SendEndDoc(uint32_t handle, uint32_t doc_id);
  // Frames already received for `doc_id` first (in arrival order), then the
  // socket, until the document's terminal frame; frames of other documents
  // are kept for their own Collect.
  DocOutcome Collect(uint32_t doc_id);

  Status Ping(const std::string& payload = "ping");

  // True once the server announced DRAIN on this connection.
  bool drain_received() const { return drain_received_; }

  // --- Low-level access (tests) ---
  // Sends raw bytes as-is (malformed-frame injection).
  Status SendRaw(std::string_view bytes);
  // Reads the next frame (kept frames first), transparently handling none
  // of the bookkeeping.
  Status ReadFrame(OwnedFrame* frame);
  int fd() const { return fd_; }

 private:
  // Reads the next frame off the socket.
  Status ReadWireFrame(OwnedFrame* frame);
  // Reads frames until one that is not DRAIN/PONG (those are recorded /
  // dropped) and not a document's (those are kept); used by the
  // request/response helpers.
  Status ReadSignificantFrame(OwnedFrame* frame);
  // SendRaw that also reads whatever the server sends meanwhile into
  // pending_, so neither side's buffers can fill up and stall the other.
  Status SendWhileReading(std::string_view bytes);
  // Folds one frame of the document being collected into `out`; true once
  // `out` is final (terminal frame or error).
  bool Absorb(const OwnedFrame& frame, DocOutcome* out);

  ClientOptions options_;
  int fd_ = -1;
  FrameDecoder decoder_;
  // Frames received but not yet collected, in arrival order.
  std::deque<OwnedFrame> pending_;
  uint16_t version_ = 0;
  uint32_t server_max_frame_ = 0;
  bool drain_received_ = false;
};

}  // namespace net
}  // namespace spex

#endif  // SPEX_NET_CLIENT_H_
