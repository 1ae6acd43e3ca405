// Hardened multi-client TCP serving tier (DESIGN.md §15).
//
// NetServer speaks the versioned wire protocol of net/wire_protocol.h over
// non-blocking sockets driven by one poll(2) event loop, and feeds every
// admitted document into the existing EnginePool as a byte-fed
// StreamSession — nothing about the engine's "one message in the network"
// discipline changes; the network tier is purely a frames-to-sessions
// adapter built for hostile conditions.  The loop only decodes frames: a
// STREAM chunk goes to the session's pinned worker as bytes (the worker
// parses), and each finished result fragment comes back as a RESULT frame
// as soon as the worker hands it off (progressive emission, paper §III.8)
// — while the document is still streaming, interleaved with the other
// documents' frames.
//
//   * Bounded per-connection buffers.  The frame decoder holds at most
//     header + max_frame_bytes (an adversarial length prefix is rejected
//     from the 5 header bytes alone, before any allocation).  A connection
//     whose *write* buffer exceeds its cap — a client that streams requests
//     but never reads responses — stops being read (backpressure) and dies
//     by idle timeout if it never drains; its pending output is bounded by
//     the cap plus what its already-queued chunks produce.  Outbound frames
//     are appended to one byte buffer per connection, flushed with as few
//     send() calls as the socket allows.
//   * Per-connection idle deadline (slow-loris defense: progress in either
//     direction resets it) and per-document deadline (a stream that neither
//     finishes nor fails within its budget is aborted kDeadlineExceeded;
//     its certain partial results still flow back).
//   * Overload shedding.  Beyond max_connections new sockets are refused
//     with a best-effort kUnavailable ERROR; beyond max_docs_in_flight new
//     documents are shed with kUnavailable + retry-after while everything
//     already admitted keeps its resources.  Shedding never cancels
//     admitted work.
//   * Fault isolation (PR5 quarantine reused): a document that breaches
//     engine limits, fails to parse, or times out poisons only its own
//     session — the connection and every other document keep serving, and
//     the terminal ERROR frame (sent as soon as the session is sealed, even
//     mid-stream) carries the Status code plus the certain/speculative
//     counts of the RESULT frames sent for it.  The document's entry then
//     swallows its remaining frames until END_DOC.
//   * Graceful drain.  RequestDrain() (spexserve wires SIGTERM to it) stops
//     accepting, sends DRAIN to every client, aborts mid-stream documents
//     (kCancelled) and flushes every in-flight session's certain results
//     before the loop exits; Join() then returns and the process can exit
//     0.  A grace period bounds how long a dead client can hold the drain.
//
// Thread model: one event-loop thread owns every connection; Start/Stop/
// RequestDrain/Join are called from a control thread.  Sessions live on
// pool workers as always — the loop only feeds bytes, Closes/Aborts and
// takes the fragments the workers hand off.  A worker wakes the loop
// through a wake pipe (at most one pending byte) when it hands fragments
// off or seals a session; the pipe is shared with the sessions, so it
// stays open for workers that seal aborted sessions after Stop().
//
// Metrics (registered on the pool registry at construction):
//   spex_net_connections (live gauge), spex_net_connections_total,
//   spex_net_frames_{in,out}_total, spex_net_bytes_{in,out}_total,
//   spex_net_frame_errors_total, spex_net_sheds_total{reason=...},
//   spex_net_timeouts_total{kind=idle|doc}, spex_net_drains_total,
//   spex_net_docs_total{status=...}, spex_net_doc_latency_us histogram
//   (first STREAM frame to terminal frame queued), spex_net_ttfr_us
//   histogram (first STREAM frame to first RESULT frame queued, documents
//   with at least one result).

#ifndef SPEX_NET_NET_SERVER_H_
#define SPEX_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "net/wire_protocol.h"
#include "obs/metrics.h"
#include "runtime/engine_pool.h"
#include "runtime/query_cache.h"

namespace spex {

class SessionDirectory;

namespace net {

struct NetServerOptions {
  // Loopback by default, same stance as the admin plane; "0.0.0.0" opts
  // into external exposure.
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral, read back via NetServer::port()
  int backlog = 128;

  // Overload protection.
  size_t max_connections = 1024;
  size_t max_docs_in_flight = 256;      // across all connections
  size_t max_docs_per_connection = 8;   // concurrently open per connection
  uint32_t retry_after_ms = 1000;       // hint in kUnavailable ERROR frames

  // Byte caps.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  size_t max_write_buffer_bytes = 4u << 20;

  // Deadlines (0 = off).
  int64_t idle_timeout_ms = 30000;
  int64_t doc_deadline_ms = 0;

  // Graceful drain: connections still unfinished this long after
  // RequestDrain() are force-closed (their sessions aborted kCancelled).
  int64_t drain_grace_ms = 5000;

  // The engine limits sessions run under (mirror of PoolOptions::
  // engine.limits) — reported to the session directory for /sessions
  // headroom display; the pool itself applies its own configured limits.
  EngineLimits session_limits;

  // WELCOME banner, informational.
  std::string banner = "spex";
};

class NetServer {
 public:
  // Registers the spex_net_* meters on pool->metrics(); construct before
  // the registry is scraped from other threads (the usual registration
  // discipline).  `directory` (optional) mirrors admitted sessions into the
  // admin plane's /sessions table.
  NetServer(EnginePool* pool, CompiledQueryCache* cache,
            NetServerOptions options = {},
            SessionDirectory* directory = nullptr);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens, starts the event loop.  False (with *error) on socket
  // failure.
  bool Start(std::string* error = nullptr);

  // Graceful drain; returns immediately.  Safe from any thread, safe to
  // call repeatedly.  The event loop exits once every connection is flushed
  // and closed (or the grace period expires); observe via Join()/drained().
  void RequestDrain();

  // Blocks until the event loop has exited (drain completed or Stop).
  void Join();

  // Hard stop: aborts every in-flight session (kCancelled), closes every
  // socket, joins the loop.  Used by tests and destruction; production
  // shutdown is RequestDrain + Join.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return drain_.load(std::memory_order_acquire); }
  // True once the event loop exited after completing a drain.
  bool drained() const { return drained_.load(std::memory_order_acquire); }

  // Live connection count (loop-published, any-thread readable).
  int64_t connections() const {
    return live_connections_.load(std::memory_order_relaxed);
  }

 private:
  class WakePipe;

  // One document on a connection, from its first frame to its END_DOC.
  struct Doc {
    uint32_t handle = 0;
    uint32_t doc_id = 0;
    // Null once the terminal frame was sent (or the document was shed).
    std::shared_ptr<StreamSession> session;
    int64_t first_stream_us = 0;
    // RESULT frames sent so far, and how many of them were certain.
    uint64_t results_sent = 0;
    uint64_t certain_sent = 0;
    // No more input goes to the session: END_DOC processed or aborted.
    bool closed = false;
    // END_DOC arrived: the client sends nothing more for this document.
    bool end_received = false;
    // The terminal frame was sent (a shed refusal or the sealed session's
    // DOC_DONE/ERROR); the entry only swallows frames until END_DOC.
    bool terminal = false;
  };

  struct Conn {
    int fd = -1;
    int64_t id = 0;
    FrameDecoder decoder;
    // Outbound bytes (whole frames) not yet handed to the socket start at
    // out_pos.
    std::string out;
    size_t out_pos = 0;
    size_t out_bytes() const { return out.size() - out_pos; }
    // Documents still waiting for their terminal frame.
    size_t live_docs = 0;
    bool hello_done = false;
    uint32_t next_handle = 1;
    // Prepared handles: a query is one slot, a population one per distinct
    // canonical query.
    std::unordered_map<uint32_t, std::shared_ptr<const SlotTemplate>> handles;
    std::unordered_map<uint64_t, Doc> docs;  // key: handle<<32 | doc_id
    int64_t last_activity_ms = 0;
    bool eof = false;      // peer half-closed; finish pending docs, flush
    bool closing = false;  // flush out buffer, then close
  };

  void Loop();
  void AcceptNew(int64_t now_ms);
  void CloseConn(Conn* conn, const Status& doc_abort_status);
  void HandleReadable(Conn* conn, int64_t now_ms);
  void HandleFrame(Conn* conn, const Frame& frame);
  void HandleHello(Conn* conn, const Frame& frame);
  void HandlePrepare(Conn* conn, const Frame& frame);
  void HandleStream(Conn* conn, const Frame& frame);
  void HandleEndDoc(Conn* conn, const Frame& frame);
  // Sends a connection-level ERROR and schedules the close (flush first).
  void FailConnection(Conn* conn, const Status& status);
  void SendFrame(Conn* conn, const std::string& frame);
  // Moves buffered output into the socket; false on a dead peer.
  bool FlushWrites(Conn* conn, int64_t now_ms);
  // Frames the fragments the workers handed off as RESULT frames, and the
  // terminal frame of every session that was sealed.
  void PumpResults(Conn* conn);
  void EnforceDeadlines(Conn* conn, int64_t now_ms);
  void BeginDrain(int64_t now_ms);
  void AbortDoc(Doc* doc, const Status& status);
  void CountDocTerminal(StatusCode code);

  EnginePool* pool_;
  CompiledQueryCache* cache_;
  NetServerOptions options_;
  SessionDirectory* directory_;

  int listen_fd_ = -1;
  std::shared_ptr<WakePipe> wake_;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
  std::atomic<bool> drained_{false};
  std::atomic<int64_t> live_connections_{0};

  // Loop-owned state.
  std::vector<std::unique_ptr<Conn>> conns_;
  size_t docs_in_flight_ = 0;
  int64_t next_conn_id_ = 1;
  int64_t drain_started_ms_ = 0;
  std::vector<StreamSession::Fragment> fragments_;  // reused by PumpResults

  // Meters (owned by the pool registry).
  obs::AtomicCounter* connections_total_ = nullptr;
  obs::AtomicCounter* frames_in_ = nullptr;
  obs::AtomicCounter* frames_out_ = nullptr;
  obs::AtomicCounter* bytes_in_ = nullptr;
  obs::AtomicCounter* bytes_out_ = nullptr;
  obs::AtomicCounter* frame_errors_ = nullptr;
  obs::AtomicCounter* shed_connections_ = nullptr;
  obs::AtomicCounter* shed_docs_ = nullptr;
  obs::AtomicCounter* shed_draining_ = nullptr;
  obs::AtomicCounter* timeouts_idle_ = nullptr;
  obs::AtomicCounter* timeouts_doc_ = nullptr;
  obs::AtomicCounter* drains_ = nullptr;
  obs::AtomicCounter* docs_by_status_[kStatusCodeCount] = {};
  obs::AtomicHistogram* doc_latency_us_ = nullptr;
  obs::AtomicHistogram* ttfr_us_ = nullptr;
};

}  // namespace net
}  // namespace spex

#endif  // SPEX_NET_NET_SERVER_H_
