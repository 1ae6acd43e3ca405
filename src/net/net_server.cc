#include "net/net_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <utility>

#include "runtime/admin_server.h"

namespace spex {
namespace net {
namespace {

// Pending RESULT bytes at which PumpResults moves a connection's buffer
// into the socket: one worker input chunk's worth.
constexpr size_t kPumpFlushBytes = 64 * 1024;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

uint64_t DocKey(uint32_t handle, uint32_t doc_id) {
  return (static_cast<uint64_t>(handle) << 32) | doc_id;
}

// Best-effort write of one frame to a socket that is about to be closed
// (connection-shed path: the conn never enters the poll set, so a tiny
// blocking-ish send into the empty socket buffer is fine).
void SendDirect(int fd, const std::string& frame) {
  (void)send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
}

}  // namespace

// The loop's wake-up channel.  Every admitted session's ready callback holds
// a reference, so the pipe stays open for as long as a worker may still
// seal a session — after Stop(), and after the NetServer itself is gone.
class NetServer::WakePipe {
 public:
  WakePipe() {
    if (pipe(fds_) != 0) {
      fds_[0] = fds_[1] = -1;
      return;
    }
    SetNonBlocking(fds_[0]);
    SetNonBlocking(fds_[1]);
  }
  ~WakePipe() {
    for (int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  bool ok() const { return fds_[0] >= 0; }
  int read_fd() const { return fds_[0]; }

  // Any thread.  Writes a byte unless one is already pending.
  void Wake() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_) return;
    pending_ = true;
    const char byte = 'w';
    (void)!write(fds_[1], &byte, 1);
  }

  // Loop thread, before it looks for work: consumes the pending byte.  A
  // Wake() that follows finds nothing pending and writes a fresh one, so
  // no wake-up is lost; one that precedes is seen by the caller's scan.
  void Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    char buf[64];
    while (read(fds_[0], buf, sizeof(buf)) > 0) {
    }
    pending_ = false;
  }

 private:
  int fds_[2] = {-1, -1};
  std::mutex mu_;
  bool pending_ = false;  // a byte is in the pipe; guarded by mu_
};

NetServer::NetServer(EnginePool* pool, CompiledQueryCache* cache,
                     NetServerOptions options, SessionDirectory* directory)
    : pool_(pool),
      cache_(cache),
      options_(std::move(options)),
      directory_(directory) {
  if (options_.max_connections < 1) options_.max_connections = 1;
  if (options_.max_docs_in_flight < 1) options_.max_docs_in_flight = 1;
  if (options_.max_docs_per_connection < 1) options_.max_docs_per_connection = 1;

  obs::MetricRegistry& m = pool_->metrics();
  m.SetHelp("spex_net_connections", "Live TCP serving connections.");
  m.AddCallbackGauge("spex_net_connections", {},
                     [this] { return connections(); });
  connections_total_ = m.AddAtomicCounter("spex_net_connections_total");
  frames_in_ = m.AddAtomicCounter("spex_net_frames_in_total");
  frames_out_ = m.AddAtomicCounter("spex_net_frames_out_total");
  bytes_in_ = m.AddAtomicCounter("spex_net_bytes_in_total");
  bytes_out_ = m.AddAtomicCounter("spex_net_bytes_out_total");
  m.SetHelp("spex_net_frame_errors_total",
            "Connections poisoned by framing violations (oversized length "
            "prefix, unknown frame type, malformed payload).");
  frame_errors_ = m.AddAtomicCounter("spex_net_frame_errors_total");
  m.SetHelp("spex_net_sheds_total",
            "Work refused kUnavailable/kResourceExhausted by overload "
            "protection, by reason.");
  shed_connections_ =
      m.AddAtomicCounter("spex_net_sheds_total", {{"reason", "connections"}});
  shed_docs_ = m.AddAtomicCounter("spex_net_sheds_total", {{"reason", "docs"}});
  shed_draining_ =
      m.AddAtomicCounter("spex_net_sheds_total", {{"reason", "draining"}});
  timeouts_idle_ =
      m.AddAtomicCounter("spex_net_timeouts_total", {{"kind", "idle"}});
  timeouts_doc_ =
      m.AddAtomicCounter("spex_net_timeouts_total", {{"kind", "doc"}});
  drains_ = m.AddAtomicCounter("spex_net_drains_total");
  m.SetHelp("spex_net_docs_total",
            "Documents terminally resolved on the wire, by status code.");
  for (int c = 0; c < kStatusCodeCount; ++c) {
    docs_by_status_[c] = m.AddAtomicCounter(
        "spex_net_docs_total",
        {{"status", StatusCodeName(static_cast<StatusCode>(c))}});
  }
  m.SetHelp("spex_net_doc_latency_us",
            "First STREAM frame to terminal frame queued, microseconds.");
  doc_latency_us_ = m.AddAtomicHistogram("spex_net_doc_latency_us");
  m.SetHelp("spex_net_ttfr_us",
            "First STREAM frame to first RESULT frame queued, microseconds "
            "(documents with at least one result).");
  ttfr_us_ = m.AddAtomicHistogram("spex_net_ttfr_us");
}

NetServer::~NetServer() { Stop(); }

bool NetServer::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    wake_.reset();
    return false;
  };
  if (running_.load(std::memory_order_acquire)) return true;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton(" + options_.bind_address + ")");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (listen(listen_fd_, options_.backlog) != 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(listen_fd_)) return fail("fcntl(listen)");
  wake_ = std::make_shared<WakePipe>();
  if (!wake_->ok()) return fail("pipe");

  stop_.store(false, std::memory_order_release);
  drain_.store(false, std::memory_order_release);
  drained_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void NetServer::RequestDrain() {
  if (!running_.load(std::memory_order_acquire)) return;
  drain_.store(true, std::memory_order_release);
  if (wake_ != nullptr) wake_->Wake();
}

void NetServer::Join() {
  if (thread_.joinable()) thread_.join();
}

void NetServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_ != nullptr) wake_->Wake();
  Join();
}

void NetServer::Loop() {
  std::vector<pollfd> pfds;
  bool drain_begun = false;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) break;
    const int64_t now = NowMs();
    if (drain_.load(std::memory_order_acquire) && !drain_begun) {
      drain_begun = true;
      BeginDrain(now);
    }

    pfds.clear();
    // Slot 0: wake pipe.  Slot 1: listener (POLLIN only while accepting).
    pfds.push_back({wake_->read_fd(), POLLIN, 0});
    pfds.push_back(
        {listen_fd_, static_cast<short>(listen_fd_ >= 0 ? POLLIN : 0), 0});
    const size_t polled_conns = conns_.size();
    for (auto& conn : conns_) {
      short events = 0;
      // Backpressure: a connection whose responses are not being read stops
      // being read itself once its write buffer is over the cap.
      if (!conn->eof && !conn->closing &&
          conn->out_bytes() <= options_.max_write_buffer_bytes) {
        events |= POLLIN;
      }
      if (conn->out_bytes() > 0) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
    }

    // Workers signal hand-offs and sealed sessions through the wake pipe;
    // the timeout is only the deadline tick.
    (void)poll(pfds.data(), pfds.size(), 15);
    if (stop_.load(std::memory_order_acquire)) break;

    // Consumed before the scan below, so a hand-off racing it re-wakes.
    const bool woken = (pfds[0].revents & POLLIN) != 0;
    if (woken) wake_->Drain();
    const int64_t post_poll_now = NowMs();
    if (listen_fd_ >= 0 && (pfds[1].revents & POLLIN)) AcceptNew(post_poll_now);

    // Only the connections that were in this poll set have revents;
    // AcceptNew may have appended fresh ones past `polled_conns`.
    for (size_t i = 0; i < polled_conns; ++i) {
      Conn* conn = conns_[i].get();
      const short re = pfds[i + 2].revents;
      if (conn->fd < 0) continue;
      if (re & (POLLERR | POLLNVAL)) {
        CloseConn(conn, Status::Cancelled("connection error"));
        continue;
      }
      if (re & POLLOUT) {
        if (!FlushWrites(conn, post_poll_now)) continue;
      }
      if (re & (POLLIN | POLLHUP)) HandleReadable(conn, post_poll_now);
    }

    // Housekeeping pass: frame what the workers handed off, enforce
    // deadlines, flush what the handlers queued, retire connections that
    // are done.
    const int64_t tick = NowMs();
    for (auto& conn_ptr : conns_) {
      Conn* conn = conn_ptr.get();
      if (conn->fd < 0) continue;
      if (woken) PumpResults(conn);
      EnforceDeadlines(conn, tick);
      if (conn->fd < 0) continue;
      if (conn->out_bytes() > 0 && !FlushWrites(conn, tick)) continue;
      const bool drained_conn = conn->live_docs == 0 && conn->out_bytes() == 0;
      if (conn->closing && conn->out_bytes() == 0) {
        CloseConn(conn, Status::Cancelled("connection closed"));
      } else if (conn->eof && drained_conn) {
        CloseConn(conn, Status::Ok());
      } else if (drain_begun && drained_conn) {
        CloseConn(conn, Status::Ok());
      } else if (drain_begun && options_.drain_grace_ms > 0 &&
                 tick - drain_started_ms_ > options_.drain_grace_ms) {
        CloseConn(conn, Status::Cancelled("drain grace period expired"));
      }
    }
    for (size_t i = 0; i < conns_.size();) {
      if (conns_[i]->fd < 0) {
        conns_.erase(conns_.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    live_connections_.store(static_cast<int64_t>(conns_.size()),
                            std::memory_order_relaxed);

    if (drain_begun && conns_.empty()) {
      drained_.store(true, std::memory_order_release);
      break;
    }
  }

  // Loop exit (drain complete or hard stop): abort whatever is left.
  for (auto& conn : conns_) {
    if (conn->fd >= 0) CloseConn(conn.get(), Status::Cancelled("server stop"));
  }
  conns_.clear();
  live_connections_.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void NetServer::AcceptNew(int64_t now_ms) {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN and transient accept errors alike: retry next tick
    }
    connections_total_->Increment();
    if (drain_.load(std::memory_order_acquire) ||
        conns_.size() >= options_.max_connections) {
      // Shed at the door: best-effort structured refusal, then close.  The
      // socket never enters the poll set, so admitted connections pay
      // nothing for the rejected one.
      const bool draining = drain_.load(std::memory_order_acquire);
      ErrorFrame err;
      err.code = StatusCode::kUnavailable;
      err.retry_after_ms = options_.retry_after_ms;
      err.message = draining ? "server draining" : "connection limit reached";
      SendDirect(fd, err.Encode());
      ::close(fd);
      (draining ? shed_draining_ : shed_connections_)->Increment();
      continue;
    }
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->decoder = FrameDecoder(options_.max_frame_bytes);
    conn->last_activity_ms = now_ms;
    conns_.push_back(std::move(conn));
    live_connections_.store(static_cast<int64_t>(conns_.size()),
                            std::memory_order_relaxed);
  }
}

void NetServer::CloseConn(Conn* conn, const Status& doc_abort_status) {
  if (conn->fd < 0) return;
  for (auto& [key, doc] : conn->docs) {
    (void)key;
    if (doc.terminal) continue;
    if (!doc.closed) {
      doc.session->Abort(doc_abort_status.ok()
                             ? Status::Cancelled("connection closed")
                             : doc_abort_status);
    }
    // The worker still seals the session (Abort enqueued a close task);
    // nobody takes its fragments — that is fine, the pool owns completion.
    --docs_in_flight_;
  }
  conn->docs.clear();
  conn->live_docs = 0;
  ::close(conn->fd);
  conn->fd = -1;
}

void NetServer::HandleReadable(Conn* conn, int64_t now_ms) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->last_activity_ms = now_ms;
      bytes_in_->Increment(n);
      const Status decode = conn->decoder.Append(
          std::string_view(buf, static_cast<size_t>(n)));
      Frame frame;
      while (conn->decoder.Next(&frame)) {
        frames_in_->Increment();
        HandleFrame(conn, frame);
        if (conn->fd < 0 || conn->closing) return;
      }
      if (!decode.ok() || !conn->decoder.status().ok()) {
        // Framing violation: the byte stream cannot be resynchronized, so
        // the whole connection is poisoned — but only this connection.
        frame_errors_->Increment();
        FailConnection(conn, conn->decoder.status());
        return;
      }
      if (static_cast<size_t>(n) < sizeof(buf)) return;
      continue;
    }
    if (n == 0) {
      // Peer half-closed.  Documents it finished (END_DOC seen) still
      // complete and their results flush; documents cut mid-stream are
      // aborted — their certain partials flush too.
      conn->eof = true;
      for (auto& [key, doc] : conn->docs) {
        (void)key;
        AbortDoc(&doc, Status::Cancelled("client closed mid-document"));
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn, Status::Cancelled("connection reset"));
    return;
  }
}

void NetServer::HandleFrame(Conn* conn, const Frame& frame) {
  if (!conn->hello_done && frame.type != FrameType::kHello) {
    FailConnection(conn,
                   Status::FailedPrecondition("expected HELLO, got " +
                                              std::string(FrameTypeName(
                                                  frame.type))));
    return;
  }
  switch (frame.type) {
    case FrameType::kHello:
      HandleHello(conn, frame);
      return;
    case FrameType::kPrepare:
      HandlePrepare(conn, frame);
      return;
    case FrameType::kStream:
      HandleStream(conn, frame);
      return;
    case FrameType::kEndDoc:
      HandleEndDoc(conn, frame);
      return;
    case FrameType::kPing:
      SendFrame(conn, EncodeFrame(FrameType::kPong, frame.payload));
      return;
    default:
      // Server-to-client frame types arriving at the server.
      FailConnection(conn, Status::InvalidArgument(
                               std::string("unexpected frame ") +
                               FrameTypeName(frame.type)));
      return;
  }
}

void NetServer::HandleHello(Conn* conn, const Frame& frame) {
  if (conn->hello_done) {
    FailConnection(conn, Status::FailedPrecondition("duplicate HELLO"));
    return;
  }
  HelloFrame hello;
  const Status parsed = hello.Parse(frame.payload);
  if (!parsed.ok()) {
    frame_errors_->Increment();
    FailConnection(conn, parsed);
    return;
  }
  const uint16_t lo = std::max(hello.min_version, kMinVersion);
  const uint16_t hi = std::min(hello.max_version, kMaxVersion);
  if (lo > hi) {
    FailConnection(
        conn, Status::FailedPrecondition(
                  "no common protocol version (client " +
                  std::to_string(hello.min_version) + ".." +
                  std::to_string(hello.max_version) + ", server " +
                  std::to_string(kMinVersion) + ".." +
                  std::to_string(kMaxVersion) + ")"));
    return;
  }
  conn->hello_done = true;
  WelcomeFrame welcome;
  welcome.version = hi;
  welcome.max_frame_bytes = static_cast<uint32_t>(options_.max_frame_bytes);
  welcome.banner = options_.banner;
  SendFrame(conn, welcome.Encode());
}

void NetServer::HandlePrepare(Conn* conn, const Frame& frame) {
  PrepareFrame prepare;
  const Status parsed = prepare.Parse(frame.payload);
  if (!parsed.ok()) {
    frame_errors_->Increment();
    FailConnection(conn, parsed);
    return;
  }
  Status status;
  std::shared_ptr<const SlotTemplate> prepared;
  if (prepare.kind == PrepareFrame::kQuery) {
    StatusOr<std::shared_ptr<const QueryTemplate>> got =
        cache_->Get(prepare.text);
    status = got.status();
    if (got.ok()) prepared = got.value();
  } else {
    std::vector<std::string> queries;
    size_t start = 0;
    while (start <= prepare.text.size()) {
      size_t end = prepare.text.find('\n', start);
      if (end == std::string::npos) end = prepare.text.size();
      if (end > start) queries.push_back(prepare.text.substr(start, end - start));
      start = end + 1;
    }
    StatusOr<std::shared_ptr<const MultiQueryTemplate>> got =
        queries.empty()
            ? Status::MalformedInput("empty subscription population")
            : cache_->GetMulti(queries);
    status = got.status();
    if (got.ok()) prepared = got.value();
  }
  if (prepared == nullptr) {
    // Compilation failure is a request failure, not a connection failure:
    // report and keep serving.
    ErrorFrame err;
    err.code = status.code();
    err.message = status.message();
    SendFrame(conn, err.Encode());
    return;
  }
  PreparedFrame ok;
  ok.handle = conn->next_handle++;
  ok.slots = static_cast<uint32_t>(prepared->slot_count());
  conn->handles[ok.handle] = std::move(prepared);
  SendFrame(conn, ok.Encode());
}

void NetServer::HandleStream(Conn* conn, const Frame& frame) {
  StreamFrame stream;
  const Status parsed = stream.Parse(frame.payload);
  if (!parsed.ok()) {
    frame_errors_->Increment();
    FailConnection(conn, parsed);
    return;
  }
  const uint64_t key = DocKey(stream.handle, stream.doc_id);
  auto it = conn->docs.find(key);
  if (it == conn->docs.end()) {
    // First frame of a new document: admission control.  A refusal creates
    // a terminal entry that swallows the rest of the document's frames (the
    // terminal ERROR is sent exactly once, here).
    if (conn->docs.size() >= 4 * (options_.max_docs_per_connection + 1)) {
      // Even terminal entries cost memory; a client churning refused or
      // failed documents without ever ending them is hostile.
      FailConnection(conn,
                     Status::ResourceExhausted("too many open documents"));
      return;
    }
    Doc doc;
    doc.handle = stream.handle;
    doc.doc_id = stream.doc_id;
    doc.first_stream_us = NowUs();
    ErrorFrame refusal;
    refusal.doc_id = stream.doc_id;
    auto handle_it = conn->handles.find(stream.handle);
    if (handle_it == conn->handles.end()) {
      refusal.code = StatusCode::kInvalidArgument;
      refusal.message = "unknown handle " + std::to_string(stream.handle);
    } else if (drain_.load(std::memory_order_acquire)) {
      refusal.code = StatusCode::kUnavailable;
      refusal.retry_after_ms = options_.retry_after_ms;
      refusal.message = "server draining";
      shed_draining_->Increment();
    } else if (docs_in_flight_ >= options_.max_docs_in_flight) {
      refusal.code = StatusCode::kUnavailable;
      refusal.retry_after_ms = options_.retry_after_ms;
      refusal.message = "document limit reached, retry later";
      shed_docs_->Increment();
    } else if (conn->live_docs >= options_.max_docs_per_connection) {
      refusal.code = StatusCode::kResourceExhausted;
      refusal.message = "per-connection document limit reached";
      shed_docs_->Increment();
    } else {
      // Admitted.  The ready callback holds the wake pipe, not the server:
      // the session may be sealed after the server is gone.
      doc.session = pool_->OpenSession(handle_it->second);
      doc.session->SetReadyCallback([wake = wake_] { wake->Wake(); });
      ++docs_in_flight_;
      ++conn->live_docs;
      if (directory_ != nullptr) {
        directory_->Register(doc.session, options_.session_limits);
      }
    }
    if (doc.session == nullptr) {
      doc.terminal = true;
      CountDocTerminal(refusal.code);
      SendFrame(conn, refusal.Encode());
    }
    it = conn->docs.emplace(key, std::move(doc)).first;
  }
  Doc* doc = &it->second;
  if (doc->terminal || doc->closed) return;  // terminal decided; swallow
  doc->session->FeedBytes(std::string(stream.chunk));
}

void NetServer::HandleEndDoc(Conn* conn, const Frame& frame) {
  EndDocFrame end;
  const Status parsed = end.Parse(frame.payload);
  if (!parsed.ok()) {
    frame_errors_->Increment();
    FailConnection(conn, parsed);
    return;
  }
  const uint64_t key = DocKey(end.handle, end.doc_id);
  auto it = conn->docs.find(key);
  if (it == conn->docs.end()) {
    // END_DOC without a prior STREAM: a zero-chunk document.  Run it
    // through the same admission by synthesizing an empty STREAM frame.
    StreamFrame empty;
    empty.handle = end.handle;
    empty.doc_id = end.doc_id;
    std::string payload_frame = empty.Encode();
    Frame synthesized;
    synthesized.type = FrameType::kStream;
    synthesized.payload = std::string_view(payload_frame)
                              .substr(kFrameHeaderBytes);
    HandleStream(conn, synthesized);
    it = conn->docs.find(key);
    if (it == conn->docs.end()) return;  // connection failed during admission
  }
  Doc* doc = &it->second;
  doc->end_received = true;
  if (doc->terminal) {
    // END_DOC is the last frame of a document whose terminal frame was
    // already sent (shed, or failed mid-stream), so the entry can go.
    conn->docs.erase(it);
    return;
  }
  if (doc->closed) return;  // aborted; the terminal frame retires the entry
  doc->session->Close();    // the worker finishes the parse
  doc->closed = true;
}

void NetServer::FailConnection(Conn* conn, const Status& status) {
  if (conn->fd < 0 || conn->closing) return;
  ErrorFrame err;
  err.doc_id = 0;
  err.code = status.code();
  err.message = status.message();
  if (status.code() == StatusCode::kUnavailable) {
    err.retry_after_ms = options_.retry_after_ms;
  }
  SendFrame(conn, err.Encode());
  conn->closing = true;
}

void NetServer::SendFrame(Conn* conn, const std::string& frame) {
  if (conn->fd < 0) return;
  frames_out_->Increment();
  conn->out += frame;
}

bool NetServer::FlushWrites(Conn* conn, int64_t now_ms) {
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n = send(conn->fd, conn->out.data() + conn->out_pos,
                           conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      bytes_out_->Increment(n);
      conn->last_activity_ms = now_ms;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn, Status::Cancelled("connection reset during write"));
    return false;
  }
  // Compact once the sent prefix dominates, so appends stay amortized O(1).
  if (conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
  } else if (conn->out_pos > conn->out.size() / 2) {
    conn->out.erase(0, conn->out_pos);
    conn->out_pos = 0;
  }
  return true;
}

void NetServer::PumpResults(Conn* conn) {
  for (auto it = conn->docs.begin(); it != conn->docs.end();) {
    Doc& doc = it->second;
    if (doc.terminal) {
      ++it;
      continue;
    }
    fragments_.clear();
    const bool sealed = doc.session->TakeFragments(&fragments_);
    for (const StreamSession::Fragment& fragment : fragments_) {
      ResultFrame rf;
      rf.doc_id = doc.doc_id;
      rf.slot = static_cast<uint32_t>(fragment.slot);
      rf.certain = fragment.certain ? 1 : 0;
      rf.fragment = fragment.xml;
      if (conn->fd >= 0) {  // SendFrame, encoded in place
        frames_out_->Increment();
        rf.EncodeTo(&conn->out);
      }
      if (doc.results_sent++ == 0) {
        ttfr_us_->Observe(NowUs() - doc.first_stream_us);
      }
      doc.certain_sent += rf.certain;
      // A worker can hand off several input chunks' results at once: move
      // them into the socket as the buffer fills, so the buffer holds about
      // one chunk's worth instead of the whole backlog.  A dead peer closes
      // the connection, which drops every doc: stop here.
      if (conn->out_bytes() >= kPumpFlushBytes &&
          !FlushWrites(conn, NowMs())) {
        return;
      }
    }
    if (!sealed) {
      ++it;
      continue;
    }
    // The terminal frame counts exactly the RESULT frames sent.
    const Status& status = doc.session->status();
    if (status.ok()) {
      DocDoneFrame done;
      done.doc_id = doc.doc_id;
      done.certain = doc.certain_sent;
      done.total = doc.results_sent;
      SendFrame(conn, done.Encode());
    } else {
      ErrorFrame err;
      err.doc_id = doc.doc_id;
      err.code = status.code();
      err.certain = doc.certain_sent;
      err.total = doc.results_sent;
      err.message = status.message();
      if (status.code() == StatusCode::kUnavailable) {
        err.retry_after_ms = options_.retry_after_ms;
      }
      SendFrame(conn, err.Encode());
    }
    CountDocTerminal(status.code());
    doc_latency_us_->Observe(NowUs() - doc.first_stream_us);
    --docs_in_flight_;
    --conn->live_docs;
    doc.session.reset();
    doc.terminal = true;
    // A document sealed mid-stream keeps its entry until END_DOC, so the
    // rest of its frames are swallowed instead of opening a new document.
    if (doc.end_received) {
      it = conn->docs.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::EnforceDeadlines(Conn* conn, int64_t now_ms) {
  if (options_.doc_deadline_ms > 0) {
    for (auto& [key, doc] : conn->docs) {
      (void)key;
      if (doc.closed || doc.terminal) continue;
      if (now_ms - doc.first_stream_us / 1000 > options_.doc_deadline_ms) {
        timeouts_doc_->Increment();
        AbortDoc(&doc, Status::DeadlineExceeded(
                           "document exceeded deadline of " +
                           std::to_string(options_.doc_deadline_ms) + "ms"));
      }
    }
  }
  if (options_.idle_timeout_ms > 0 &&
      now_ms - conn->last_activity_ms > options_.idle_timeout_ms) {
    // Slow-loris / stuck-writer defense: no progress in either direction.
    // Best-effort goodbye, one flush attempt, then the connection dies now —
    // a peer that is not reading cannot postpone its own teardown.
    timeouts_idle_->Increment();
    ErrorFrame err;
    err.code = StatusCode::kDeadlineExceeded;
    err.message = "idle timeout";
    SendFrame(conn, err.Encode());
    FlushWrites(conn, now_ms);
    if (conn->fd >= 0) {
      CloseConn(conn, Status::DeadlineExceeded("idle timeout"));
    }
  }
}

void NetServer::BeginDrain(int64_t now_ms) {
  drains_->Increment();
  drain_started_ms_ = now_ms;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& conn : conns_) {
    if (conn->fd < 0) continue;
    SendFrame(conn.get(), EncodeFrame(FrameType::kDrain, ""));
    // Documents whose END_DOC already arrived finish normally and their
    // results flush; documents still mid-stream are cut — with structured
    // terminal frames carrying their certain partial counts.
    for (auto& [key, doc] : conn->docs) {
      (void)key;
      AbortDoc(&doc, Status::Cancelled("server draining"));
    }
  }
}

void NetServer::AbortDoc(Doc* doc, const Status& status) {
  if (doc->closed || doc->terminal) return;
  // The worker seals what it already parsed (every event before the cut)
  // without finishing the parse.
  doc->session->Abort(status);
  doc->closed = true;
}

void NetServer::CountDocTerminal(StatusCode code) {
  const int index = static_cast<int>(code);
  if (index >= 0 && index < kStatusCodeCount) {
    docs_by_status_[index]->Increment();
  }
}

}  // namespace net
}  // namespace spex
