#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace spex {
namespace net {
namespace {

void SetIoTimeout(int fd, int64_t ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// The document a server frame belongs to: RESULT, DOC_DONE and a
// document-scoped ERROR name one.  Other frames (and payloads that do not
// parse) belong to whoever reads them next.
bool FrameDocId(const OwnedFrame& frame, uint32_t* doc_id) {
  switch (frame.type) {
    case FrameType::kResult: {
      ResultFrame rf;
      if (!rf.Parse(frame.payload).ok()) return false;
      *doc_id = rf.doc_id;
      return true;
    }
    case FrameType::kDocDone: {
      DocDoneFrame done;
      if (!done.Parse(frame.payload).ok()) return false;
      *doc_id = done.doc_id;
      return true;
    }
    case FrameType::kError: {
      ErrorFrame err;
      if (!err.Parse(frame.payload).ok() || err.doc_id == 0) return false;
      *doc_id = err.doc_id;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

SpexClient::SpexClient(ClientOptions options)
    : options_(std::move(options)), decoder_(options_.max_frame_bytes) {}

SpexClient::~SpexClient() { Close(); }

Status SpexClient::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status err =
        Status::Unavailable("connect: " + std::string(strerror(errno)));
    Close();
    return err;
  }
  SetIoTimeout(fd_, options_.io_timeout_ms);
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  decoder_.Reset();
  pending_.clear();
  drain_received_ = false;

  HelloFrame hello;
  hello.client_name = options_.client_name;
  Status sent = SendRaw(hello.Encode());
  if (!sent.ok()) return sent;
  OwnedFrame frame;
  Status got = ReadSignificantFrame(&frame);
  if (!got.ok()) return got;
  if (frame.type == FrameType::kError) {
    ErrorFrame err;
    if (err.Parse(frame.payload).ok()) {
      Close();
      return Status(err.code, err.message);
    }
  }
  if (frame.type != FrameType::kWelcome) {
    Close();
    return Status::FailedPrecondition(
        std::string("expected WELCOME, got ") + FrameTypeName(frame.type));
  }
  WelcomeFrame welcome;
  Status parsed = welcome.Parse(frame.payload);
  if (!parsed.ok()) {
    Close();
    return parsed;
  }
  version_ = welcome.version;
  server_max_frame_ = welcome.max_frame_bytes;
  return Status::Ok();
}

void SpexClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  pending_.clear();
  version_ = 0;
  server_max_frame_ = 0;
}

Status SpexClient::Prepare(const std::string& text, uint8_t kind,
                           uint32_t* handle, uint32_t* slots) {
  PrepareFrame prepare;
  prepare.kind = kind;
  prepare.text = text;
  Status sent = SendRaw(prepare.Encode());
  if (!sent.ok()) return sent;
  OwnedFrame frame;
  Status got = ReadSignificantFrame(&frame);
  if (!got.ok()) return got;
  if (frame.type == FrameType::kError) {
    ErrorFrame err;
    Status parsed = err.Parse(frame.payload);
    if (!parsed.ok()) return parsed;
    return Status(err.code, err.message);
  }
  if (frame.type != FrameType::kPrepared) {
    return Status::FailedPrecondition(
        std::string("expected PREPARED, got ") + FrameTypeName(frame.type));
  }
  PreparedFrame prepared;
  Status parsed = prepared.Parse(frame.payload);
  if (!parsed.ok()) return parsed;
  *handle = prepared.handle;
  if (slots != nullptr) *slots = prepared.slots;
  return Status::Ok();
}

DocOutcome SpexClient::StreamDocument(uint32_t handle, uint32_t doc_id,
                                      const std::string& document) {
  DocOutcome out;
  size_t offset = 0;
  do {
    const size_t len =
        std::min(options_.chunk_bytes, document.size() - offset);
    out.status = SendChunk(handle, doc_id,
                           std::string_view(document).substr(offset, len));
    if (!out.status.ok()) return out;
    offset += len;
  } while (offset < document.size());
  out.status = SendEndDoc(handle, doc_id);
  if (!out.status.ok()) return out;
  return Collect(doc_id);
}

Status SpexClient::SendChunk(uint32_t handle, uint32_t doc_id,
                             std::string_view chunk) {
  StreamFrame stream;
  stream.handle = handle;
  stream.doc_id = doc_id;
  stream.chunk = chunk;
  return SendWhileReading(stream.Encode());
}

Status SpexClient::SendEndDoc(uint32_t handle, uint32_t doc_id) {
  EndDocFrame end;
  end.handle = handle;
  end.doc_id = doc_id;
  return SendWhileReading(end.Encode());
}

DocOutcome SpexClient::Collect(uint32_t doc_id) {
  DocOutcome out;
  for (auto it = pending_.begin(); it != pending_.end();) {
    uint32_t owner = 0;
    if (FrameDocId(*it, &owner) && owner != doc_id) {
      ++it;
      continue;
    }
    const OwnedFrame frame = std::move(*it);
    it = pending_.erase(it);
    if (Absorb(frame, &out)) return out;
  }
  for (;;) {
    OwnedFrame frame;
    out.status = ReadWireFrame(&frame);
    if (!out.status.ok()) return out;
    uint32_t owner = 0;
    if (FrameDocId(frame, &owner) && owner != doc_id) {
      pending_.push_back(std::move(frame));  // another document's
      continue;
    }
    if (Absorb(frame, &out)) return out;
  }
}

bool SpexClient::Absorb(const OwnedFrame& frame, DocOutcome* out) {
  switch (frame.type) {
    case FrameType::kDrain:
      drain_received_ = true;
      return false;
    case FrameType::kPong:
      return false;
    case FrameType::kResult: {
      ResultFrame rf;
      out->status = rf.Parse(frame.payload);
      if (!out->status.ok()) return true;
      ClientResult r;
      r.slot = rf.slot;
      r.certain = rf.certain != 0;
      r.fragment = std::string(rf.fragment);
      out->results.push_back(std::move(r));
      return false;
    }
    case FrameType::kDocDone: {
      DocDoneFrame done;
      out->status = done.Parse(frame.payload);
      if (!out->status.ok()) return true;
      out->certain = done.certain;
      out->total = done.total;
      out->terminal_frame = true;
      return true;
    }
    case FrameType::kError: {
      ErrorFrame err;
      out->status = err.Parse(frame.payload);
      if (!out->status.ok()) return true;
      out->certain = err.certain;
      out->total = err.total;
      out->retry_after_ms = err.retry_after_ms;
      out->terminal_frame = true;
      out->status = Status(err.code, err.message);
      return true;
    }
    default:
      out->status = Status::FailedPrecondition(
          std::string("unexpected frame ") + FrameTypeName(frame.type));
      return true;
  }
}

Status SpexClient::Ping(const std::string& payload) {
  Status sent = SendRaw(EncodeFrame(FrameType::kPing, payload));
  if (!sent.ok()) return sent;
  OwnedFrame frame;
  for (;;) {
    Status got = ReadFrame(&frame);
    if (!got.ok()) return got;
    if (frame.type == FrameType::kDrain) {
      drain_received_ = true;
      continue;
    }
    if (frame.type != FrameType::kPong) {
      return Status::FailedPrecondition(
          std::string("expected PONG, got ") + FrameTypeName(frame.type));
    }
    if (frame.payload != payload) {
      return Status::Internal("PONG payload mismatch");
    }
    return Status::Ok();
  }
}

Status SpexClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("send timed out");
    }
    return Status::Cancelled("connection closed during send: " +
                             std::string(strerror(errno)));
  }
  return Status::Ok();
}

Status SpexClient::SendWhileReading(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const int timeout_ms = options_.io_timeout_ms > 0
                             ? static_cast<int>(options_.io_timeout_ms)
                             : -1;
  bool read_closed = false;  // EOF or a read error: the send decides
  size_t sent = 0;
  while (sent < bytes.size()) {
    pollfd pfd{fd_, static_cast<short>(POLLOUT | (read_closed ? 0 : POLLIN)),
               0};
    const int ready = poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Cancelled("poll: " + std::string(strerror(errno)));
    }
    if (ready == 0) return Status::DeadlineExceeded("send timed out");
    if (!read_closed && (pfd.revents & POLLIN)) {
      char buf[64 * 1024];
      const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        Status appended =
            decoder_.Append(std::string_view(buf, static_cast<size_t>(n)));
        if (!appended.ok()) return appended;
        Frame view;
        while (decoder_.Next(&view)) {
          if (view.type == FrameType::kDrain) {
            drain_received_ = true;
          } else if (view.type != FrameType::kPong) {
            pending_.push_back(
                OwnedFrame{view.type, std::string(view.payload)});
          }
        }
        if (!decoder_.status().ok()) return decoder_.status();
      } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                            errno != EINTR)) {
        read_closed = true;
      }
    }
    if (pfd.revents & (POLLOUT | POLLERR | POLLHUP)) {
      const ssize_t n = send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        sent += static_cast<size_t>(n);
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return Status::Cancelled("connection closed during send: " +
                                 std::string(strerror(errno)));
      }
    }
  }
  return Status::Ok();
}

Status SpexClient::ReadFrame(OwnedFrame* frame) {
  if (!pending_.empty()) {
    *frame = std::move(pending_.front());
    pending_.pop_front();
    return Status::Ok();
  }
  return ReadWireFrame(frame);
}

Status SpexClient::ReadWireFrame(OwnedFrame* frame) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  Frame view;
  for (;;) {
    if (decoder_.Next(&view)) {
      frame->type = view.type;
      frame->payload = std::string(view.payload);
      return Status::Ok();
    }
    if (!decoder_.status().ok()) return decoder_.status();
    char buf[64 * 1024];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      Status appended =
          decoder_.Append(std::string_view(buf, static_cast<size_t>(n)));
      if (!appended.ok()) return appended;
      continue;
    }
    if (n == 0) return Status::Cancelled("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("read timed out");
    }
    return Status::Cancelled("connection reset: " +
                             std::string(strerror(errno)));
  }
}

Status SpexClient::ReadSignificantFrame(OwnedFrame* frame) {
  uint32_t owner = 0;
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (FrameDocId(*it, &owner)) continue;
    *frame = std::move(*it);
    pending_.erase(it);
    return Status::Ok();
  }
  for (;;) {
    Status got = ReadWireFrame(frame);
    if (!got.ok()) return got;
    if (frame->type == FrameType::kDrain) {
      drain_received_ = true;
      continue;
    }
    if (frame->type == FrameType::kPong) continue;
    if (FrameDocId(*frame, &owner)) {
      pending_.push_back(std::move(*frame));  // a document's, not a reply
      continue;
    }
    return Status::Ok();
  }
}

}  // namespace net
}  // namespace spex
