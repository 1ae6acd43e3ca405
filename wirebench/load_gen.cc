#include "load_gen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <random>

#include "net/wire_protocol.h"
#include "obs/http_exposition.h"

namespace wirebench {
namespace {

using spex::net::Frame;
using spex::net::FrameType;

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// One client connection and the document it has in flight.
struct Conn {
  int fd = -1;
  spex::net::FrameDecoder decoder;
  uint32_t handle = 0;
  uint32_t next_doc_id = 1;
  int warmup_left = 0;

  double start_at = -1;  // >= 0: the next document starts then
  bool active = false;   // a document is in flight
  std::string out;      // its encoded STREAM frames + END_DOC
  size_t out_pos = 0;
  size_t record = 0;  // index into WireResult::docs
  int corpus_index = 0;
  uint32_t doc_id = 0;
  std::unique_ptr<ResultDigest> digest;
  int64_t frames_in = 0;
  int64_t bytes_in = 0;
  int64_t result_frames = 0;
  int64_t results_before_end = 0;

  ~Conn() {
    if (fd >= 0) close(fd);
  }
};

int Connect(uint16_t port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    if (fd >= 0) close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t pos = 0;
  while (pos < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + pos, bytes.size() - pos, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    pos += static_cast<size_t>(n);
  }
  return true;
}

// Blocking read of the next frame during the handshake; copies the payload.
bool ReadFrame(Conn* c, FrameType* type, std::string* payload) {
  for (;;) {
    Frame frame;
    if (c->decoder.Next(&frame)) {
      *type = frame.type;
      payload->assign(frame.payload);
      return true;
    }
    if (!c->decoder.status().ok()) return false;
    pollfd pfd{c->fd, POLLIN, 0};
    if (poll(&pfd, 1, 30000) <= 0) return false;
    char buf[65536];
    const ssize_t n = recv(c->fd, buf, sizeof buf, 0);
    if (n <= 0) return false;
    c->decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
  }
}

// HELLO → WELCOME, PREPARE → PREPARED.  Returns "" or the failure.
std::string Handshake(Conn* c, const Corpus& corpus, uint32_t* slots) {
  spex::net::HelloFrame hello;
  hello.client_name = "wirebench";
  spex::net::PrepareFrame prepare;
  prepare.kind = corpus.population ? spex::net::PrepareFrame::kPopulation
                                   : spex::net::PrepareFrame::kQuery;
  prepare.text = corpus.prepare_text;
  FrameType type;
  std::string payload;
  if (!SendAll(c->fd, hello.Encode()) || !ReadFrame(c, &type, &payload) ||
      type != FrameType::kWelcome) {
    return "HELLO not answered with WELCOME";
  }
  if (!SendAll(c->fd, prepare.Encode()) || !ReadFrame(c, &type, &payload)) {
    return "PREPARE not answered";
  }
  spex::net::PreparedFrame prepared;
  if (type != FrameType::kPrepared || !prepared.Parse(payload).ok()) {
    spex::net::ErrorFrame err;
    if (type == FrameType::kError && err.Parse(payload).ok()) {
      return "PREPARE refused: " + err.message;
    }
    return "PREPARE answered with an unexpected frame";
  }
  c->handle = prepared.handle;
  *slots = prepared.slots;
  return "";
}

class Generator {
 public:
  Generator(const Corpus& corpus, const WireOptions& options,
            WireResult* result)
      : corpus_(corpus), options_(options), r_(*result), rng_(options.seed) {}

  void Run() {
    for (int setup = 0; setup < kSetups; ++setup) {
      const bool last = setup + 1 == kSetups;
      const double start = Now();
      if (!SetUp()) return;
      window_ = false;
      for (auto& c : conns_) {
        c->warmup_left = kWarmupDocs;
        StartNext(c.get());
      }
      Loop();
      if (!r_.fatal.empty()) return;
      r_.setup_s.push_back(Now() - start);
      if (last) break;
      conns_.clear();
      if (server_.Stop() != 0) {
        r_.fatal = "spexserve did not drain and exit 0: " + server_.log_tail();
        return;
      }
    }

    // The timed window, on the last set-up's server and connections.
    if (options_.admin) r_.metrics_t0 = ScrapeMetrics();
    window_ = true;
    r_.t0 = Now();
    r_.t1 = r_.t0 + options_.window_s;
    cpu0_ = server_.ProcessCpuMs();
    threads0_ = server_.ThreadCpuMs();
    gen0_ = ThreadCpuMs();
    for (auto& c : conns_) StartNext(c.get());
    Loop();
    if (!r_.fatal.empty()) return;
    r_.peak_rss_mb = server_.PeakRssMb();
    conns_.clear();
    if (server_.Stop() != 0) {
      r_.fatal = "spexserve did not drain and exit 0: " + server_.log_tail();
    }
  }

 private:
  bool SetUp() {
    std::string error;
    if (!server_.Start(options_.server_binary, ServerArgs(options_.admin),
                       options_.admin, 30000, &error)) {
      r_.fatal = error;
      return false;
    }
    for (int i = 0; i < kConnections; ++i) {
      auto c = std::make_unique<Conn>();
      c->fd = Connect(server_.port(), &error);
      if (c->fd < 0) {
        r_.fatal = error;
        return false;
      }
      uint32_t slots = 0;
      error = Handshake(c.get(), corpus_, &slots);
      if (!error.empty()) {
        r_.fatal = error;
        return false;
      }
      if (slots != static_cast<uint32_t>(corpus_.slots)) {
        r_.fatal = "PREPARED reports " + std::to_string(slots) +
                   " slots, the local template has " +
                   std::to_string(corpus_.slots);
        return false;
      }
      fcntl(c->fd, F_SETFL, fcntl(c->fd, F_GETFL) | O_NONBLOCK);
      // Wake for 64 KiB of results at a time instead of for every segment
      // the server sends; the 1 ms poll tick while a document is in flight
      // picks up anything smaller.  Thousands of cross-CPU wake-ups per
      // document otherwise make the run's speed depend on the hypervisor.
      const int lowat = 64 * 1024;
      setsockopt(c->fd, SOL_SOCKET, SO_RCVLOWAT, &lowat, sizeof lowat);
      conns_.push_back(std::move(c));
    }
    return true;
  }

  // The window's closing edge: CPU counters and the admin scrape.
  void SampleT1() {
    sampled_t1_ = true;
    r_.server_cpu_ms = server_.ProcessCpuMs() - cpu0_;
    r_.generator_cpu_ms = ThreadCpuMs() - gen0_;
    std::map<int, double> before;
    for (const ThreadCpu& t : threads0_) before[t.tid] = t.cpu_ms;
    for (ThreadCpu t : server_.ThreadCpuMs()) {
      t.cpu_ms -= before[t.tid];
      r_.thread_cpu.push_back(t);
    }
    std::sort(r_.thread_cpu.begin(), r_.thread_cpu.end(),
              [](const ThreadCpu& a, const ThreadCpu& b) {
                return a.tid < b.tid;
              });
    if (options_.admin) r_.metrics_t1 = ScrapeMetrics();
  }

  // The admin plane's /metrics.json, or "" when the scrape failed.
  std::string ScrapeMetrics() const {
    int status = 0;
    std::string body;
    if (!spex::obs::HttpGet(server_.admin_port(), "/metrics.json", &status,
                            &body) ||
        status != 200) {
      return "";
    }
    return body;
  }

  // Schedules the connection's next document, if the phase allows one.
  // In the window it follows a think time drawn uniformly from
  // [0, kThinkMs): without it both connections fall into step with the
  // server's 15 ms poll tick, which notices finished sessions, and every
  // latency snaps to that grid.  Set-up has no think time, so none of its
  // randomness lands in setup_s.
  void StartNext(Conn* c) {
    if (window_) {
      c->start_at = Now() + think_(rng_);
    } else if (c->warmup_left > 0) {
      --c->warmup_left;
      c->start_at = Now();
    }
  }

  // Starts the scheduled document; in the window only before t1.
  void Begin(Conn* c) {
    c->start_at = -1;
    if (window_ && Now() >= r_.t1) return;
    c->corpus_index = static_cast<int>(next_doc_++ % corpus_.docs.size());
    const std::string& xml = corpus_.docs[static_cast<size_t>(c->corpus_index)];
    c->doc_id = c->next_doc_id++;
    c->out.clear();
    c->out_pos = 0;
    for (size_t off = 0; off < xml.size(); off += kChunkBytes) {
      spex::net::StreamFrame stream;
      stream.handle = c->handle;
      stream.doc_id = c->doc_id;
      stream.chunk = std::string_view(xml).substr(off, kChunkBytes);
      c->out += stream.Encode();
    }
    spex::net::EndDocFrame end;
    end.handle = c->handle;
    end.doc_id = c->doc_id;
    c->out += end.Encode();
    c->digest =
        std::make_unique<ResultDigest>(static_cast<size_t>(corpus_.slots));
    c->frames_in = c->bytes_in = c->result_frames = c->results_before_end = 0;
    c->active = true;
    DocRecord rec;
    rec.warmup = !window_;
    rec.start_s = Now();
    c->record = r_.docs.size();
    r_.docs.push_back(rec);
    Write(c);
  }

  void Write(Conn* c) {
    while (c->out_pos < c->out.size()) {
      const ssize_t n = send(c->fd, c->out.data() + c->out_pos,
                             c->out.size() - c->out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      r_.fatal = std::string("send: ") + std::strerror(errno);
      return;
    }
  }

  void Read(Conn* c) {
    char buf[65536];
    for (;;) {
      const ssize_t n = recv(c->fd, buf, sizeof buf, 0);
      if (n > 0) {
        c->decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
        Frame frame;
        while (r_.fatal.empty() && c->decoder.Next(&frame)) OnFrame(c, frame);
        if (!c->decoder.status().ok()) {
          r_.fatal =
              "undecodable server bytes: " + c->decoder.status().message();
        }
        if (!r_.fatal.empty()) return;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      r_.fatal = "server closed the connection";
      return;
    }
  }

  void OnFrame(Conn* c, const Frame& frame) {
    const double now = Now();
    if (!c->active) {
      spex::net::ErrorFrame err;
      r_.fatal =
          std::string("unsolicited ") + spex::net::FrameTypeName(frame.type);
      if (frame.type == FrameType::kError && err.Parse(frame.payload).ok()) {
        r_.fatal += ": " + err.message;
      }
      return;
    }
    ++c->frames_in;
    c->bytes_in += static_cast<int64_t>(spex::net::kFrameHeaderBytes +
                                        frame.payload.size());
    DocRecord& rec = r_.docs[c->record];
    switch (frame.type) {
      case FrameType::kResult: {
        spex::net::ResultFrame result;
        if (!result.Parse(frame.payload).ok() || result.doc_id != c->doc_id) {
          r_.fatal = "RESULT frame for the wrong document";
          return;
        }
        if (rec.first_result_s < 0) rec.first_result_s = now;
        ++c->result_frames;
        if (c->out_pos < c->out.size()) ++c->results_before_end;
        c->digest->Add(result.slot, result.fragment);
        return;
      }
      case FrameType::kDocDone: {
        spex::net::DocDoneFrame done;
        if (!done.Parse(frame.payload).ok() || done.doc_id != c->doc_id) {
          r_.fatal = "DOC_DONE for the wrong document";
          return;
        }
        const Expected& want =
            corpus_.expected[static_cast<size_t>(c->corpus_index)];
        Finish(c, now,
               CheckDocument(want, *c->digest, true, done.certain, done.total));
        return;
      }
      case FrameType::kError: {
        spex::net::ErrorFrame err;
        if (!err.Parse(frame.payload).ok() || err.doc_id != c->doc_id) {
          r_.fatal = "connection-level ERROR: " + err.message;
          return;
        }
        Finish(c, now, std::string("ERROR frame: ") +
                           spex::StatusCodeName(err.code) + " " + err.message);
        return;
      }
      default:
        r_.fatal =
            std::string("unexpected ") + spex::net::FrameTypeName(frame.type);
        return;
    }
  }

  void Finish(Conn* c, double now, const std::string& failure) {
    if (c->out_pos < c->out.size()) {
      r_.fatal =
          "terminal frame before the document was fully sent: " + failure;
      return;
    }
    DocRecord& rec = r_.docs[c->record];
    rec.end_s = now;
    rec.ok = failure.empty();
    c->active = false;
    if (!rec.ok && r_.failures.size() < 5) {
      r_.failures.push_back("doc " + std::to_string(c->corpus_index) + ": " +
                            failure);
    }
    if (!rec.warmup) {
      r_.frames_in += c->frames_in;
      r_.bytes_in += c->bytes_in;
      r_.result_frames += c->result_frames;
      r_.results_before_end += c->results_before_end;
    }
    StartNext(c);
  }

  // Polls until every connection is idle (warm-up done, or window over and
  // the in-flight documents finished).
  void Loop() {
    const double deadline =
        (window_ ? r_.t1 : Now()) + kStuckSeconds;
    std::vector<pollfd> pfds;
    while (r_.fatal.empty()) {
      double now = Now();
      if (window_ && !sampled_t1_ && now >= r_.t1) SampleT1();
      bool busy = false;
      bool in_flight = false;
      double next_start = now + 0.05;
      pfds.clear();
      for (auto& c : conns_) {
        if (c->start_at >= 0 && now >= c->start_at) Begin(c.get());
        if (c->start_at >= 0) next_start = std::min(next_start, c->start_at);
        busy = busy || c->active || c->start_at >= 0;
        in_flight = in_flight || c->active;
        short events = POLLIN;
        if (c->active && c->out_pos < c->out.size()) events |= POLLOUT;
        pfds.push_back({c->fd, events, 0});
      }
      if (!busy && (!window_ || sampled_t1_)) return;
      if (now > deadline) {
        r_.fatal = "documents stuck for " + std::to_string(kStuckSeconds) +
                   " s: " + server_.log_tail();
        return;
      }
      pfds.push_back({server_.log_fd(), POLLIN, 0});
      if (window_ && !sampled_t1_) next_start = std::min(next_start, r_.t1);
      const int timeout_ms =
          std::clamp(static_cast<int>((next_start - now) * 1e3) + 1, 0,
                     in_flight ? 1 : 50);
      poll(pfds.data(), pfds.size(), timeout_ms);
      if (pfds.back().revents & (POLLHUP | POLLERR)) {
        server_.DrainLog();
        r_.fatal = "spexserve exited mid-run: " + server_.log_tail();
        return;
      }
      if (pfds.back().revents & POLLIN) server_.DrainLog();
      for (size_t i = 0; i < conns_.size() && r_.fatal.empty(); ++i) {
        const short re = pfds[i].revents;
        if (re & POLLOUT) Write(conns_[i].get());
        // Under SO_RCVLOWAT a short tail of results never raises POLLIN:
        // read in-flight connections on every tick.
        if ((re & (POLLIN | POLLHUP | POLLERR)) || conns_[i]->active) {
          Read(conns_[i].get());
        }
      }
    }
  }

  static constexpr double kStuckSeconds = 60;

  const Corpus& corpus_;
  const WireOptions& options_;
  WireResult& r_;
  ServerProcess server_;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool window_ = false;
  uint64_t next_doc_ = 0;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> think_{0.0, kThinkMs / 1e3};
  bool sampled_t1_ = false;
  double cpu0_ = 0;
  double gen0_ = 0;
  std::vector<ThreadCpu> threads0_;
};

}  // namespace

std::vector<std::string> ServerArgs(bool admin) {
  std::vector<std::string> args = {
      "--port=0", "--threads=" + std::to_string(kServerThreads)};
  if (admin) args.push_back("--admin-port=0");
  return args;
}

WireResult RunWire(const Corpus& corpus, const WireOptions& options) {
  WireResult result;
  Generator(corpus, options, &result).Run();
  return result;
}

}  // namespace wirebench
