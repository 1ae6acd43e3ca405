// spexserve — concurrent multi-document query server (DESIGN.md §9).
//
//   spexserve --queries=FILE [--threads=N] DIR
//   generator | spexserve --queries=FILE [--threads=N] --frames
//   spexserve --subscriptions=SUBDIR [--threads=N] DIR
//   spexserve --subscription-count=N [--threads=N] DIR
//
// Evaluates every query in FILE (rpeq syntax, one per line, '#' comments)
// against every document from the source, fanned out across an EnginePool:
// each (document, query) pair is one StreamSession pinned to a pool worker,
// compiled queries are shared through a CompiledQueryCache, and one parsed
// document fans out to all queries as a single shared event batch.
//
// Subscription mode (DESIGN.md §14): instead of per-(document, query)
// sessions, the whole query population becomes ONE standing
// MultiQueryTemplate — a CSE-merged shared DAG cached by canonical-set
// digest — and each document is one EnginePool subscription session
// evaluated against it.  Output routes each document to its matching query
// ids: one `<document>  sub#<slot>  <count>` line per slot with results.
//   --subscriptions=SUBDIR   population from every file in SUBDIR (same
//                            one-query-per-line format as --queries)
//   --subscription-count=N   deterministic generated population of N
//                            overlapping profile-style rpeqs
//
// Document sources:
//   DIR                 every regular file in the directory (sorted by name)
//   --frames[=FILE]     length-prefixed frame stream from FILE or stdin:
//                       each frame is a 4-byte little-endian uint32 payload
//                       length followed by that many bytes of XML.  A frame
//                       whose declared length exceeds --max-frame is refused
//                       with a structured ERROR(invalid_argument) line — the
//                       payload is skipped in bounded chunks, never
//                       allocated — and serving continues.
//   --port=P            TCP serving tier (DESIGN.md §15): listen on
//                       127.0.0.1:P (0 = ephemeral; the bound port is logged
//                       as msg="tcp serving tier listening" port=P) speaking
//                       the versioned wire protocol of src/net — HELLO,
//                       PREPARE (query or subscription population), chunked
//                       STREAM/END_DOC, incremental RESULT frames and
//                       structured ERROR frames with certain/speculative
//                       counts.  SIGTERM drains gracefully: stop accepting,
//                       DRAIN to every client, in-flight certain results
//                       flushed, then exit 0.  Drive it with spexclient.
//
// Flags:
//   --threads=N         pool worker count (default 1)
//   --queue=N           per-worker queue bound, in batches (default 64)
//   --cache=N           compiled-query cache capacity (default 128)
//   --batch=N           split documents into batches of N events (default:
//                       one batch per document)
//   --print             print result fragments (default: counts only)
//   --metrics=json|prom dump the pool + cache metrics registry to stderr
//
// Telemetry plane (DESIGN.md §12):
//   --admin-port=P      serve /metrics, /metrics.json, /healthz, /sessions,
//                       /stats, /trace and /profile over HTTP on 127.0.0.1:P
//                       (0 = ephemeral; the bound port is logged as
//                       msg="admin plane listening" port=P).  After the
//                       input is drained the process keeps serving the
//                       admin plane until SIGTERM/SIGINT, then exits 0.
//   --log=text|json     structured log format on stderr (default text:
//                       logfmt `ts=... level=... msg="..." k=v`)
//   --log-level=LVL     debug|info|warn|error (default info)
//   --slow-ms=N         slow-query log: sessions whose feed-to-result time
//                       crosses N ms emit one structured msg="slow query"
//                       record (0 = off; runtime-mutable via
//                       /queries?slow_ms=N on the admin plane)
//   --slow-delay-ms=N   same, keyed on the estimated output-decision delay
//   --sampling=N        sampling profiler period: ~1/N delivery batches per
//                       session have their sweeps timed and fold node
//                       self-times into /queries attribution (default 256,
//                       0 = off)
//
// Robustness (DESIGN.md §10):
//   --max-depth=N       parser element-depth bound (default 10000, 0 = off)
//   --max-text=BYTES    parser token-size bound (default 16 MiB, 0 = off)
//   --max-buffered-bytes=N, --max-formula-bytes=N, --max-events=N,
//   --deadline-ms=N     per-session EngineLimits (default 0 = off)
//   --chaos=SEED        deterministic fault injection: seeded corruption /
//                       truncation / tiny limits / worker stalls per
//                       session (see runtime/fault_injector.h)
//   --chaos-rate=PCT    fraction of sessions faulted under --chaos
//                       (default 50)
//   --max-frame=BYTES   frame payload cap, for both --frames input and the
//                       TCP wire protocol (default 16 MiB)
//
// TCP tier tuning (with --port):
//   --idle-ms=N         per-connection idle timeout, slow-loris defense
//                       (default 30000; 0 = off)
//   --doc-deadline-ms=N per-document wall deadline (default 0 = off)
//   --max-conns=N       connection cap; beyond it new sockets are refused
//                       with kUnavailable + retry-after (default 1024)
//   --max-docs=N        global in-flight document cap; beyond it new
//                       documents are shed kUnavailable (default 256)
//   --drain-grace-ms=N  force-close window after SIGTERM (default 5000)
//
// A malformed or truncated document does NOT stop the server: its sessions
// are fed the parsed prefix and aborted with the parser's status, every
// other document keeps serving, and the affected sessions report a
// structured error line.
//
// Output: one line per (document, query) session, tab-separated:
//   <document>  <query>  <result count>                     (success)
//   <document>  <query>  ERROR(<code>)  certain=<n>/<m>  <message>
// in (document, query) submission order, plus structured summary log lines
// on stderr.  certain=n/m: of the m partial results harvested, the first n
// are exact (see SpexEngine::FinalizeTruncated).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/status.h"
#include "net/net_server.h"
#include "obs/log.h"
#include "runtime/admin_server.h"
#include "runtime/engine_pool.h"
#include "runtime/fault_injector.h"
#include "runtime/query_cache.h"
#include "spex/multi_query.h"
#include "xml/xml_parser.h"

namespace {

using spex::obs::LogError;
using spex::obs::LogInfo;
using spex::obs::LogWarn;

struct Options {
  std::string queries_file;
  // Subscription mode (exclusive with --queries): a directory of query
  // files, or a generated population size.
  std::string subscriptions_dir;
  int subscription_count = 0;
  bool subscription_mode() const {
    return !subscriptions_dir.empty() || subscription_count > 0;
  }
  std::string directory;    // document directory (exclusive with frames)
  bool frames = false;      // length-prefixed frame stream
  std::string frames_file;  // empty = stdin
  int threads = 1;
  size_t queue_capacity = 64;
  size_t cache_capacity = 128;
  size_t batch_events = 0;  // 0 = whole document in one batch
  // Events per delivery batch inside each session's engine (DESIGN.md §11);
  // 1 = legacy per-event delivery.  Distinct from --batch, which sizes the
  // pool's submission batches.
  int engine_batch = 64;
  bool print_results = false;
  std::string metrics_format;  // "", "json" or "prom"
  // Admin plane: serve HTTP telemetry on this port (-1 = disabled, 0 =
  // ephemeral) and linger after the input drains until SIGTERM/SIGINT.
  int admin_port = -1;
  // Slow-query thresholds (0 = off) and sampling-profiler period (0 = off).
  int64_t slow_ms = 0;
  int64_t slow_delay_ms = 0;
  int sampling_period = 256;
  // Parser bounds (max_depth, max_text_bytes; 0 = unlimited), for the
  // directory/frames parse and the TCP tier's worker-side parse alike.  The
  // defaults keep an adversarial document from exhausting the parser while
  // far exceeding anything a legitimate stream carries.
  spex::XmlParserOptions parser = [] {
    spex::XmlParserOptions bounds;
    bounds.max_depth = 10000;
    bounds.max_text_bytes = 16u << 20;
    return bounds;
  }();
  // Per-session engine limits (0 = off).
  spex::EngineLimits limits;
  // Deterministic chaos injection (--chaos=SEED).
  bool chaos = false;
  uint64_t chaos_seed = 0;
  int chaos_rate = 50;
  // Frame payload cap, shared by the --frames reader and the TCP decoder.
  size_t max_frame_bytes = spex::net::kDefaultMaxFrameBytes;
  // TCP serving tier (--port): -1 = disabled, 0 = ephemeral.
  int net_port = -1;
  int64_t net_idle_ms = 30000;
  int64_t net_doc_deadline_ms = 0;
  size_t net_max_connections = 1024;
  size_t net_max_docs = 256;
  int64_t net_drain_grace_ms = 5000;
};

int Usage() {
  std::fprintf(stderr,
               "usage: spexserve (--queries=FILE | --subscriptions=DIR |\n"
               "                  --subscription-count=N)\n"
               "                 [--threads=N] [--queue=N]\n"
               "                 [--cache=N] [--batch=N] [--batch-size=N] "
               "[--print]\n"
               "                 [--metrics=json|prom] [--admin-port=P]\n"
               "                 [--log=text|json] [--log-level=LVL]\n"
               "                 [--slow-ms=N] [--slow-delay-ms=N] "
               "[--sampling=N]\n"
               "                 [--max-depth=N] [--max-text=BYTES]\n"
               "                 [--max-buffered-bytes=N] [--max-formula-bytes=N]\n"
               "                 [--max-events=N] [--deadline-ms=N]\n"
               "                 [--chaos=SEED] [--chaos-rate=PCT]\n"
               "                 [--max-frame=BYTES]\n"
               "                 [--idle-ms=N] [--doc-deadline-ms=N]\n"
               "                 [--max-conns=N] [--max-docs=N]\n"
               "                 [--drain-grace-ms=N]\n"
               "                 (DIR | --frames[=FILE] | --port=P)\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::vector<std::string> LoadQueries(const std::string& path, bool* ok) {
  std::vector<std::string> queries;
  std::ifstream in(path);
  *ok = static_cast<bool>(in);
  std::string line;
  while (std::getline(in, line)) {
    const size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') continue;
    const size_t end = line.find_last_not_of(" \t\r");
    queries.push_back(line.substr(begin, end - begin + 1));
  }
  return queries;
}

// Deterministic generated subscription population for --subscription-count:
// overlapping profile-style rpeqs over a small news vocabulary, the same
// shape as bench/subscription_matching.cc.  Sharing is the point — most
// profiles share the `_*.item` spine and many share whole qualifier
// sandwiches, and exact duplicates collapse into one template slot.
std::vector<std::string> MakeSubscriptions(int n) {
  static const char* kSections[] = {"markets", "tech", "sport", "politics"};
  static const char* kFields[] = {"headline", "body", "author", "date"};
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string q = "_*.item";
    if (i % 3 == 1) q += "[" + std::string(kSections[i % 4]) + "]";
    if (i % 3 == 2) q += "[urgent]";
    q += "." + std::string(kFields[(i / 3) % 4]);
    if (i % 5 == 4) q += ".em";
    out.push_back(std::move(q));
  }
  return out;
}

// Reads one length-prefixed frame; false on clean EOF, aborts the run (via
// *error) on a truncated frame.  A frame whose declared length exceeds
// `max_frame` never allocates: the payload is skipped in bounded chunks and
// *refused carries the structured refusal (the caller reports an
// ERROR(invalid_argument) line and keeps serving).
bool ReadFrame(std::istream& in, size_t max_frame, std::string* payload,
               std::string* error, std::string* refused) {
  payload->clear();  // never leave a previous frame's bytes behind
  refused->clear();
  unsigned char header[4];
  in.read(reinterpret_cast<char*>(header), 4);
  if (in.gcount() == 0 && in.eof()) return false;
  if (in.gcount() != 4) {
    *error = "truncated frame header";
    return false;
  }
  const uint32_t length = static_cast<uint32_t>(header[0]) |
                          static_cast<uint32_t>(header[1]) << 8 |
                          static_cast<uint32_t>(header[2]) << 16 |
                          static_cast<uint32_t>(header[3]) << 24;
  if (max_frame > 0 && length > max_frame) {
    *refused = "frame length " + std::to_string(length) + " exceeds cap " +
               std::to_string(max_frame);
    char sink[64 * 1024];
    uint64_t remaining = length;
    while (remaining > 0) {
      in.read(sink, static_cast<std::streamsize>(
                        std::min<uint64_t>(remaining, sizeof(sink))));
      if (in.gcount() <= 0) {
        *error = *refused + ", then EOF inside the skipped payload";
        return false;
      }
      remaining -= static_cast<uint64_t>(in.gcount());
    }
    return true;  // frame refused but the stream is still framed: continue
  }
  payload->resize(length);
  in.read(payload->data(), static_cast<std::streamsize>(length));
  if (in.gcount() != static_cast<std::streamsize>(length)) {
    // Keep only what actually arrived: the caller evaluates the fragment
    // as a truncated document rather than zero-padded garbage.
    payload->resize(static_cast<size_t>(in.gcount()));
    *error = "truncated frame payload (wanted " + std::to_string(length) +
             " bytes, got " + std::to_string(payload->size()) + ")";
    return false;
  }
  return true;
}

struct PendingSession {
  std::string document;
  std::string query;
  std::shared_ptr<spex::StreamSession> session;  // null: rejected up front
  spex::Status rejected;  // non-OK when no session was opened
};

// Self-pipe shutdown handshake: the signal handler writes one byte, the
// linger loop in main() blocks on the read end.  Async-signal-safe.
int g_shutdown_pipe[2] = {-1, -1};

void HandleShutdownSignal(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = write(g_shutdown_pipe[1], &byte, 1);
}

class Server {
 public:
  explicit Server(const Options& options)
      : options_(options),
        cache_(options.cache_capacity),
        injector_(options.chaos_seed, options.chaos_rate),
        pool_([&] {
          spex::PoolOptions pool_options;
          pool_options.threads = options.threads;
          pool_options.queue_capacity = options.queue_capacity;
          pool_options.engine.limits = options.limits;
          pool_options.engine.batch_size = options.engine_batch;
          pool_options.sampling_period = options.sampling_period;
          pool_options.parser = options.parser;
          if (options.chaos) {
            // Seeded worker stalls: one deterministic draw per batch (the
            // corruption/truncation/limit faults are planned per session in
            // Dispatch; the stall schedule rides the batch counter).
            pool_options.before_batch =
                [this](int) {
                  const uint64_t n =
                      chaos_batches_.fetch_add(1, std::memory_order_relaxed);
                  spex::FaultInjector::MaybeStall(injector_.PlanForSession(n));
                };
          }
          return pool_options;
        }()) {
    cache_.RegisterCollectors(&pool_.metrics());
    spex::obs::Logger::Global().RegisterCollectors(&pool_.metrics());
    // Per-query observability is on regardless of the admin plane: the
    // slow-query log and flight dumps are structured log output, and the
    // registry is handed to the admin server (StartAdmin) so /queries and
    // /flight read the same aggregates.
    registry_.set_slow_ms(options.slow_ms);
    registry_.set_slow_delay_ms(options.slow_delay_ms);
    pool_.SetQueryRegistry(&registry_);
    if (options.chaos) {
      LogInfo("chaos injection on",
              {{"seed", static_cast<long long>(options.chaos_seed)},
               {"rate_pct", options.chaos_rate}});
    }
  }

  bool LoadQueries() {
    if (options_.subscription_mode()) return LoadSubscriptions();
    bool ok = false;
    queries_ = ::LoadQueries(options_.queries_file, &ok);
    if (!ok) {
      LogError("cannot read queries file", {{"file", options_.queries_file}});
      return false;
    }
    if (queries_.empty()) {
      LogError("no queries in file", {{"file", options_.queries_file}});
      return false;
    }
    // Fail fast on bad queries, before any document work.
    for (const std::string& q : queries_) {
      std::string error;
      if (cache_.Get(q, &error) == nullptr) {
        LogError("bad query", {{"query", q}, {"error", error}});
        return false;
      }
    }
    return true;
  }

  // Subscription mode: assemble the standing population and admit it as one
  // MultiQueryTemplate through the cache (digest-keyed, so re-serving the
  // same population — any order, any spelling — is a pure cache hit).
  bool LoadSubscriptions() {
    if (!options_.subscriptions_dir.empty()) {
      namespace fs = std::filesystem;
      std::error_code ec;
      std::vector<std::string> paths;
      for (const fs::directory_entry& entry :
           fs::directory_iterator(options_.subscriptions_dir, ec)) {
        if (entry.is_regular_file()) paths.push_back(entry.path().string());
      }
      if (ec) {
        LogError("cannot read subscriptions directory",
                 {{"directory", options_.subscriptions_dir},
                  {"error", ec.message()}});
        return false;
      }
      std::sort(paths.begin(), paths.end());
      for (const std::string& path : paths) {
        bool ok = false;
        std::vector<std::string> file_queries = ::LoadQueries(path, &ok);
        if (!ok) {
          LogError("cannot read subscription file", {{"file", path}});
          return false;
        }
        queries_.insert(queries_.end(), file_queries.begin(),
                        file_queries.end());
      }
      if (queries_.empty()) {
        LogError("no subscriptions in directory",
                 {{"directory", options_.subscriptions_dir}});
        return false;
      }
    } else {
      queries_ = MakeSubscriptions(options_.subscription_count);
    }
    spex::StatusOr<std::shared_ptr<const spex::MultiQueryTemplate>> built =
        cache_.GetMulti(queries_);
    if (!built.ok()) {
      LogError("bad subscription population",
               {{"status", spex::StatusCodeName(built.status().code())},
                {"error", built.status().message()}});
      return false;
    }
    multi_template_ = std::move(built).value();
    LogInfo("subscription population admitted",
            {{"subscriptions", static_cast<long long>(queries_.size())},
             {"slots", multi_template_->slot_count()},
             {"digest", multi_template_->digest()},
             {"shared_degree", multi_template_->shared_degree()},
             {"naive_degree", multi_template_->naive_degree()}});
    return true;
  }

  // Starts the telemetry plane before any documents are dispatched, so the
  // whole run is observable.  Fatal on socket failure: an operator who
  // asked for the admin plane should not silently run without it.
  bool StartAdmin(uint16_t port) {
    spex::AdminOptions admin_options;
    admin_options.http.port = port;
    admin_options.queries = &registry_;
    admin_ = std::make_unique<spex::AdminServer>(&pool_, admin_options);
    std::string error;
    if (!admin_->Start(&error)) {
      LogError("admin plane failed to start", {{"error", error}});
      return false;
    }
    LogInfo("admin plane listening",
            {{"port", static_cast<int>(admin_->port())},
             {"address", "127.0.0.1"}});
    return true;
  }

  void StopAdmin() {
    if (admin_ != nullptr) admin_->Stop();
  }

  // TCP serving tier (--port): blocks until SIGTERM/SIGINT, then drains
  // gracefully and returns 0.  Constructs the NetServer (which registers
  // its spex_net_* meters) BEFORE the admin plane starts scraping the
  // shared registry — metric registration is not concurrent-safe.
  int ServeNet() {
    if (options_.admin_port >= 0) {
      spex::AdminOptions admin_options;
      admin_options.http.port = static_cast<uint16_t>(options_.admin_port);
      admin_options.queries = &registry_;
      admin_ = std::make_unique<spex::AdminServer>(&pool_, admin_options);
    }
    spex::net::NetServerOptions net_options;
    net_options.port = static_cast<uint16_t>(options_.net_port);
    net_options.max_frame_bytes = options_.max_frame_bytes;
    net_options.idle_timeout_ms = options_.net_idle_ms;
    net_options.doc_deadline_ms = options_.net_doc_deadline_ms;
    net_options.max_connections = options_.net_max_connections;
    net_options.max_docs_in_flight = options_.net_max_docs;
    net_options.drain_grace_ms = options_.net_drain_grace_ms;
    net_options.session_limits = options_.limits;
    spex::net::NetServer net(
        &pool_, &cache_, net_options,
        admin_ != nullptr ? &admin_->directory() : nullptr);
    if (admin_ != nullptr) {
      std::string error;
      if (!admin_->Start(&error)) {
        LogError("admin plane failed to start", {{"error", error}});
        return 1;
      }
      LogInfo("admin plane listening",
              {{"port", static_cast<int>(admin_->port())},
               {"address", "127.0.0.1"}});
    }
    std::string error;
    if (!net.Start(&error)) {
      LogError("tcp serving tier failed to start", {{"error", error}});
      return 1;
    }
    LogInfo("tcp serving tier listening",
            {{"port", static_cast<int>(net.port())},
             {"address", "127.0.0.1"},
             {"threads", pool_.threads()}});
    char byte;
    while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    LogInfo("shutdown signal received, draining connections",
            {{"connections", static_cast<long long>(net.connections())}});
    net.RequestDrain();
    net.Join();
    LogInfo("drain complete", {{"drained", net.drained() ? 1 : 0}});
    StopAdmin();
    return 0;
  }

  // Feeds one parsed document to a session, re-sliced into --batch-sized
  // submission batches when asked (exercises the queue/backpressure path
  // and bounds what one task pins in memory).
  void FeedBatches(
      spex::StreamSession* session,
      const std::shared_ptr<const std::vector<spex::StreamEvent>>& batch) {
    if (options_.batch_events == 0) {
      session->Feed(batch);
      return;
    }
    for (size_t begin = 0; begin < batch->size();
         begin += options_.batch_events) {
      const size_t end = std::min(batch->size(), begin + options_.batch_events);
      session->Feed(std::vector<spex::StreamEvent>(
          batch->begin() + static_cast<std::ptrdiff_t>(begin),
          batch->begin() + static_cast<std::ptrdiff_t>(end)));
    }
  }

  // Parses one document and opens a session per query against it.  A
  // malformed/truncated document never stops the server: its sessions are
  // fed the parsed prefix and aborted with the parser's status, so Finish
  // reports a structured error line with the sealed partial result.
  void Dispatch(const std::string& name, const std::string& xml) {
    spex::FaultPlan plan;
    const std::string* doc = &xml;
    std::string mutated;
    if (options_.chaos) {
      plan = injector_.PlanForSession(chaos_sessions_++);
      if (plan.active()) {
        mutated = spex::FaultInjector::ApplyToDocument(plan, xml);
        doc = &mutated;
      }
    }
    std::vector<spex::StreamEvent> events;
    const spex::Status parse_status =
        spex::ParseXmlToEvents(*doc, &events, options_.parser);
    if (!parse_status.ok()) {
      LogWarn("document parse failed, serving continues",
              {{"document", name},
               {"status", spex::StatusCodeName(parse_status.code())},
               {"error", parse_status.message()}});
    }
    ++documents_;
    document_events_ += static_cast<int64_t>(events.size());
    auto batch = std::make_shared<const std::vector<spex::StreamEvent>>(
        std::move(events));
    if (multi_template_ != nullptr) {
      // Subscription mode: ONE session per document, evaluated against the
      // whole standing population on the merged shared DAG.
      std::shared_ptr<spex::StreamSession> session =
          pool_.OpenSubscriptions(multi_template_);
      spex::EngineLimits limits = options_.limits;
      if (options_.chaos) {
        spex::FaultInjector::ApplyToLimits(plan, &limits);
        if (limits.enabled()) session->OverrideLimits(limits);
      }
      if (admin_ != nullptr) {
        admin_->directory().Register(session, limits);
      }
      FeedBatches(session.get(), batch);
      if (parse_status.ok()) {
        session->Close();
      } else {
        session->Abort(parse_status);
      }
      pending_.push_back(
          PendingSession{name, session->query(), std::move(session), {}});
      return;
    }
    for (const std::string& q : queries_) {
      spex::StatusOr<std::shared_ptr<spex::StreamSession>> session =
          pool_.OpenSession(q, &cache_);
      if (!session.ok()) {
        // Unreachable for queries validated by LoadQueries; kept for
        // future per-request query sources.
        pending_.push_back(PendingSession{name, q, nullptr, session.status()});
        continue;
      }
      spex::EngineLimits limits = options_.limits;
      if (options_.chaos) {
        spex::FaultInjector::ApplyToLimits(plan, &limits);
        if (limits.enabled()) (*session)->OverrideLimits(limits);
      }
      if (admin_ != nullptr) {
        admin_->directory().Register(*session, limits);
      }
      FeedBatches(session->get(), batch);
      if (parse_status.ok()) {
        (*session)->Close();
      } else {
        (*session)->Abort(parse_status);
      }
      pending_.push_back(
          PendingSession{name, q, std::move(session).value(), {}});
    }
  }

  int Finish() {
    int64_t total_results = 0;
    int64_t failed_sessions = 0;
    for (PendingSession& p : pending_) {
      if (p.session == nullptr) {
        ++failed_sessions;
        std::printf("%s\t%s\tERROR(%s)\tcertain=0/0\t%s\n", p.document.c_str(),
                    p.query.c_str(), spex::StatusCodeName(p.rejected.code()),
                    p.rejected.message().c_str());
        continue;
      }
      const std::vector<std::string>& results = p.session->Wait();
      total_results += p.session->result_count();
      if (multi_template_ != nullptr) {
        // Route the document to its matching query ids: one line per
        // template slot with results, `-` when nothing matched.  A failed
        // session reports its ERROR line first, then whatever partial
        // routing was sealed.
        if (!p.session->status().ok()) {
          ++failed_sessions;
          std::printf("%s\t%s\tERROR(%s)\tcertain=%lld/%lld\t%s\n",
                      p.document.c_str(), p.query.c_str(),
                      spex::StatusCodeName(p.session->status().code()),
                      static_cast<long long>(p.session->certain_result_count()),
                      static_cast<long long>(p.session->result_count()),
                      p.session->status().message().c_str());
        }
        int matched = 0;
        for (int slot = 0; slot < p.session->slot_count(); ++slot) {
          const std::vector<std::string>& slot_results =
              p.session->slot_results(slot);
          if (slot_results.empty()) continue;
          ++matched;
          std::printf("%s\tsub#%d\t%lld\n", p.document.c_str(), slot,
                      static_cast<long long>(slot_results.size()));
          if (options_.print_results) {
            for (const std::string& r : slot_results) {
              std::printf("  %s\n", r.c_str());
            }
          }
        }
        if (matched == 0 && p.session->status().ok()) {
          std::printf("%s\t-\t0\n", p.document.c_str());
        }
        continue;
      }
      if (p.session->status().ok()) {
        std::printf("%s\t%s\t%lld\n", p.document.c_str(), p.query.c_str(),
                    static_cast<long long>(p.session->result_count()));
      } else {
        ++failed_sessions;
        std::printf("%s\t%s\tERROR(%s)\tcertain=%lld/%lld\t%s\n",
                    p.document.c_str(), p.query.c_str(),
                    spex::StatusCodeName(p.session->status().code()),
                    static_cast<long long>(p.session->certain_result_count()),
                    static_cast<long long>(p.session->result_count()),
                    p.session->status().message().c_str());
      }
      if (options_.print_results) {
        for (const std::string& r : results) std::printf("  %s\n", r.c_str());
      }
    }
    if (failed_sessions > 0) {
      LogWarn("sessions failed, see ERROR lines",
              {{"failed", static_cast<long long>(failed_sessions)}});
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const spex::obs::MetricsSnapshot snapshot = pool_.metrics().Collect();
    const int64_t pool_events = snapshot.Value("spex_pool_events_processed");
    LogInfo("run complete",
            {{"documents", static_cast<long long>(documents_)},
             {"queries", static_cast<long long>(queries_.size())},
             {"sessions", static_cast<long long>(pending_.size())},
             {"threads", pool_.threads()}});
    LogInfo("throughput",
            {{"document_events", static_cast<long long>(document_events_)},
             {"engine_events", static_cast<long long>(pool_events)},
             {"results", static_cast<long long>(total_results)},
             {"elapsed_sec", elapsed},
             {"events_per_sec",
              elapsed > 0 ? static_cast<double>(pool_events) / elapsed : 0.0}});
    LogInfo("latency",
            {{"feed_to_result_p50_us",
              snapshot.QuantileAll("spex_pool_feed_to_result_us", 0.50)},
             {"feed_to_result_p95_us",
              snapshot.QuantileAll("spex_pool_feed_to_result_us", 0.95)},
             {"feed_to_result_p99_us",
              snapshot.QuantileAll("spex_pool_feed_to_result_us", 0.99)},
             {"queue_wait_p50_us",
              snapshot.QuantileAll("spex_pool_queue_wait_us", 0.50)},
             {"queue_wait_p99_us",
              snapshot.QuantileAll("spex_pool_queue_wait_us", 0.99)}});
    if (options_.metrics_format == "json") {
      std::fprintf(stderr, "%s\n", snapshot.ToJson().c_str());
    } else if (options_.metrics_format == "prom") {
      std::fprintf(stderr, "%s", snapshot.ToPrometheusText().c_str());
    }
    return 0;
  }

 private:
  const Options& options_;
  spex::CompiledQueryCache cache_;
  spex::FaultInjector injector_;
  std::atomic<uint64_t> chaos_batches_{0};  // worker-stall schedule cursor
  uint64_t chaos_sessions_ = 0;             // document fault schedule cursor
  // Declared before pool_ so workers (which record runs into it during
  // teardown) are joined before the registry goes away.
  spex::QueryRegistry registry_;
  spex::EnginePool pool_;
  std::unique_ptr<spex::AdminServer> admin_;
  // Subscription mode: the standing population's shared template (null in
  // per-query mode).
  std::shared_ptr<const spex::MultiQueryTemplate> multi_template_;
  std::vector<std::string> queries_;
  std::vector<PendingSession> pending_;
  int64_t documents_ = 0;
  int64_t document_events_ = 0;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--queries=")) {
      options->queries_file = v;
    } else if (const char* v = value("--subscriptions=")) {
      options->subscriptions_dir = v;
    } else if (const char* v = value("--subscription-count=")) {
      options->subscription_count = std::atoi(v);
      if (options->subscription_count < 1) return false;
    } else if (const char* v = value("--threads=")) {
      options->threads = std::atoi(v);
    } else if (const char* v = value("--queue=")) {
      options->queue_capacity = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--cache=")) {
      options->cache_capacity = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--batch-size=")) {
      options->engine_batch = std::atoi(v);
      if (options->engine_batch < 1) return false;
    } else if (const char* v = value("--batch=")) {
      options->batch_events = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--print") {
      options->print_results = true;
    } else if (const char* v = value("--admin-port=")) {
      options->admin_port = std::atoi(v);
      if (options->admin_port < 0 || options->admin_port > 65535) return false;
    } else if (const char* v = value("--slow-ms=")) {
      options->slow_ms = std::atoll(v);
    } else if (const char* v = value("--slow-delay-ms=")) {
      options->slow_delay_ms = std::atoll(v);
    } else if (const char* v = value("--sampling=")) {
      options->sampling_period = std::atoi(v);
      if (options->sampling_period < 0) return false;
    } else if (const char* v = value("--log=")) {
      spex::obs::LogFormat format;
      if (!spex::obs::ParseLogFormat(v, &format)) return false;
      spex::obs::Logger::Global().SetFormat(format);
    } else if (const char* v = value("--log-level=")) {
      spex::obs::LogLevel level;
      if (!spex::obs::ParseLogLevel(v, &level)) return false;
      spex::obs::Logger::Global().SetLevel(level);
    } else if (const char* v = value("--max-depth=")) {
      options->parser.max_depth = std::atoi(v);
    } else if (const char* v = value("--max-text=")) {
      options->parser.max_text_bytes = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--max-buffered-bytes=")) {
      options->limits.max_buffered_bytes = std::atoll(v);
    } else if (const char* v = value("--max-formula-bytes=")) {
      options->limits.max_formula_bytes = std::atoll(v);
    } else if (const char* v = value("--max-events=")) {
      options->limits.max_events = std::atoll(v);
    } else if (const char* v = value("--deadline-ms=")) {
      options->limits.deadline_ms = std::atoll(v);
    } else if (const char* v = value("--chaos=")) {
      options->chaos = true;
      options->chaos_seed = static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("--chaos-rate=")) {
      options->chaos_rate = std::atoi(v);
    } else if (const char* v = value("--max-frame=")) {
      options->max_frame_bytes = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--port=")) {
      options->net_port = std::atoi(v);
      if (options->net_port < 0 || options->net_port > 65535) return false;
    } else if (const char* v = value("--idle-ms=")) {
      options->net_idle_ms = std::atoll(v);
    } else if (const char* v = value("--doc-deadline-ms=")) {
      options->net_doc_deadline_ms = std::atoll(v);
    } else if (const char* v = value("--max-conns=")) {
      options->net_max_connections = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--max-docs=")) {
      options->net_max_docs = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--drain-grace-ms=")) {
      options->net_drain_grace_ms = std::atoll(v);
    } else if (const char* v = value("--metrics=")) {
      options->metrics_format = v;
      if (options->metrics_format != "json" &&
          options->metrics_format != "prom") {
        return false;
      }
    } else if (arg == "--frames") {
      options->frames = true;
    } else if (const char* v = value("--frames=")) {
      options->frames = true;
      options->frames_file = v;
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else if (options->directory.empty()) {
      options->directory = arg;
    } else {
      return false;
    }
  }
  // Exactly one query source: --queries, --subscriptions, or
  // --subscription-count.
  const int query_sources = (options->queries_file.empty() ? 0 : 1) +
                            (options->subscriptions_dir.empty() ? 0 : 1) +
                            (options->subscription_count > 0 ? 1 : 0);
  if (options->net_port >= 0) {
    // TCP tier: queries arrive over the wire (PREPARE); a --queries file is
    // optional cache warming.  No local document source.
    if (query_sources > 1) return false;
    if (options->frames || !options->directory.empty()) return false;
  } else {
    if (query_sources != 1) return false;
    // Exactly one source: a directory, or the frame stream.
    if (options->frames != options->directory.empty()) return false;
  }
  if (options->threads < 1) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage();

  // Install the shutdown handshake before any serving starts so a SIGTERM
  // during the run already drains cleanly.
  if (options.admin_port >= 0 || options.net_port >= 0) {
    if (pipe(g_shutdown_pipe) != 0) {
      LogError("cannot create shutdown pipe", {});
      return 1;
    }
    std::signal(SIGTERM, HandleShutdownSignal);
    std::signal(SIGINT, HandleShutdownSignal);
  }

  Server server(options);
  if (options.net_port >= 0) {
    // TCP serving tier: a --queries file, when given, only pre-warms the
    // compiled-query cache; queries normally arrive over the wire.
    if (!options.queries_file.empty() && !server.LoadQueries()) return 1;
    return server.ServeNet();
  }
  if (!server.LoadQueries()) return 1;
  if (options.admin_port >= 0 &&
      !server.StartAdmin(static_cast<uint16_t>(options.admin_port))) {
    return 1;
  }

  if (!options.directory.empty()) {
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<std::string> paths;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(options.directory, ec)) {
      if (entry.is_regular_file()) paths.push_back(entry.path().string());
    }
    if (ec) {
      LogError("cannot read directory",
               {{"directory", options.directory}, {"error", ec.message()}});
      return 1;
    }
    std::sort(paths.begin(), paths.end());
    if (paths.empty()) {
      LogError("no files in directory", {{"directory", options.directory}});
      return 1;
    }
    for (const std::string& path : paths) {
      std::string xml;
      if (!ReadFile(path, &xml)) {
        LogError("cannot read document", {{"file", path}});
        return 1;
      }
      server.Dispatch(fs::path(path).filename().string(), xml);
    }
  } else {
    std::ifstream file;
    if (!options.frames_file.empty()) {
      file.open(options.frames_file, std::ios::binary);
      if (!file) {
        LogError("cannot read frames file", {{"file", options.frames_file}});
        return 1;
      }
    }
    std::istream& in = options.frames_file.empty() ? std::cin : file;
    std::string payload;
    std::string error;
    std::string refused;
    int64_t frame = 0;
    while (ReadFrame(in, options.max_frame_bytes, &payload, &error, &refused)) {
      const std::string name = "frame#" + std::to_string(frame++);
      if (!refused.empty()) {
        // Oversized frame: refused before any allocation, payload skipped;
        // the stream is still framed, so serving continues.
        std::printf("%s\t-\tERROR(%s)\tcertain=0/0\t%s\n", name.c_str(),
                    spex::StatusCodeName(spex::StatusCode::kInvalidArgument),
                    refused.c_str());
        LogWarn("oversized frame refused, serving continues",
                {{"frame", name}, {"error", refused}});
        continue;
      }
      server.Dispatch(name, payload);
    }
    if (!error.empty()) {
      // A truncated trailing frame is a client error, not a server fault:
      // evaluate its payload as-is (the parser will classify the damage),
      // report the condition, and still answer everything already queued.
      LogWarn("frame stream truncated, serving continues", {{"error", error}});
      if (!payload.empty()) {
        server.Dispatch("frame#" + std::to_string(frame) + "(truncated)",
                        payload);
      }
    }
  }
  const int rc = server.Finish();

  if (options.admin_port >= 0) {
    // Input drained, results printed; keep the telemetry plane up until the
    // operator says stop (this is what makes `spexserve --admin-port=P`
    // scrapeable by a Prometheus loop rather than a one-shot).
    LogInfo("serving admin plane until SIGTERM", {});
    char byte;
    while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    LogInfo("shutdown signal received, draining", {});
    server.StopAdmin();
  }
  return rc;
}
