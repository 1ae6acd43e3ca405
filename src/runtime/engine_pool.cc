#include "runtime/engine_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "runtime/query_registry.h"
#include "xml/simd_scan.h"

namespace spex {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamSession

StreamSession::StreamSession(EnginePool* pool, int worker,
                             std::shared_ptr<const SlotTemplate> slot_template)
    : pool_(pool),
      worker_(worker),
      slot_template_(std::move(slot_template)),
      flight_(pool->options_.flight_frames),
      outbox_(static_cast<size_t>(slot_template_->slot_count())) {}

const std::vector<std::string>& StreamSession::slot_results(int slot) const {
  assert(slot >= 0 && slot < static_cast<int>(outbox_.size()));
  return outbox_[static_cast<size_t>(slot)].fragments;
}

int64_t StreamSession::slot_certain_count(int slot) const {
  assert(slot >= 0 && slot < static_cast<int>(outbox_.size()));
  return outbox_[static_cast<size_t>(slot)].certain;
}

void StreamSession::Feed(EventBatch batch) {
  if (batch == nullptr || batch->empty()) return;
  if (closed_.load(std::memory_order_relaxed)) return;
  if (first_feed_ns_.load(std::memory_order_relaxed) == 0) {
    first_feed_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  }
  EnginePool::Task task;
  task.session = shared_from_this();
  task.batch = std::move(batch);
  pool_->Submit(worker_, std::move(task));
}

void StreamSession::Feed(std::vector<StreamEvent> events) {
  Feed(std::make_shared<const std::vector<StreamEvent>>(std::move(events)));
}

void StreamSession::FeedBytes(std::string chunk) {
  if (closed_.load(std::memory_order_relaxed)) return;
  if (first_feed_ns_.load(std::memory_order_relaxed) == 0) {
    first_feed_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  }
  EnginePool::Task task;
  task.session = shared_from_this();
  task.kind = EnginePool::Task::kBytes;
  task.bytes = std::move(chunk);
  pool_->Submit(worker_, std::move(task));
}

void StreamSession::OverrideLimits(const EngineLimits& limits) {
  limits_override_ = limits;
  has_limits_override_ = true;
}

void StreamSession::SetReadyCallback(std::function<void()> callback) {
  on_ready_ = std::move(callback);
}

void StreamSession::Close() {
  if (closed_.exchange(true, std::memory_order_relaxed)) return;
  EnginePool::Task task;
  task.session = shared_from_this();
  task.kind = EnginePool::Task::kClose;
  pool_->Submit(worker_, std::move(task));
}

void StreamSession::Abort(Status status) {
  assert(!status.ok() && "Abort needs a failure status");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!done_) abort_status_.Update(std::move(status));
  }
  Close();
}

void StreamSession::Cancel() {
  Abort(Status::Cancelled("session cancelled by caller"));
}

const std::vector<std::string>& StreamSession::Wait() {
  static const std::vector<std::string> kNoSlots;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return done_; });
  return outbox_.empty() ? kNoSlots : outbox_[0].fragments;
}

bool StreamSession::TakeFragments(std::vector<Fragment>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t slot = 0; slot < outbox_.size(); ++slot) {
    SlotOutbox& box = outbox_[slot];
    for (std::string& xml : box.fragments) {
      out->push_back(Fragment{static_cast<int>(slot), box.taken < box.certain,
                              std::move(xml)});
      ++box.taken;
    }
    box.fragments.clear();
  }
  return done_;
}

LiveSessionInfo StreamSession::Live() const {
  LiveSessionInfo info;
  info.events = live_events_.load(std::memory_order_relaxed);
  info.results = live_results_.load(std::memory_order_relaxed);
  info.buffered_events = live_buffered_events_.load(std::memory_order_relaxed);
  info.buffered_bytes = live_buffered_bytes_.load(std::memory_order_relaxed);
  info.state = static_cast<LiveSessionInfo::State>(
      live_state_.load(std::memory_order_relaxed));
  info.status_code = static_cast<StatusCode>(
      live_status_code_.load(std::memory_order_relaxed));
  return info;
}

void StreamSession::BuildEngine(const EngineOptions& base) {
  EngineOptions options = base;
  // Per-session private symbol table: labels are interned on the worker
  // as events enter the engine.  A caller-supplied shared table would be
  // mutated from every worker at once, so it is deliberately dropped.
  options.symbols = nullptr;
  if (has_limits_override_) options.limits = limits_override_;
  // Every pool session is sealable: failure/cancellation must be able
  // to close the stream virtually whether or not limits are set.
  options.track_open_elements = true;
  // Instantiate the shared template — immutable, so a later quarantine
  // tears down only this instance — with one collector per slot.
  std::vector<ResultSink*> sinks;
  for (int slot = 0; slot < slot_template_->slot_count(); ++slot) {
    sinks_.push_back(std::make_unique<SerializingResultSink>());
    sinks.push_back(sinks_.back().get());
  }
  engine_ = slot_template_->Instantiate(sinks, std::move(options));
  // Always-on sampling: the engine draws once per delivered batch from
  // the pool-wide controller (disabled controller = one null-ish check).
  engine_->SetBatchSampler(&pool_->sampler_);
}

void StreamSession::SyncCapture(bool ending) {
  CaptureHub& hub = pool_->capture_;
  if (capture_.empty() && (ending || !hub.armed())) return;
  hub.Sync(worker_, query(), engine_.get(), &capture_, ending);
}

void StreamSession::ProcessEvents(const EventBatch& batch,
                                  const EngineOptions& base) {
  RunInput(base, [&] {
#ifndef NDEBUG
    // Batches are shared across sessions whose engines each own a private
    // symbol table — a stamped label would be resolved against the wrong
    // table and silently match the wrong transducers.
    for (const StreamEvent& event : *batch) {
      if (event.label != kNoSymbol) {
        std::fprintf(stderr,
                     "StreamSession: batch event '%s' carries a foreign "
                     "symbol stamp; feed unstamped events to pool sessions\n",
                     event.name.c_str());
        std::abort();
      }
    }
#endif
    // Batch-native delivery: hand the pool batch to the engine in
    // EngineOptions::batch_size chunks (the engine cuts its sweeps where
    // the query requires it).
    const size_t step = static_cast<size_t>(std::max(1, base.batch_size));
    const StreamEvent* events = batch->data();
    const size_t total = batch->size();
    for (size_t i = 0; i < total; i += step) {
      engine_->OnEventBatch(events + i, std::min(step, total - i));
    }
    return Status::Ok();
  });
}

void StreamSession::ProcessBytes(const std::string& chunk,
                                 const EngineOptions& base) {
  RunInput(base, [&] {
    if (parser_ == nullptr) {
      // Built on the worker against the engine's own symbol table, so
      // labels arrive stamped; parsed events go straight into the engine,
      // in the engine's delivery batches.
      XmlParserOptions options = pool_->options_.parser;
      options.symbols = engine_->symbol_table();
      options.metrics = nullptr;
      options.event_batch_size = base.batch_size;
      parser_ = std::make_unique<XmlParser>(engine_.get(), options);
    }
    return parser_->Feed(chunk) ? Status::Ok() : parser_->status();
  });
}

void StreamSession::ProcessClose(const EngineOptions& base) {
  bool aborted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted = !abort_status_.ok();
  }
  // An aborted stream is cut, not ended: no Finish() (which would report
  // the cut as malformed input and emit </$>).
  if (parser_ != nullptr && !finished_ && !aborted) {
    RunInput(base, [&] {
      return parser_->Finish() ? Status::Ok() : parser_->status();
    });
  }
  Finalize();
}

void StreamSession::RunInput(const EngineOptions& base,
                             const std::function<Status()>& input) {
  if (finished_) return;  // quarantined: the stream's remainder is dropped
  const int64_t events_before =
      engine_ != nullptr ? engine_->events_processed() : 0;
  Status input_status;
  try {
    if (engine_ == nullptr) BuildEngine(base);
    SyncCapture(/*ending=*/false);
    input_status = input();
  } catch (const std::exception& e) {
    // Exception barrier: a bug in this session must not take down the
    // worker (and with it every other session pinned here).
    run_status_ =
        Status::Internal(std::string("exception escaped engine: ") + e.what());
    seal_allowed_ = false;
  } catch (...) {
    run_status_ = Status::Internal("exception escaped engine");
    seal_allowed_ = false;
  }
  // The engine's own breach wins over the input's: it came first (a parser
  // reports its error only after delivering every event before it).
  if (run_status_.ok() && engine_ != nullptr && !engine_->status().ok()) {
    run_status_ = engine_->status();
  }
  if (run_status_.ok() && !input_status.ok()) run_status_ = input_status;
  // Publish live telemetry at the batch boundary (the engine is between
  // messages here, so the buffered-occupancy reads are consistent).
  if (engine_ != nullptr) {
    const int64_t events = engine_->events_processed() - events_before;
    const int64_t results = engine_->result_count();
    const int64_t buffered_events = engine_->buffered_events();
    const int64_t buffered_bytes = engine_->buffered_bytes();
    live_events_.fetch_add(events, std::memory_order_relaxed);
    live_results_.store(results, std::memory_order_relaxed);
    live_buffered_events_.store(buffered_events, std::memory_order_relaxed);
    live_buffered_bytes_.store(buffered_bytes, std::memory_order_relaxed);
    EnginePool::Worker& worker = *pool_->workers_[static_cast<size_t>(worker_)];
    worker.events->Increment(events);
    // Flight recorder: one batch-boundary snapshot into the post-mortem
    // ring (same consistency argument as the live telemetry above).
    obs::FlightFrame frame;
    frame.events = live_events_.load(std::memory_order_relaxed);
    frame.results = results;
    frame.buffered_events = buffered_events;
    frame.buffered_bytes = buffered_bytes;
    frame.queue_depth = worker.queue_depth->value();
    flight_.Record(frame, SteadyNowNs());
    // After an exception barrier the network's state is suspect: nothing
    // more is handed off.
    if (seal_allowed_) HandOff();
  }
  // Quarantine: seal and publish now so Wait()ers are released without
  // needing a Close() the producer may never send; remaining tasks are
  // dropped at the top of this function.
  if (!run_status_.ok()) Finalize();
}

void StreamSession::HandOff() {
  bool moved = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t slot = 0; slot < sinks_.size(); ++slot) {
      SlotOutbox& box = outbox_[slot];
      moved |= sinks_[slot]->TakeFinished(&box.fragments) > 0;
      box.certain = engine_->certain_result_count(static_cast<int>(slot));
    }
  }
  if (moved && on_ready_) on_ready_();
}

void StreamSession::Finalize(const Status& shutdown_fallback) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_) return;
  }
  finished_ = true;
  Status status = run_status_;  // worker-detected failure wins (root cause)
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) status = abort_status_;
  }
  const int slots = slot_template_->slot_count();
  bool truncated = false;
  RunStats stats;
  QueryRegistry* registry =
      pool_->query_registry_.load(std::memory_order_acquire);
  // One QueryRunRecord per slot, keyed on the slot's canonical text; the
  // session-wide fields (decision-delay digest, sampled hot nodes, flight
  // dump) ride on slot 0's record.  Filled only with a registry installed.
  std::vector<QueryRunRecord> records(
      registry != nullptr ? static_cast<size_t>(slots) : 0);
  if (engine_ != nullptr) {
    if (seal_allowed_) {
      if (!engine_->stream_complete()) {
        status.Update(shutdown_fallback);
        engine_->FinalizeTruncated();
      }
      truncated = engine_->truncated();
      stats = engine_->ComputeStats();
      // The sealed run decided every candidate: hand off the rest.
      HandOff();
      for (size_t i = 0; i < records.size(); ++i) {
        records[i].buffered_events_peak =
            engine_->output_stats(static_cast<int>(i)).buffered_events_peak;
      }
    }
    // else: the exception barrier fired — the network's state is suspect,
    // so no sealing events are pushed and the partials are discarded.

    if (registry != nullptr && slots > 0) {
      // Harvest attribution while the engine is still alive.  Counter and
      // profiler reads are side-table-safe even after the exception barrier
      // (the same argument as the capture offer below).
      QueryRunRecord& record = records[0];
      if (const obs::Histogram* delay = engine_->decision_delay()) {
        int last = -1;
        for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
          if (delay->bucket(b) != 0) last = b;
        }
        for (int b = 0; b <= last; ++b) {
          record.delay_buckets.push_back(delay->bucket(b));
        }
        record.delay_count = delay->count();
        record.delay_sum = delay->sum();
        record.delay_max = delay->max();
      }
      record.sampled_batches = engine_->sampled_batches();
      if (record.sampled_batches > 0) {
        // A population's report covers the whole shared DAG (thousands of
        // nodes): move its strings instead of holding two copies.
        obs::ProfileReport report = engine_->SampledProfile();
        for (obs::ProfileNode& node : report.nodes) {
          if (node.deliveries == 0 && node.self_ns == 0) continue;
          QueryHotNode hot;
          hot.name = std::move(node.name);
          hot.fragment = std::move(node.fragment);
          hot.cost_class = std::move(node.cost_class);
          hot.deliveries = node.deliveries;
          hot.self_ns = node.self_ns;
          record.sampled_nodes.push_back(std::move(hot));
        }
      }
    }

    // Merge a capture out before teardown (even after an exception
    // barrier: the trace ring and profiler are per-engine side tables,
    // still safe to read).
    SyncCapture(/*ending=*/true);

    // The engine (its network, formula nodes, symbol table) was built on
    // this worker thread; destroy it here too, before handing results back.
    // The parser borrows the engine, so it goes first.
    parser_.reset();
    engine_.reset();
    sinks_.clear();
  }
  std::vector<int64_t> slot_counts(static_cast<size_t>(slots), 0);
  int64_t count = 0;
  int64_t certain_total = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < outbox_.size(); ++i) {
      SlotOutbox& box = outbox_[i];
      if (!seal_allowed_) {
        box.fragments.clear();
        box.certain = 0;
      }
      slot_counts[i] = box.taken + static_cast<int64_t>(box.fragments.size());
      count += slot_counts[i];
      certain_total += box.certain;
    }
  }
  // End-to-end latency: first Feed to sealed result, on the worker that
  // owned the run.  Sessions that were never fed observe nothing.
  int64_t feed_us = 0;
  if (const int64_t t0 = first_feed_ns_.load(std::memory_order_relaxed)) {
    feed_us = (SteadyNowNs() - t0) / 1000;
    pool_->workers_[static_cast<size_t>(worker_)]->feed_to_result_us->Observe(
        feed_us);
  }
  if (registry != nullptr) {
    // Freeze the post-mortem timeline with the root cause (first freeze
    // wins); a session that failed before its engine was built dumps an
    // empty ring — the record still marks the failure.
    if (!status.ok()) flight_.Freeze(StatusCodeName(status.code()));
    for (int slot = 0; slot < slots; ++slot) {
      QueryRunRecord& record = records[static_cast<size_t>(slot)];
      record.canonical_text = slot_template_->slot_text(slot);
      record.session_id = session_id_;
      record.worker = worker_;
      record.code = status.code();
      record.truncated = truncated;
      record.events = live_events_.load(std::memory_order_relaxed);
      record.results = slot_counts[static_cast<size_t>(slot)];
      record.feed_to_result_us = feed_us;
      record.limits = has_limits_override_ ? limits_override_
                                           : pool_->options_.engine.limits;
      if (!status.ok() && slot == 0) record.flight_json = flight_.ToJson();
      // Emits the slow-query / flight-dump log records (outside the
      // registry's lock) before Wait()ers are released below, so a thread
      // returning from Wait() can rely on the trail being written.
      registry->RecordRun(record);
    }
  }
  live_results_.store(count, std::memory_order_relaxed);
  live_buffered_events_.store(0, std::memory_order_relaxed);
  live_buffered_bytes_.store(0, std::memory_order_relaxed);
  live_status_code_.store(static_cast<int>(status.code()),
                          std::memory_order_relaxed);
  live_state_.store(status.ok() ? LiveSessionInfo::kFinished
                                : LiveSessionInfo::kFailed,
                    std::memory_order_relaxed);
  pool_->results_total_->Increment(count);
  pool_->sessions_finished_->Increment();
  if (!status.ok()) {
    const auto code = static_cast<size_t>(status.code());
    if (code < static_cast<size_t>(kStatusCodeCount) &&
        pool_->sessions_failed_[code] != nullptr) {
      pool_->sessions_failed_[code]->Increment();
    }
  }
  // No longer load on its worker; before done_, so a thread returning from
  // Wait() sees the pin released.
  pool_->workers_[static_cast<size_t>(worker_)]->unfinished.fetch_sub(
      1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    result_count_ = count;
    certain_results_ = certain_total;
    truncated_ = truncated;
    status_ = std::move(status);
    stats_ = stats;
    done_ = true;
  }
  done_cv_.notify_all();
  if (on_ready_) on_ready_();
}

// ---------------------------------------------------------------------------
// EnginePool

EnginePool::EnginePool(PoolOptions options)
    : options_(std::move(options)),
      // options_ is declared (and thus initialized) before sampler_.
      sampler_(obs::SamplingProfiler::Options{options_.sampling_period}) {
  if (options_.threads < 1) options_.threads = 1;
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  // Register every instrument before the first worker starts: registration
  // is not thread-safe, publishing afterwards is.
  metrics_.SetHelp("spex_pool_workers", "Worker threads in the engine pool.");
  metrics_.SetHelp("spex_pool_sessions_opened", "Sessions opened.");
  metrics_.SetHelp("spex_pool_sessions_finished", "Sessions finalized.");
  metrics_.SetHelp("spex_pool_sessions_failed",
                   "Sessions quarantined, by failure reason.");
  metrics_.SetHelp("spex_pool_events_processed",
                   "Document events processed across all workers.");
  metrics_.SetHelp("spex_pool_worker_events",
                   "Document events processed, per worker.");
  metrics_.SetHelp("spex_pool_backpressure_waits",
                   "Feed calls that blocked on a full worker queue.");
  metrics_.SetHelp("spex_pool_queue_wait_us",
                   "Submit-to-dequeue task latency in microseconds, "
                   "per worker.");
  metrics_.SetHelp("spex_pool_feed_to_result_us",
                   "First Feed to sealed result in microseconds, per worker.");
  metrics_.AddCallbackGauge(
      "spex_pool_workers", {},
      [this] { return static_cast<int64_t>(workers_.size()); });
  sessions_opened_ = metrics_.AddAtomicCounter("spex_pool_sessions_opened");
  sessions_finished_ = metrics_.AddAtomicCounter("spex_pool_sessions_finished");
  for (int code = 1; code < kStatusCodeCount; ++code) {
    sessions_failed_[code] = metrics_.AddAtomicCounter(
        "spex_pool_sessions_failed",
        {{"reason", StatusCodeName(static_cast<StatusCode>(code))}});
  }
  batches_submitted_ = metrics_.AddAtomicCounter("spex_pool_batches_submitted");
  batches_completed_ = metrics_.AddAtomicCounter("spex_pool_batches_completed");
  // The pool total is a pull-style sum over the per-worker counters,
  // registered *before* them: Collect reads entries in registration order,
  // so a concurrent scrape always observes sum-of-workers >= total — the
  // "no torn snapshot" invariant the admin plane's tests pin.
  metrics_.AddCallbackCounter("spex_pool_events_processed", {}, [this] {
    int64_t total = 0;
    for (const auto& worker : workers_) {
      if (worker->events != nullptr) total += worker->events->value();
    }
    return total;
  });
  results_total_ = metrics_.AddAtomicCounter("spex_pool_results_total");
  backpressure_waits_ =
      metrics_.AddAtomicCounter("spex_pool_backpressure_waits");
  metrics_.SetHelp("spex_pool_sampled_batches",
                   "Event batches whose sweeps the sampling profiler "
                   "timed.");
  metrics_.AddCallbackCounter("spex_pool_sampled_batches", {},
                              [this] { return sampler_.sampled_batches(); });
  // Which SIMD scanning backend the parser's runtime dispatch resolved —
  // PR 6 logged it to stderr only; the info-metric idiom (constant 1, the
  // payload in the label) makes it scrapeable.
  metrics_.SetHelp("spex_simd_backend",
                   "Resolved SIMD scan backend (info metric; the backend is "
                   "the label).");
  metrics_.AddCallbackGauge("spex_simd_backend",
                            {{"backend", scan::BackendName()}},
                            [] { return 1; });
  workers_.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    auto worker = std::make_unique<Worker>();
    const obs::Labels labels = {{"worker", std::to_string(i)}};
    worker->queue_depth =
        metrics_.AddAtomicGauge("spex_pool_queue_depth", labels);
    worker->events =
        metrics_.AddAtomicCounter("spex_pool_worker_events", labels);
    worker->queue_wait_us =
        metrics_.AddAtomicHistogram("spex_pool_queue_wait_us", labels);
    worker->feed_to_result_us =
        metrics_.AddAtomicHistogram("spex_pool_feed_to_result_us", labels);
    workers_.push_back(std::move(worker));
  }
  for (int i = 0; i < options_.threads; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::thread([this, i] { WorkerLoop(i); });
  }
}

EnginePool::~EnginePool() {
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->stop = true;
    }
    worker->not_empty.notify_all();
    worker->not_full.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

std::shared_ptr<StreamSession> EnginePool::OpenSession(
    std::shared_ptr<const SlotTemplate> slot_template) {
  if (slot_template == nullptr) return nullptr;
  const int worker = PickWorker();
  sessions_opened_->Increment();
  auto session = std::shared_ptr<StreamSession>(
      new StreamSession(this, worker, std::move(slot_template)));
  session->session_id_ =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  // Register every slot's query with the observability registry at open,
  // so /queries lists it from the first run — not only after one finishes.
  if (QueryRegistry* registry =
          query_registry_.load(std::memory_order_acquire)) {
    for (int slot = 0; slot < session->slot_count(); ++slot) {
      registry->Intern(session->slot_template_->slot_text(slot));
    }
  }
  return session;
}

std::shared_ptr<StreamSession> EnginePool::OpenSession(
    const std::string& query_text, CompiledQueryCache* cache,
    std::string* error) {
  std::shared_ptr<const QueryTemplate> t = cache->Get(query_text, error);
  if (t == nullptr) return nullptr;
  return OpenSession(std::move(t));
}

StatusOr<std::shared_ptr<StreamSession>> EnginePool::OpenSession(
    const std::string& query_text, CompiledQueryCache* cache) {
  StatusOr<std::shared_ptr<const QueryTemplate>> t = cache->Get(query_text);
  if (!t.ok()) return t.status();
  return OpenSession(std::move(t).value());
}

int EnginePool::PickWorker() {
  // Fewest unfinished sessions; the round-robin counter picks where the
  // scan starts, so ties rotate.  A racing OpenSession may read a stale
  // load and pick the same worker — pinning is a heuristic, not a bound.
  const size_t n = workers_.size();
  const size_t start = static_cast<size_t>(
      next_worker_.fetch_add(1, std::memory_order_relaxed) % n);
  size_t best = start;
  int64_t best_load =
      workers_[start]->unfinished.load(std::memory_order_relaxed);
  for (size_t i = 1; i < n; ++i) {
    const size_t w = (start + i) % n;
    const int64_t load =
        workers_[w]->unfinished.load(std::memory_order_relaxed);
    if (load < best_load) {
      best = w;
      best_load = load;
    }
  }
  workers_[best]->unfinished.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(best);
}

void EnginePool::Submit(int worker_index, Task task) {
  Worker& worker = *workers_[static_cast<size_t>(worker_index)];
  {
    std::unique_lock<std::mutex> lock(worker.mu);
    if (worker.queue.size() >= options_.queue_capacity && !worker.stop) {
      backpressure_waits_->Increment();
      worker.not_full.wait(lock, [&] {
        return worker.queue.size() < options_.queue_capacity || worker.stop;
      });
    }
    // A stopping pool accepts no more work; sessions must not be fed once
    // pool destruction has begun (their Wait() would deadlock anyway).
    if (worker.stop) return;
    task.enqueue_ns = SteadyNowNs();
    worker.queue.push_back(std::move(task));
    worker.queue_depth->Set(static_cast<int64_t>(worker.queue.size()));
  }
  worker.not_empty.notify_one();
  batches_submitted_->Increment();
}

void EnginePool::WorkerLoop(int index) {
  Worker& worker = *workers_[static_cast<size_t>(index)];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(worker.mu);
      worker.not_empty.wait(
          lock, [&] { return !worker.queue.empty() || worker.stop; });
      if (worker.queue.empty()) break;  // stop requested and fully drained
      task = std::move(worker.queue.front());
      worker.queue.pop_front();
      worker.queue_depth->Set(static_cast<int64_t>(worker.queue.size()));
    }
    worker.not_full.notify_one();
    worker.queue_wait_us->Observe((SteadyNowNs() - task.enqueue_ns) / 1000);
    if (task.kind == Task::kClose) {
      // Count the close task before Finalize releases Wait()ers: a thread
      // that has returned from Wait() on every session must observe
      // batches_submitted == batches_completed.
      batches_completed_->Increment();
      task.session->ProcessClose(options_.engine);
      for (size_t i = 0; i < worker.active.size(); ++i) {
        if (worker.active[i] == task.session) {
          worker.active[i] = worker.active.back();
          worker.active.pop_back();
          break;
        }
      }
    } else {
      if (options_.before_batch) options_.before_batch(index);
      const bool first =
          task.session->engine_ == nullptr && !task.session->finished_;
      if (task.kind == Task::kBytes) {
        task.session->ProcessBytes(task.bytes, options_.engine);
      } else {
        task.session->ProcessEvents(task.batch, options_.engine);
      }
      // A quarantined session needs no teardown at shutdown (the input
      // task already finalized it); keep `active` to sessions with live
      // engines.
      if (first && !task.session->finished_) {
        worker.active.push_back(task.session);
      } else if (!first && task.session->finished_) {
        for (size_t i = 0; i < worker.active.size(); ++i) {
          if (worker.active[i] == task.session) {
            worker.active[i] = worker.active.back();
            worker.active.pop_back();
            break;
          }
        }
      }
      batches_completed_->Increment();
    }
  }
  // Shutdown with the queue drained: sessions that were never Close()d
  // still hold live engines — finalize them here so the engine is torn
  // down on its own worker thread, never in the pool destructor's thread.
  // A session whose stream is incomplete is sealed as kCancelled (the pool
  // went away under it); complete streams finalize normally.
  for (auto& session : worker.active) {
    session->Finalize(Status::Cancelled("pool shut down before stream end"));
  }
  worker.active.clear();
}

}  // namespace spex
