// Split SP and Join JO transducers (paper §III.6, Figs. 8 and 9).
//
// SP forwards every message to both of its output tapes.  JO collects the
// messages of its two input tapes and behaves like an AND-gate on document
// messages: a document message is emitted exactly once, after it arrived on
// both inputs; activation and determination messages pass through in arrival
// order.  This synchronizes parallel network branches and removes the
// duplicate document messages a split introduced.

#ifndef SPEX_SPEX_SPLIT_JOIN_TRANSDUCERS_H_
#define SPEX_SPEX_SPLIT_JOIN_TRANSDUCERS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "spex/transducer.h"

namespace spex {

// FIFO of messages over a power-of-two ring.  std::deque would allocate and
// free a fixed-size block every few messages as the join queues fill and
// drain (per-message churn on the qualifier hot path); here push/pop are
// index bumps and the storage is retained for the run's lifetime.
class MessageQueue {
 public:
  bool empty() const { return head_ == tail_; }
  size_t size() const { return tail_ - head_; }
  Message& front() { return slots_[head_ & (slots_.size() - 1)]; }
  const Message& front() const { return slots_[head_ & (slots_.size() - 1)]; }
  void pop_front() {
    // Reset the slot so it drops its formula/payload references now rather
    // than holding them until the slot is overwritten.
    slots_[head_ & (slots_.size() - 1)] = Message();
    ++head_;
  }
  void push_back(Message&& m) {
    if (size() == slots_.size()) Grow();
    slots_[tail_ & (slots_.size() - 1)] = std::move(m);
    ++tail_;
  }

 private:
  void Grow() {
    const size_t old_cap = slots_.size();
    const size_t new_cap = old_cap == 0 ? 16 : old_cap * 2;
    std::vector<Message> next(new_cap);
    const size_t count = tail_ - head_;
    for (size_t i = 0; i < count; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (old_cap - 1)]);
    }
    slots_.swap(next);
    head_ = 0;
    tail_ = count;
  }

  std::vector<Message> slots_;  // power-of-two size (empty until first push)
  size_t head_ = 0;  // monotone; slot index is head_ mod capacity
  size_t tail_ = 0;
};

class SplitTransducer : public Transducer {
 public:
  SplitTransducer();

 private:
  void ProcessBatch(int port, Message* messages, size_t count,
                    BatchEmitter* out) override;
};

class JoinTransducer : public Transducer {
 public:
  JoinTransducer();

  // Fig. 9 state: which input's document message has already been consumed.
  enum class State : uint8_t { kNone, kLeft, kRight };
  State state() const { return state_; }
  size_t pending(int port) const { return queues_[port].size(); }

 private:
  // Bulk enqueue followed by a single drain.  Drain's greedy transition loop
  // is confluent — its output depends only on the two input sequences, not
  // on their interleave — so draining once after the whole batch is
  // equivalent to draining after every message (DESIGN.md §11).
  void ProcessBatch(int port, Message* messages, size_t count,
                    BatchEmitter* out) override;

  // Applies as many Fig. 9 transitions as the buffered messages allow.
  void Drain(BatchEmitter* out);

  State state_ = State::kNone;
  MessageQueue queues_[2];
};

}  // namespace spex

#endif  // SPEX_SPEX_SPLIT_JOIN_TRANSDUCERS_H_
