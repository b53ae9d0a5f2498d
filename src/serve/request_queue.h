#ifndef BQE_SERVE_REQUEST_QUEUE_H_
#define BQE_SERVE_REQUEST_QUEUE_H_

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace bqe {
namespace serve {

/// The serving layer's admission queue: a bounded MPMC FIFO. Producers are
/// client threads (Submit/SubmitDeltas), consumers are the service's
/// dispatchers, which drain *chunks* — PopChunk hands a worker up to `max`
/// queued requests in one lock round-trip, and that drained chunk is the
/// batching window the dispatcher coalesces same-fingerprint requests
/// within. Bounded so admission is backpressure (Push blocks) or load-shed
/// (TryPush fails) instead of unbounded memory growth under overload.
///
/// T must be movable; it need not be copyable (requests carry promises).
template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(size_t capacity) : capacity_(capacity) {}
  BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
  BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

  /// Blocking admission: waits for space (backpressure). Returns false —
  /// with `item` unconsumed — once the queue is closed.
  bool Push(T&& item) {
    {
      MutexLock lk(&mu_);
      while (!closed_ && items_.size() >= capacity_) space_cv_.Wait(&mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    // Signal outside the lock so the woken consumer never blocks on mu_.
    item_cv_.Signal();
    return true;
  }

  /// Non-blocking admission: fails immediately when full or closed (the
  /// caller load-sheds).
  bool TryPush(T&& item) {
    {
      MutexLock lk(&mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    item_cv_.Signal();
    return true;
  }

  /// Drains up to `max` items into `out` (appended), blocking while the
  /// queue is empty and open. Returns the number of items popped; 0 means
  /// the queue is closed *and* fully drained — the consumer's exit signal.
  size_t PopChunk(size_t max, std::vector<T>* out) {
    size_t n = 0;
    bool more = false;
    {
      MutexLock lk(&mu_);
      while (!closed_ && items_.empty()) item_cv_.Wait(&mu_);
      while (n < max && !items_.empty()) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
        ++n;
      }
      more = !items_.empty();
    }
    if (n > 0) {
      space_cv_.SignalAll();
      // More items may remain for other chunk consumers.
      if (more) item_cv_.Signal();
    }
    return n;
  }

  /// Closes admission: pending Push callers fail, consumers drain what is
  /// queued and then see 0 from PopChunk. Idempotent.
  void Close() {
    {
      MutexLock lk(&mu_);
      closed_ = true;
    }
    item_cv_.SignalAll();
    space_cv_.SignalAll();
  }

  size_t size() const {
    MutexLock lk(&mu_);
    return items_.size();
  }

  bool closed() const {
    MutexLock lk(&mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar item_cv_;   ///< Signals consumers: items queued.
  CondVar space_cv_;  ///< Signals producers: space freed.
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace serve
}  // namespace bqe

#endif  // BQE_SERVE_REQUEST_QUEUE_H_
