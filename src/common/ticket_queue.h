#ifndef ROBOPT_COMMON_TICKET_QUEUE_H_
#define ROBOPT_COMMON_TICKET_QUEUE_H_

#include <atomic>
#include <cstdint>

namespace robopt {

/// Bounded FIFO admission queue for one shard: multiple producers enter,
/// exactly one request executes at a time, in ticket order. The queue holds
/// no payloads — each admitted caller keeps its request on its own stack and
/// *becomes* the shard's executor when its ticket comes up, so the critical
/// path has no cross-thread handoff, no mutex and no allocation:
///
///   - TryEnter() claims the next ticket with a bounded CAS loop; it fails
///     (shed) when `capacity` tickets are already outstanding, so a stalled
///     shard back-pressures by rejection, never by unbounded queueing.
///   - WaitTurn() blocks (C++20 atomic wait — futex on Linux) until the
///     caller's ticket is being served. The serving counter's release/acquire
///     chain orders every request after the previous one, so shard-local
///     state needs no further synchronization while a ticket is held.
///   - Leave() publishes the next turn and wakes waiters.
///
/// depth() is a racy snapshot (relaxed) meant for admission estimates and
/// telemetry, not for invariants.
class TicketQueue {
 public:
  explicit TicketQueue(uint64_t capacity) : capacity_(capacity) {}

  TicketQueue(const TicketQueue&) = delete;
  TicketQueue& operator=(const TicketQueue&) = delete;

  /// Claims the next ticket into `*ticket` and returns true, or returns
  /// false without side effects when `capacity` requests are already
  /// admitted (the caller sheds). Lock-free.
  bool TryEnter(uint64_t* ticket) {
    uint64_t next = next_.load(std::memory_order_relaxed);
    for (;;) {
      // A stale `next` can trail serving_ (others entered and left since
      // it was read); its unsigned difference would wrap and shed a request
      // into a near-empty queue. Only a current view may shed: a stale one
      // fails the CAS below, which refreshes it.
      const uint64_t serving = serving_.load(std::memory_order_relaxed);
      if (next >= serving && next - serving >= capacity_) return false;
      if (next_.compare_exchange_weak(next, next + 1,
                                      std::memory_order_relaxed)) {
        *ticket = next;
        return true;
      }
    }
  }

  /// Blocks until `ticket` is the serving ticket. On return the caller owns
  /// the shard until Leave().
  void WaitTurn(uint64_t ticket) const {
    uint64_t current = serving_.load(std::memory_order_acquire);
    while (current != ticket) {
      serving_.wait(current, std::memory_order_acquire);
      current = serving_.load(std::memory_order_acquire);
    }
  }

  /// Releases the shard to the next ticket and wakes every waiter (each
  /// re-checks its own ticket; the queue is bounded by `capacity`, so the
  /// herd is too).
  void Leave() {
    serving_.fetch_add(1, std::memory_order_release);
    serving_.notify_all();
  }

  /// Outstanding admitted requests (including the one being served), as a
  /// relaxed snapshot.
  uint64_t depth() const {
    const uint64_t next = next_.load(std::memory_order_relaxed);
    const uint64_t serving = serving_.load(std::memory_order_relaxed);
    return next >= serving ? next - serving : 0;
  }

  uint64_t capacity() const { return capacity_; }

 private:
  const uint64_t capacity_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> serving_{0};
};

}  // namespace robopt

#endif  // ROBOPT_COMMON_TICKET_QUEUE_H_
