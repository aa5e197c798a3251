#pragma once

#include <cstddef>
#include <deque>

#include "ppds/common/error.hpp"

/// \file watermark.hpp
/// Low-water-mark queue: the pool primitive behind the silent-OT pad
/// reservoir. A plain FIFO plus a threshold; consumers pop from the front,
/// a background producer appends to the back, and `below_low_water()` is
/// the refill trigger the producer polls. The queue itself is NOT
/// thread-safe — the owning engine serializes access under its own mutex
/// (crypto/silent_ot.cpp) so that level checks and pops are one critical
/// section, which is exactly the coherence bug available_slots() had before
/// the reservoir existed.

namespace ppds {

template <typename T>
class LowWaterQueue {
 public:
  LowWaterQueue() = default;
  explicit LowWaterQueue(std::size_t low_water) : low_water_(low_water) {}

  void push(T value) { items_.push_back(std::move(value)); }

  /// Pops the oldest element; throws if empty (the caller's ledger must
  /// guarantee coverage before consuming).
  T pop() {
    detail::require(!items_.empty(), "low-water queue: pop on empty");
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Refill trigger: the producer tops the queue back up whenever the
  /// level sinks under the mark.
  bool below_low_water() const { return items_.size() < low_water_; }

  /// Direct element access for the owner's secure-wipe sweeps: the queue is
  /// a container of key material and the engine must be able to zero every
  /// element in place on abort.
  std::deque<T>& items() { return items_; }
  const std::deque<T>& items() const { return items_; }

 private:
  std::deque<T> items_;
  std::size_t low_water_ = 0;
};

}  // namespace ppds
