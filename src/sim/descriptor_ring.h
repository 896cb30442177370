// sim/descriptor_ring.h — fixed-capacity SPSC descriptor ring (ISSUE 6).
// This is the emulator's stand-in for a NIC hardware queue: a power-of-two
// array of descriptor slots with free-running head/tail indices, one
// producer (the RSS dispatcher) and one consumer (the owning worker). The
// design follows the ixgbe/tinynf idiom:
//
//   - indices are free-running 64-bit counters; `index & mask` addresses the
//     slot, so wraparound needs no modulo and full/empty are unambiguous
//     (full = tail - head == capacity);
//   - the producer owns `tail` (+ a cached copy of `head`), the consumer
//     owns `head` (+ a cached copy of `tail`); each side re-reads the other's
//     index only when its cache says the ring looks full/empty, so the
//     steady state touches one cache line per side;
//   - head and tail live on separate cache lines (alignas below) — the
//     classic false-sharing fix for SPSC rings;
//   - slots are assigned into, never re-constructed: a slot that has held a
//     packet keeps its field vector's capacity, so the steady-state push is
//     allocation-free exactly like re-filling a DMA buffer;
//   - overload policy is DROP, never block: when the ring is full the push
//     fails, the drop counter bumps, and the producer moves on. Predictable
//     behavior under overload (tinynf's DROP principle) — the producer's
//     cost is bounded no matter how slow the consumer is.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pipeleon::sim {

/// Rounds up to the next power of two (minimum 2).
inline std::size_t ring_pow2(std::size_t n) {
    std::size_t p = 2;
    while (p < n) p <<= 1;
    return p;
}

template <typename T>
class DescriptorRing {
public:
    explicit DescriptorRing(std::size_t capacity)
        : capacity_(ring_pow2(capacity)),
          mask_(capacity_ - 1),
          slots_(capacity_) {}

    DescriptorRing(const DescriptorRing&) = delete;
    DescriptorRing& operator=(const DescriptorRing&) = delete;

    std::size_t capacity() const { return capacity_; }

    /// Producer side. Copy-assigns `v` into the slot (buffer reuse) and
    /// publishes it. Returns false — and counts a drop — when the ring is
    /// full; the producer never blocks.
    bool try_push(const T& v) {
        return try_emplace([&v](T& slot) { slot = v; });
    }
    bool try_push(T&& v) {
        return try_emplace([&v](T& slot) { slot = std::move(v); });
    }

    /// Producer side, zero-copy variant: `fill(slot)` writes the descriptor
    /// directly into the ring slot (so a dispatcher can assign fields into
    /// the slot's reused buffers instead of building a descriptor and
    /// copying it in). Returns false — and counts a drop — when full.
    template <typename Fill>
    bool try_emplace(Fill&& fill) {
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        if (tail - prod_.head_cache >= capacity_) {
            prod_.head_cache = head_.load(std::memory_order_acquire);
            if (tail - prod_.head_cache >= capacity_) {
                prod_.drops.fetch_add(1, std::memory_order_relaxed);
                return false;
            }
        }
        fill(slots_[static_cast<std::size_t>(tail) & mask_]);
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /// Consumer side: invokes `fn(slot)` on each pending descriptor in FIFO
    /// order, in place (the slot is the packet's home while it is
    /// processed, like a DMA buffer). `fn` returns true to keep consuming,
    /// false to stop after the current item (budget exhausted). At most
    /// `max` items are consumed. Returns the number consumed; each item's
    /// slot is released to the producer as soon as `fn` returns.
    template <typename Fn>
    std::size_t consume(Fn&& fn, std::size_t max = SIZE_MAX) {
        std::uint64_t head = head_.load(std::memory_order_relaxed);
        if (head == cons_.tail_cache) {
            cons_.tail_cache = tail_.load(std::memory_order_acquire);
            if (head == cons_.tail_cache) return 0;
        }
        std::size_t n = 0;
        while (n < max) {
            if (head == cons_.tail_cache) {
                cons_.tail_cache = tail_.load(std::memory_order_acquire);
                if (head == cons_.tail_cache) break;
            }
            const bool more = fn(slots_[static_cast<std::size_t>(head) & mask_]);
            ++head;
            ++n;
            head_.store(head, std::memory_order_release);
            if (!more) break;
        }
        return n;
    }

    /// Consumer side, two-phase variant for the batched match pipeline
    /// (DESIGN.md §15): exposes up to `max` pending slots as raw pointers
    /// WITHOUT releasing them, so the consumer can hash/prefetch a whole
    /// group before processing any packet, then advance(). The pointers stay
    /// valid until advance() — the producer only writes slots at or past the
    /// published head. Consumer-thread only, like consume().
    std::size_t peek(T** out, std::size_t max) {
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        if (cons_.tail_cache - head < max) {
            cons_.tail_cache = tail_.load(std::memory_order_acquire);
        }
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(cons_.tail_cache - head, max));
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = &slots_[static_cast<std::size_t>(head + i) & mask_];
        }
        return n;
    }

    /// Releases the first `n` peeked slots back to the producer. Must not
    /// exceed the count the preceding peek() returned.
    void advance(std::size_t n) {
        head_.store(head_.load(std::memory_order_relaxed) + n,
                    std::memory_order_release);
    }

    // Accounting. enqueued/dequeued are the free-running indices, so the
    // invariant `enqueued + dropped == dequeued + dropped + size` holds at
    // any quiescent point: every offered descriptor was either consumed,
    // dropped, or is still in flight.
    std::uint64_t enqueued() const {
        return tail_.load(std::memory_order_acquire);
    }
    std::uint64_t dequeued() const {
        return head_.load(std::memory_order_acquire);
    }
    std::uint64_t dropped() const {
        return prod_.drops.load(std::memory_order_relaxed);
    }
    std::size_t size() const {
        const std::uint64_t t = tail_.load(std::memory_order_acquire);
        const std::uint64_t h = head_.load(std::memory_order_acquire);
        return static_cast<std::size_t>(t - h);
    }
    bool empty() const { return size() == 0; }

private:
    const std::size_t capacity_;
    const std::size_t mask_;
    std::vector<T> slots_;

    /// Consumer's cache line: its own index plus its cache of the
    /// producer's.
    alignas(64) std::atomic<std::uint64_t> head_{0};
    struct {
        std::uint64_t tail_cache = 0;
    } cons_;

    /// Producer's cache line: its own index, its cache of the consumer's,
    /// and the overflow-drop counter (only the producer writes it).
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    struct {
        std::uint64_t head_cache = 0;
        std::atomic<std::uint64_t> drops{0};
    } prod_;
};

}  // namespace pipeleon::sim
