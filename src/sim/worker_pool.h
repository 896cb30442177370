// sim/worker_pool.h — a persistent pool of host worker threads standing in
// for the NIC's run-to-completion cores. Threads are spawned once and woken
// per batch (spawning per batch would dominate the per-batch work the whole
// refactor is trying to amortize). The pool runs one job at a time: run()
// invokes fn(lane) once for every lane 0..size()-1 and blocks until all
// return, which is exactly the barrier the emulator's counter-shard merge
// needs. Worker w runs lane w; the calling thread runs the last lane, and
// every thread that has finished its lane also runs any lane nobody has
// started yet. A worker that wakes late (its CPU busy with another process,
// or its vCPU descheduled on a shared host) therefore does not hold the
// barrier: it finds its lane taken and runs nothing that generation.
//
// Topology awareness (ISSUE 5): each worker pins itself to a concrete CPU —
// locality-first assignment from util::Topology — via pthread_setaffinity_np
// so its counter shard, cache shard, and scratch stay on the CPU (and
// NUMA node) that first touched them. Pinning is best-effort: non-Linux
// hosts, denied affinity syscalls, and the PIPELEON_PIN_WORKERS=0 escape
// hatch all degrade to floating threads with identical semantics.
//
// Wake protocol: instead of one mutex + two broadcast condvars (every wake
// contending one cache line and paying a thundering herd), each worker owns
// a cache-line-aligned slot of two futex-backed atomics (C++20 atomic
// wait/notify): `seq` is stored-released by run() to hand the worker a new
// generation, `claimed` records the generation lane w last ran in (a CAS
// from an older generation wins the lane, so each lane runs exactly once per
// generation). Every finished lane bumps one shared counter, and run()
// returns when it reaches generation * size(). A batch wake is therefore
// O(workers) uncontended stores + notifies, and the join is one wait on the
// counter — no shared mutex on the batch path at all. The job itself is
// passed as a raw function pointer + context (run() is a template over the
// callable), so dispatch allocates nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/topology.h"

namespace pipeleon::sim {

/// Pool construction knobs. Defaults give the topology-pinned pool; tests
/// and the PIPELEON_PIN_WORKERS=0 environment escape hatch turn pinning off.
struct WorkerPoolOptions {
    /// Pin worker threads to CPUs. Effective only when the process-level
    /// gate (PIPELEON_PIN_WORKERS, default on) also allows it.
    bool pin = true;
    /// Topology to assign CPUs from; nullptr = detect the live host once.
    const util::Topology* topology = nullptr;
};

class WorkerPool {
public:
    /// Spawns `workers` threads (at least 1).
    explicit WorkerPool(int workers, WorkerPoolOptions options = {});
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    int size() const { return size_; }

    /// Runs fn(lane) once for every lane in [0, size()) and blocks until
    /// all complete. Worker w runs lane w unless another thread (the caller,
    /// which starts from the last lane, or a worker done with its own) gets
    /// to it first. The first exception thrown by any lane is rethrown here
    /// after the barrier (the other lanes still run first). The callable is
    /// invoked through a function pointer + reference — no std::function,
    /// no allocation, so a batch dispatch is allocation-free.
    template <typename Fn>
    void run(Fn&& fn) {
        using F = std::remove_reference_t<Fn>;
        run_raw([](void* ctx, int id) { (*static_cast<F*>(ctx))(id); },
                const_cast<std::remove_const_t<F>*>(std::addressof(fn)));
    }

    /// CPU id worker `id` was asked to pin to, or -1 when unpinned.
    int cpu_of(int id) const;
    /// Workers whose affinity call actually succeeded.
    int pinned_count() const {
        return pinned_.load(std::memory_order_acquire);
    }

    /// Process-level pinning gate: PIPELEON_PIN_WORKERS unset / "1" = on,
    /// "0" (or any string starting with '0') = off. Read once per call so
    /// tests and benches can flip it between pools.
    static bool pin_enabled_from_env();

private:
    using RawFn = void (*)(void* ctx, int lane);

    /// One worker's wake mailbox and its lane's claim. Its own cache line:
    /// the per-batch stores to one worker's slot never false-share with
    /// another's.
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> seq{0};      ///< run() bumps to wake
        std::atomic<std::uint64_t> claimed{0};  ///< generation lane last ran
    };

    void run_raw(RawFn fn, void* ctx);
    void worker_loop(int id);
    /// Runs `lane` for generation `gen` unless some thread already has.
    void run_lane(int lane, std::uint64_t gen);

    int size_ = 0;  ///< set before any worker starts (workers read it)
    std::vector<std::thread> threads_;
    std::vector<int> cpu_assignment_;  ///< per worker, -1 = unpinned
    std::unique_ptr<Slot[]> slots_;    ///< one per worker, stable addresses

    // Published by run_raw() before the seq release-stores, read by workers
    // after their acquire-loads — ordered without any lock.
    RawFn job_ = nullptr;
    void* job_ctx_ = nullptr;
    std::uint64_t generation_ = 0;  ///< run() is single-caller, plain is fine

    /// Lanes finished over the pool's life; run() of generation g returns
    /// once it reaches g * size().
    alignas(64) std::atomic<std::uint64_t> finished_{0};
    std::atomic<bool> stop_{false};
    std::atomic<int> pinned_{0};
    std::mutex error_mu_;  ///< cold path: first worker exception only
    std::exception_ptr first_error_;
};

}  // namespace pipeleon::sim
