#include "sim/worker_pool.h"

#include <algorithm>
#include <cstdlib>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace pipeleon::sim {

namespace {

/// Best-effort affinity for the calling thread; false when unsupported or
/// denied (cgroup cpusets, non-Linux). The thread keeps running unpinned.
bool pin_self_to_cpu(int cpu_id) {
#if defined(__linux__)
    if (cpu_id < 0 || cpu_id >= CPU_SETSIZE) return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu_id), &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
    (void)cpu_id;
    return false;
#endif
}

}  // namespace

bool WorkerPool::pin_enabled_from_env() {
    const char* v = std::getenv("PIPELEON_PIN_WORKERS");
    return v == nullptr || *v == '\0' || *v != '0';
}

WorkerPool::WorkerPool(int workers, WorkerPoolOptions options) {
    workers = std::max(1, workers);
    size_ = workers;
    const bool pin = options.pin && pin_enabled_from_env();
    if (pin) {
        if (options.topology != nullptr) {
            cpu_assignment_ = options.topology->assign(workers);
        } else {
            // Detect once per pool: pools live as long as the worker count
            // is stable, so this is control-plane-rate.
            cpu_assignment_ = util::Topology::detect().assign(workers);
        }
    } else {
        cpu_assignment_.assign(static_cast<std::size_t>(workers), -1);
    }

    slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(workers));
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        threads_.emplace_back([this, i] { worker_loop(i); });
    }
}

WorkerPool::~WorkerPool() {
    stop_.store(true, std::memory_order_release);
    for (int i = 0; i < size(); ++i) {
        // Bump past any generation the worker could be waiting on.
        slots_[static_cast<std::size_t>(i)].seq.fetch_add(
            1, std::memory_order_release);
        slots_[static_cast<std::size_t>(i)].seq.notify_one();
    }
    for (std::thread& t : threads_) t.join();
}

int WorkerPool::cpu_of(int id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= cpu_assignment_.size()) {
        return -1;
    }
    return cpu_assignment_[static_cast<std::size_t>(id)];
}

void WorkerPool::run_raw(RawFn fn, void* ctx) {
    job_ = fn;
    job_ctx_ = ctx;
    {
        std::lock_guard<std::mutex> lock(error_mu_);
        first_error_ = nullptr;
    }
    const std::uint64_t gen = ++generation_;
    // Wake: one release-store + notify per worker — no shared mutex, no
    // broadcast herd.
    for (int i = 0; i < size(); ++i) {
        Slot& slot = slots_[static_cast<std::size_t>(i)];
        slot.seq.store(gen, std::memory_order_release);
        slot.seq.notify_one();
    }
    // The caller runs lanes too, from the last one down: the last worker was
    // woken last, so its lane is the least likely to have started. With the
    // caller as a spare runner the barrier waits on the first size() of
    // size() + 1 threads to get going, not on every worker's wake-up.
    for (int lane = size() - 1; lane >= 0; --lane) run_lane(lane, gen);
    // Join: wait until every lane of this generation has finished. The
    // thread finishing the last one notifies; the acquire pairs with every
    // lane's release increment, so all lane writes are visible here.
    const std::uint64_t target = gen * static_cast<std::uint64_t>(size());
    std::uint64_t f = finished_.load(std::memory_order_acquire);
    while (f != target) {
        finished_.wait(f, std::memory_order_acquire);
        f = finished_.load(std::memory_order_acquire);
    }
    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lock(error_mu_);
        err = first_error_;
    }
    if (err) std::rethrow_exception(err);
}

void WorkerPool::run_lane(int lane, std::uint64_t gen) {
    // Win the lane for `gen` unless some thread already has. A claim is only
    // won for the generation the runner was handed, and run() cannot return
    // before a claimed lane finishes, so job_ is stable while a lane runs.
    std::atomic<std::uint64_t>& c =
        slots_[static_cast<std::size_t>(lane)].claimed;
    std::uint64_t cur = c.load(std::memory_order_relaxed);
    do {
        if (cur >= gen) return;
    } while (!c.compare_exchange_weak(cur, gen, std::memory_order_acquire,
                                      std::memory_order_relaxed));
    try {
        job_(job_ctx_, lane);
    } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (!first_error_) first_error_ = std::current_exception();
    }
    const std::uint64_t f =
        finished_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (f == gen * static_cast<std::uint64_t>(size())) finished_.notify_one();
}

void WorkerPool::worker_loop(int id) {
    Slot& slot = slots_[static_cast<std::size_t>(id)];
    const int cpu = cpu_of(id);
    if (cpu >= 0 && pin_self_to_cpu(cpu)) {
        pinned_.fetch_add(1, std::memory_order_release);
    }

    std::uint64_t seen = 0;
    while (true) {
        std::uint64_t s = slot.seq.load(std::memory_order_acquire);
        while (s == seen) {
            if (stop_.load(std::memory_order_acquire)) return;
            slot.seq.wait(s, std::memory_order_acquire);
            s = slot.seq.load(std::memory_order_acquire);
        }
        if (stop_.load(std::memory_order_acquire)) return;
        seen = s;
        // Own lane first, then every lane no thread has started. A worker
        // that wakes after its whole generation finished runs nothing and
        // goes back to waiting.
        for (int k = 0; k < size(); ++k) run_lane((id + k) % size(), seen);
    }
}

}  // namespace pipeleon::sim
