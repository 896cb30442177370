// sim/control_queue.h — the typed MPSC control-plane op queue (ISSUE 3).
// Real SmartNIC control paths never mutate match engines mid-burst: driver
// update rings buffer entry ops and the datapath picks them up at safe
// points. This queue is the emulator's update ring. Any thread may push a
// ControlOp at any time, and the data-plane coordinator drains the pending
// ops — in enqueue order — at batch boundaries, before a batch's packets
// run. A program swap travels the same path as an entry insert: it is just
// the heaviest op kind, carrying the new program plus the full remapped
// entry set so the swap is observed atomically by the data plane (one epoch
// ends, the next begins between two batches).
//
// The push side is an intrusive lock-free MPSC linked list (Vyukov's
// algorithm, ISSUE 4): a producer allocates its node, swings the shared
// tail with one exchange, and links its predecessor — two wait-free atomic
// ops, no mutex, so a control caller can never be descheduled while holding
// a lock the data plane's drain would then spin on. The (single) consumer
// walks the chain from the stub; a node whose `next` is still null while
// the tail says more exist marks a producer between its exchange and its
// link store — the consumer yields until the link lands (the classic
// momentary gap of this algorithm; bounded by two instructions on the
// producer side).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/entry.h"
#include "ir/program.h"
#include "profile/profile.h"

namespace pipeleon::sim {

/// A queued program swap: the new program and the remapped (deployed-space)
/// entry sets to install in the same epoch transition. `incremental` selects
/// reconfigure_incremental semantics (warm caches, partial downtime).
struct EpochSwap {
    ir::Program program;
    std::vector<ir::EntryLoad> entries;
    bool incremental = false;
};

/// One change to an original table's entries, mirrored from the runtime's
/// authoritative store (runtime::ApiMapper, §2.3) onto the deployed
/// program in a single control op (Emulator::mirror).
struct StoreChange {
    enum class Kind : std::uint8_t { Insert, Erase, Modify };

    Kind kind = Kind::Insert;
    std::string table;                  ///< the original table
    ir::TableEntry entry;               ///< Insert / Modify
    std::vector<ir::FieldMatch> key;    ///< Erase
    /// Rebuilt cross products of the merged tables implementing `table`.
    std::vector<ir::EntryLoad> merged;
};

/// One queued control-plane operation. A tagged union kept as plain fields:
/// ops are rare relative to packets, so clarity beats compactness here.
struct ControlOp {
    enum class Kind : std::uint8_t {
        InsertEntry,
        DeleteEntry,
        ModifyEntry,
        SetEntries,
        BeginWindow,
        SetInstrumentation,
        SetWorkerCount,
        Swap,
        Mirror,
    };

    Kind kind = Kind::BeginWindow;
    std::string table;                    ///< entry ops
    ir::TableEntry entry;                 ///< InsertEntry / ModifyEntry
    std::vector<ir::FieldMatch> key;      ///< DeleteEntry
    std::vector<ir::TableEntry> entries;  ///< SetEntries
    profile::InstrumentationConfig instrumentation;  ///< SetInstrumentation
    int workers = 1;                      ///< SetWorkerCount
    /// Swap payload, boxed: programs are heavy and ops move through vectors.
    std::shared_ptr<EpochSwap> swap;
    StoreChange change;                   ///< Mirror

    /// Sequence number assigned by ControlQueue::push — lets a caller that
    /// drains synchronously find its own op's result in the drained run.
    std::uint64_t seq = 0;
};

/// Multi-producer, single-consumer queue of pending control ops. Producers
/// push lock-free (two atomic ops); the single drain side — serialized by
/// the emulator's control lock — takes the whole backlog in enqueue order.
/// Nothing here ever waits on the data plane — that is the point.
class ControlQueue {
public:
    ControlQueue();
    ~ControlQueue();
    ControlQueue(const ControlQueue&) = delete;
    ControlQueue& operator=(const ControlQueue&) = delete;

    /// Lock-free append from any thread. Returns the op's sequence number
    /// (assigned at push; monotonic per queue).
    std::uint64_t push(ControlOp op);

    /// Removes and returns every pending op, in enqueue order. Single
    /// consumer only (the emulator calls this under its control lock).
    std::vector<ControlOp> drain();

    /// Pending-op count from the push/drain counters. Exact when quiescent;
    /// momentarily conservative (never negative) against racing pushes.
    std::size_t depth() const;
    bool empty() const { return depth() == 0; }

    /// Total ops ever pushed.
    std::uint64_t total_pushed() const;
    /// High-water mark of the backlog.
    std::size_t max_depth() const;

private:
    struct Node {
        std::atomic<Node*> next{nullptr};
        ControlOp op;
    };

    /// Producers swing tail_; the consumer owns head_ (the stub / last
    /// consumed node, kept allocated until the next drain passes it).
    std::atomic<Node*> tail_;
    Node* head_;

    std::atomic<std::uint64_t> pushed_{0};
    std::atomic<std::uint64_t> drained_{0};
    std::atomic<std::size_t> max_depth_{0};
};

}  // namespace pipeleon::sim
