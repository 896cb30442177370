#include "workloads.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "analysis/pipelet.h"
#include "ir/builder.h"
#include "opt/transform.h"
#include "sim/nic_model.h"
#include "stats.h"
#include "trafficgen/workload.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hostbench {

using namespace pipeleon;

namespace {

/// Insert/erase pairs per control segment.
constexpr int kChurnStepsPerSegment = 5;

/// The Fig 11a controller: caching on, merging off. Every tick searches.
/// `deploys` false makes the gain threshold unreachable: ticks profile and
/// search but never redeploy, so a workload's program stays as set up.
runtime::ControllerConfig controller_config(bool deploys) {
    runtime::ControllerConfig cfg;
    cfg.optimizer.top_k_fraction = 1.0;
    cfg.optimizer.pipelet.max_length = 12;
    cfg.optimizer.search.allow_merge = false;
    cfg.optimizer.search.max_orders = 16;
    cfg.detector.threshold = 0.05;
    cfg.reoptimize_on_change_only = false;
    if (!deploys) cfg.min_relative_gain = 1e9;
    return cfg;
}

/// `n` exact tables t0..t{n-1} keyed on f0..f{n-1}, two no-op actions each.
ir::Program exact_chain(const std::string& name, int n, std::size_t size) {
    ir::ProgramBuilder b(name);
    for (int i = 0; i < n; ++i) {
        const std::string t = util::format("t%d", i);
        b.append(ir::TableSpec(t)
                     .key(util::format("f%d", i))
                     .noop_action(t + "_a0", 1)
                     .noop_action(t + "_a1", 1)
                     .default_to(t + "_a0")
                     .size(size)
                     .build());
    }
    return b.build();
}

ir::TableEntry exact_entry(std::uint64_t value, int action,
                           std::vector<std::uint64_t> data = {}) {
    ir::TableEntry e;
    e.key = {ir::FieldMatch::exact(value)};
    e.action_index = action;
    e.action_data = std::move(data);
    return e;
}

/// The field table a fresh emulator of `program` interns, so packets made
/// before any set-up carry the ids every instance will use.
sim::FieldTable fields_of(const sim::NicModel& nic, const ir::Program& program) {
    sim::Emulator probe(nic, program);
    return probe.fields();
}

/// Samples `bursts` bursts from the workload; counts how often each flow
/// was drawn.
std::vector<sim::PacketBatch> make_pool(trafficgen::Workload& gen,
                                        sim::FieldTable& fields,
                                        std::size_t bursts, std::size_t burst,
                                        std::vector<std::uint64_t>* freq) {
    std::vector<sim::PacketBatch> pool(bursts);
    if (freq != nullptr) freq->assign(gen.flows().size(), 0);
    for (sim::PacketBatch& b : pool) {
        b.reserve(burst);
        for (std::size_t i = 0; i < burst; ++i) {
            const std::size_t flow = gen.next_flow();
            if (freq != nullptr) ++(*freq)[flow];
            b.push_back(gen.flows().make_packet(flow, fields));
        }
    }
    return pool;
}

/// Throws when the rig's emulator interned fields differently from the
/// table the inputs were made with.
void check_fields(const Rig& rig, const sim::FieldTable& inputs) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const auto id = static_cast<sim::FieldId>(i);
        if (rig.emu.fields().find(inputs.name(id)) != id) {
            throw std::runtime_error("field ids differ between inputs and set-up");
        }
    }
}

/// A workload whose timed loop is rounds only. Its control plane is
/// measured on the second instance: insert-new / erase-oldest churn on
/// table t0 (keys from `churn_base` up), then one burst, so the window has
/// traffic to profile, and a tick.
class RoundsOnly : public Workload {
public:
    explicit RoundsOnly(std::uint64_t churn_base) : churn_base_(churn_base) {}

    void data_segment(Rig& rig, Clock::time_point until, Meter& m) override {
        while (Clock::now() < until) rig.round(next_burst(rig), &m);
    }

    bool separate_control() const override { return true; }

    void control_segment(Rig& rig, Meter& m) override {
        for (int k = 0; k < kChurnStepsPerSegment; ++k, ++rig.churn) {
            rig.insert("t0", exact_entry(churn_base_ + rig.churn, 0), &m);
            if (rig.churn > 0) {
                rig.erase("t0", {ir::FieldMatch::exact(churn_base_ + rig.churn - 1)}, &m);
            }
        }
        rig.round(next_burst(rig), nullptr);
        rig.tick(&m);
    }

    std::vector<std::string> churned_tables() const override { return {"t0"}; }

private:
    std::uint64_t churn_base_;
};

// ------------------------------------------------------------- fwd_tiny

/// One worker, a 2-table exact chain, 1,024 uniform flows: the in-order
/// ring path every figure bench runs on, where fixed per-packet costs
/// dominate. No cache, tier, worker-pool or control-plane work in the
/// timed loop.
class FwdTiny final : public RoundsOnly {
public:
    FwdTiny() : RoundsOnly(kChurnBase) {}

    const char* name() const override { return "fwd_tiny"; }
    int workers() const override { return 1; }

    void make_inputs(std::uint64_t seed) override {
        util::Rng rng(seed);
        program_ = exact_chain("fwd_tiny", 2, 2048);
        fields_ = fields_of(nic_, program_);
        // Flow values stay below 2^31; the churn keys sit above.
        trafficgen::FlowSet flows = trafficgen::FlowSet::generate(
            {{"f0", 0, kChurnBase - 1}, {"f1", 0, kChurnBase - 1}}, 1024, rng);
        for (int t = 0; t < 2; ++t) {
            std::unordered_set<std::uint64_t> seen;
            for (std::size_t f = 0; f < flows.size(); ++f) {
                const std::uint64_t v = flows.value_at(f, static_cast<std::size_t>(t));
                if (seen.insert(v).second) {
                    entries_[t].push_back(exact_entry(v, static_cast<int>(v % 2)));
                }
            }
        }
        trafficgen::Workload gen(std::move(flows), trafficgen::Locality::Uniform,
                                 0.0, rng.next_u64());
        pool_ = make_pool(gen, fields_, 64, burst(), nullptr);
    }

    std::unique_ptr<Rig> setup(Path path, std::size_t ring_capacity,
                               std::vector<sim::ProcessResult>* record) override {
        auto rig = std::make_unique<Rig>(nic_, program_, program_,
                                         controller_config(false), workers(),
                                         path, ring_capacity);
        rig->record = record;
        check_fields(*rig, fields_);
        for (int t = 0; t < 2; ++t) {
            for (const ir::TableEntry& e : entries_[t]) {
                rig->insert(util::format("t%d", t), e, nullptr);
            }
        }
        return rig;
    }

    void warm_up(Rig& rig) override {
        for (int i = 0; i < 256; ++i) rig.round(next_burst(rig), nullptr);
    }

private:
    static constexpr std::uint64_t kChurnBase = 1ULL << 31;
    sim::NicModel nic_ = sim::bluefield2_model();
    ir::Program program_;
    sim::FieldTable fields_;
    std::vector<ir::TableEntry> entries_[2];
};

// ------------------------------------------------------- flowcache_zipf

/// Two workers, an 8-table exact chain behind one root flow cache with
/// SRAM 8K / DRAM 32K / host 256K entries per shard, 300K Zipf-0.9 flows:
/// the parallel poll path (worker-pool wake/join, per-worker shards, RETA
/// steering, group-of-8 hashing with prefetch) over a working set larger
/// than SRAM. The control plane is idle in the timed loop.
class FlowcacheZipf final : public RoundsOnly {
public:
    FlowcacheZipf() : RoundsOnly(kValues) {}

    const char* name() const override { return "flowcache_zipf"; }
    int workers() const override { return 2; }

    void make_inputs(std::uint64_t seed) override {
        util::Rng rng(seed);
        original_ = exact_chain("flowcache_zipf", kTables, 1024);
        analysis::PipeletOptions popt;
        popt.max_length = kTables + 2;
        auto pipelets = analysis::form_pipelets(original_, popt);
        opt::PipeletPlan plan;
        plan.pipelet_id = 0;
        for (std::size_t i = 0; i < pipelets[0].nodes.size(); ++i) {
            plan.layout.order.push_back(i);
        }
        plan.layout.caches = {opt::Segment{0, kTables - 1}};
        plan.layout.cache_config.capacity = 8192;
        plan.layout.cache_config.max_insert_per_sec = 1e9;
        plan.layout.cache_config.tiers.dram_entries = 32768;
        plan.layout.cache_config.tiers.host_entries = 262144;
        deployed_ = opt::apply_plans(original_, pipelets, {plan});
        fields_ = fields_of(nic_, deployed_);

        // Each field takes one of kValues values, so every table holds
        // kValues entries while 300K flows stay distinct 8-tuples.
        std::vector<trafficgen::FieldRange> tuple;
        for (int i = 0; i < kTables; ++i) {
            tuple.push_back({util::format("f%d", i), 0, kValues - 1});
        }
        trafficgen::FlowSet flows =
            trafficgen::FlowSet::generate(tuple, 300'000, rng);
        trafficgen::Workload gen(std::move(flows), trafficgen::Locality::Zipf,
                                 0.9, rng.next_u64());
        // 1,536 bursts (393K packets) hold more distinct flows than SRAM
        // and DRAM together, so cycling them keeps the host tier in use.
        pool_ = make_pool(gen, fields_, 1536, burst(), nullptr);
    }

    std::unique_ptr<Rig> setup(Path path, std::size_t ring_capacity,
                               std::vector<sim::ProcessResult>* record) override {
        auto rig = std::make_unique<Rig>(nic_, deployed_, original_,
                                         controller_config(false), workers(),
                                         path, ring_capacity);
        rig->record = record;
        check_fields(*rig, fields_);
        for (int t = 0; t < kTables; ++t) {
            for (std::uint64_t v = 0; v < kValues; ++v) {
                rig->insert(util::format("t%d", t),
                            exact_entry(v, static_cast<int>(v % 2)), nullptr);
            }
        }
        return rig;
    }

    /// One pass over the pool: every flow of the pool is in some tier.
    void warm_up(Rig& rig) override {
        for (std::size_t i = 0; i < pool_.size(); ++i) {
            rig.round(next_burst(rig), nullptr);
        }
    }

private:
    static constexpr int kTables = 8;
    static constexpr std::uint64_t kValues = 64;
    sim::NicModel nic_ = sim::bluefield2_model();
    ir::Program original_;
    ir::Program deployed_;
    sim::FieldTable fields_;
};

// ------------------------------------------------------------- lb_churn

/// One worker running the Fig 11a load balancer (8 ternary tables, lb_vip,
/// lb_backend, two ACLs) under a ticking controller, while lb_vip churns
/// between bursts and the ACL deny set flips on a fixed tick schedule:
/// writes beside reads. Tiers and the worker pool are idle.
class LbChurn final : public Workload {
public:
    const char* name() const override { return "lb_churn"; }
    int workers() const override { return 1; }

    void make_inputs(std::uint64_t seed) override {
        util::Rng rng(seed);
        program_ = load_balancer();
        fields_ = fields_of(nic_, program_);
        std::vector<trafficgen::FieldRange> tuple;
        for (int i = 0; i < 8; ++i) tuple.push_back({util::format("pf%d", i), 0, 7});
        tuple.push_back({"vip", 0, kChurnBase - 1});
        tuple.push_back({"src_ip", 0, 1023});
        tuple.push_back({"dst_ip", 0, 1023});
        trafficgen::FlowSet flows =
            trafficgen::FlowSet::generate(tuple, 3000, rng);

        // Ternary rules in the processing tables: 5 masks each.
        proc_entries_.clear();
        for (int m = 0; m < 5; ++m) {
            ir::TableEntry e;
            e.key = {ir::FieldMatch::ternary(0, 0xFULL << m)};
            e.action_index = m % 2;
            e.priority = m;
            proc_entries_.push_back(e);
        }
        vip_entries_.clear();
        std::unordered_set<std::uint64_t> seen;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const std::uint64_t vip = flows.value(f, "vip");
            if (seen.insert(vip).second) {
                vip_entries_.push_back(exact_entry(vip, 0, {vip % 16}));
            }
        }

        trafficgen::Workload gen(flows, trafficgen::Locality::Zipf, 1.1,
                                 rng.next_u64());
        std::vector<std::uint64_t> freq;
        pool_ = make_pool(gen, fields_, 64, burst(), &freq);

        // The deny sets the ACL flips alternate between: the source (then
        // destination) addresses of the 8 most frequent flows.
        std::vector<std::size_t> order(flows.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) { return freq[a] > freq[b]; });
        for (int side = 0; side < 2; ++side) {
            std::vector<std::uint64_t>& set = deny_[side];
            set.clear();
            for (std::size_t i = 0; i < 8; ++i) {
                const std::uint64_t v =
                    flows.value(order[i], side == 0 ? "src_ip" : "dst_ip");
                if (std::find(set.begin(), set.end(), v) == set.end()) set.push_back(v);
            }
        }
    }

    std::unique_ptr<Rig> setup(Path path, std::size_t ring_capacity,
                               std::vector<sim::ProcessResult>* record) override {
        auto rig = std::make_unique<Rig>(nic_, program_, program_,
                                         controller_config(true), workers(),
                                         path, ring_capacity);
        rig->record = record;
        check_fields(*rig, fields_);
        for (int i = 0; i < 8; ++i) {
            for (const ir::TableEntry& e : proc_entries_) {
                rig->insert(util::format("proc%d", i), e, nullptr);
            }
        }
        for (std::uint64_t backend = 0; backend < 16; ++backend) {
            rig->insert("lb_backend", exact_entry(backend, 0, {backend}), nullptr);
        }
        for (const ir::TableEntry& e : vip_entries_) rig->insert("lb_vip", e, nullptr);
        for (std::uint64_t k = 0; k < kLiveChurn; ++k) {
            rig->insert("lb_vip", churn_entry(k), nullptr);
        }
        rig->churn = kLiveChurn;
        rig->ctl.api().begin_window();
        // First deploy: one profiled window, then the controller's first tick.
        for (int b = 0; b < kWindowBursts; ++b) rig->round(next_burst(*rig), nullptr);
        rig->tick(nullptr);
        return rig;
    }

    void warm_up(Rig& rig) override {
        for (int w = 0; w < 4; ++w) window(rig, nullptr);
    }

    void data_segment(Rig& rig, Clock::time_point, Meter& m) override {
        window(rig, &m);
    }

    bool separate_control() const override { return false; }

    void control_segment(Rig&, Meter&) override {}

    std::vector<std::string> churned_tables() const override {
        return {"lb_vip", "lb_acl0", "lb_acl1"};
    }

private:
    static constexpr std::uint64_t kChurnBase = 1ULL << 24;
    static constexpr std::uint64_t kLiveChurn = 256;
    static constexpr int kWindowBursts = 16;
    static constexpr std::uint64_t kFlipEvery = 4;  // ticks per ACL phase

    /// Like apps::load_balancer_program() but with ternary processing
    /// tables and room for the churned VIPs (the Fig 11a bench's program).
    static ir::Program load_balancer() {
        ir::ProgramBuilder b("lb_churn");
        for (int i = 0; i < 8; ++i) {
            const std::string name = util::format("proc%d", i);
            b.append(ir::TableSpec(name)
                         .key(util::format("pf%d", i), ir::MatchKind::Ternary)
                         .noop_action(name + "_a0", 1)
                         .noop_action(name + "_a1", 1)
                         .default_to(name + "_a0")
                         .build());
        }
        ir::Action pick;
        pick.name = "pick_backend";
        pick.primitives.push_back(ir::Primitive::set_from_arg("backend", 0));
        b.append(ir::TableSpec("lb_vip").key("vip").action(pick).size(4096).build());
        ir::Action fwd;
        fwd.name = "to_backend";
        fwd.primitives.push_back(ir::Primitive::forward_from_arg(0));
        b.append(ir::TableSpec("lb_backend").key("backend").action(fwd).size(4096).build());
        b.append(ir::TableSpec("lb_acl0")
                     .key("src_ip")
                     .noop_action("lb_acl0_allow", 1)
                     .drop_action("lb_acl0_deny")
                     .default_to("lb_acl0_allow")
                     .build());
        b.append(ir::TableSpec("lb_acl1")
                     .key("dst_ip")
                     .noop_action("lb_acl1_allow", 1)
                     .drop_action("lb_acl1_deny")
                     .default_to("lb_acl1_allow")
                     .build());
        return b.build();
    }

    static ir::TableEntry churn_entry(std::uint64_t k) {
        return exact_entry(kChurnBase + k, 0, {k % 16});
    }

    /// One window: a churn step (insert the next VIP, erase the oldest)
    /// before each burst, the lb_vip count check, the ACL flip when due,
    /// then a controller tick.
    void window(Rig& rig, Meter* m) {
        for (int b = 0; b < kWindowBursts; ++b) {
            rig.insert("lb_vip", churn_entry(rig.churn), m);
            rig.erase("lb_vip", {ir::FieldMatch::exact(kChurnBase + rig.churn - kLiveChurn)},
                      m);
            ++rig.churn;
            rig.round(next_burst(rig), m);
        }
        if (rig.emu.entry_count("lb_vip") != rig.ctl.api().entries("lb_vip").size()) {
            ++count_mismatches;
        }
        if (rig.ticks % kFlipEvery == 0) flip(rig);
        if (m != nullptr && m->spans != nullptr) count_lookups(rig.emu, m->lookups);
        rig.tick(m);
    }

    /// Moves the deny set to the other ACL: erase the current side's
    /// entries, install the other side's. These ops stay out of the op
    /// latency sample, which covers the churned table only.
    void flip(Rig& rig) {
        const int next = rig.acl_side == 0 ? 1 : 0;
        if (rig.acl_side >= 0) {
            const char* table = rig.acl_side == 0 ? "lb_acl0" : "lb_acl1";
            for (std::uint64_t v : deny_[rig.acl_side]) {
                rig.erase(table, {ir::FieldMatch::exact(v)}, nullptr);
            }
        }
        const char* table = next == 0 ? "lb_acl0" : "lb_acl1";
        for (std::uint64_t v : deny_[next]) rig.insert(table, exact_entry(v, 1), nullptr);
        rig.acl_side = next;
    }

    sim::NicModel nic_ = sim::bluefield2_model();
    ir::Program program_;
    sim::FieldTable fields_;
    std::vector<ir::TableEntry> proc_entries_;
    std::vector<ir::TableEntry> vip_entries_;
    std::vector<std::uint64_t> deny_[2];
};

}  // namespace

// ------------------------------------------------------------------ Rig

Rig::Rig(const sim::NicModel& nic, ir::Program deployed, ir::Program original,
         runtime::ControllerConfig config, int workers, Path p,
         std::size_t ring_capacity)
    : emu(nic, std::move(deployed)),
      ctl(emu, std::move(original), cost::CostModel(nic.costs), std::move(config)),
      path(p) {
    emu.set_worker_count(workers);
    if (path == Path::Ring) {
        sim::RingConfig cfg;
        cfg.rx_capacity = ring_capacity;
        rings.emplace(emu.make_rings(cfg));
    }
}

void Rig::tally(const std::vector<sim::ProcessResult>& results) {
    for (const sim::ProcessResult& r : results) {
        cycles += r.cycles;
        policy_drops += r.dropped ? 1 : 0;
        nodes += static_cast<std::uint64_t>(r.nodes_visited);
    }
    reaped += results.size();
    if (record != nullptr) record->insert(record->end(), results.begin(), results.end());
}

void Rig::round(const sim::PacketBatch& burst, Meter* m) {
    if (path == Path::Ring) {
        const bool cpu_per_round = m != nullptr && emu.worker_count() == 1;
        const double cpu0 = cpu_per_round ? cpu_seconds() : 0.0;
        const std::uint64_t t0 = SpanLog::now_ns();
        rings->dispatch_batch(burst);
        const std::uint64_t t1 = SpanLog::now_ns();
        emu.poll(*rings, out_);
        const std::uint64_t t2 = SpanLog::now_ns();
        tally(out_.results);
        if (m != nullptr) {
            if (cpu_per_round) {
                m->cpu_ns_per_pkt.push_back((cpu_seconds() - cpu0) * 1e9 /
                                            static_cast<double>(burst.size()));
            }
            m->round_ns.push_back(static_cast<double>(t2 - t0));
            m->dispatch_ns.push_back(static_cast<double>(t1 - t0));
            m->poll_ns.push_back(static_cast<double>(t2 - t1));
            if (m->spans != nullptr) {
                m->spans->add("bench.dispatch", t0, t1 - t0);
                m->spans->add("bench.poll", t1, t2 - t1);
                if (rounds % Meter::kEmptyPollEvery == 0) {
                    const std::uint64_t t3 = SpanLog::now_ns();
                    emu.poll(*rings, out_);
                    const std::uint64_t t4 = SpanLog::now_ns();
                    tally(out_.results);
                    m->empty_poll_ns.push_back(static_cast<double>(t4 - t3));
                    m->spans->add("bench.poll_empty", t3, t4 - t3);
                }
            }
        }
    } else {
        out_.results.clear();
        for (const sim::Packet& p : burst) {
            sim::Packet copy = p;
            out_.results.push_back(emu.process(copy));
        }
        tally(out_.results);
    }
    offered += burst.size();
    ++rounds;
    emu.advance_time(kBurstSeconds);
}

bool Rig::insert(const std::string& table, const ir::TableEntry& entry, Meter* m) {
    const std::uint64_t t0 = SpanLog::now_ns();
    const bool ok = ctl.api().insert(emu, table, entry);
    note_op(ok, t0, m);
    return ok;
}

bool Rig::erase(const std::string& table, const std::vector<ir::FieldMatch>& key,
                Meter* m) {
    const std::uint64_t t0 = SpanLog::now_ns();
    const bool ok = ctl.api().erase(emu, table, key);
    note_op(ok, t0, m);
    return ok;
}

void Rig::note_op(bool ok, std::uint64_t t0, Meter* m) {
    const std::uint64_t t1 = SpanLog::now_ns();
    ++ops;
    if (!ok) ++ops_failed;
    if (m != nullptr) {
        m->op_ns.push_back(static_cast<double>(t1 - t0));
        if (m->spans != nullptr) m->spans->add("bench.op", t0, t1 - t0);
    }
}

runtime::TickResult Rig::tick(Meter* m) {
    const std::uint64_t t0 = SpanLog::now_ns();
    runtime::TickResult r = ctl.tick();
    const std::uint64_t t1 = SpanLog::now_ns();
    ++ticks;
    if (m != nullptr) {
        m->tick_ns.push_back(static_cast<double>(t1 - t0));
        if (r.deployed) ++m->ticks_deployed;
        if (r.verify_rejected) ++m->verify_rejects;
        if (r.searched && r.outcome.has_value()) {
            ++m->ticks_searched;
            m->candidates += r.outcome->candidates_evaluated;
        }
        if (m->spans != nullptr) m->spans->add("bench.tick", t0, t1 - t0);
    }
    return r;
}

const sim::PacketBatch& Workload::next_burst(Rig& rig) const {
    const sim::PacketBatch& b = pool_[rig.cursor];
    rig.cursor = (rig.cursor + 1) % pool_.size();
    return b;
}

void count_lookups(const sim::Emulator& emu, Lookups& into) {
    const profile::RawCounters raw = emu.read_counters();
    const ir::Program& program = emu.program();
    for (std::size_t id = 0; id < program.node_count(); ++id) {
        const ir::Node& n = program.node(static_cast<ir::NodeId>(id));
        if (!n.is_table()) continue;
        if (n.table.role == ir::TableRole::Cache) {
            into.cache += raw.cache_hits[id] + raw.cache_misses[id];
            continue;
        }
        std::uint64_t lookups = raw.misses[id];
        for (std::uint64_t h : raw.action_hits[id]) lookups += h;
        const ir::MatchKind kind =
            n.table.keys.empty() ? ir::MatchKind::Exact : n.table.keys[0].kind;
        if (kind == ir::MatchKind::Exact) {
            into.exact += lookups;
        } else if (kind == ir::MatchKind::Ternary) {
            into.ternary += lookups;
        } else {
            into.other += lookups;
        }
    }
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "fwd_tiny") return std::make_unique<FwdTiny>();
    if (name == "flowcache_zipf") return std::make_unique<FlowcacheZipf>();
    if (name == "lb_churn") return std::make_unique<LbChurn>();
    return nullptr;
}

}  // namespace hostbench
