// Figure 17 / Appendix A.2 — table copying to reduce ASIC<->CPU migrations.
// The program interleaves ASIC-supported tables (hw1..hw4) with CPU-only
// tables (sw1..sw4); a branch sends a fraction of traffic down the software
// path. The naive partition bounces such packets between cores; copying k of
// the hw tables onto the CPU removes bounces. Copying ONE table does not
// reduce migrations at all (it only moves a table to the slower core) —
// exactly the paper's observation.
#include "bench/common.h"
#include "bench/report.h"
#include "ir/builder.h"
#include "sim/nic_model.h"
#include "util/strings.h"

using namespace pipeleon;

namespace {

/// Builds the two-path program: hw-only fast path vs the interleaved
/// hw/sw path; the first `copies` hw tables of the slow path run on CPU.
ir::Program copied_program(int copies) {
    ir::ProgramBuilder b("fig17");
    ir::NodeId br = b.add_branch({"to_sw", ir::CmpOp::Eq, 1});

    // Fast path: the four hw tables only.
    ir::NodeId fast_head = ir::kNoNode, fast_tail = ir::kNoNode;
    for (int i = 1; i <= 4; ++i) {
        ir::NodeId id = b.add(ir::TableSpec(util::format("fast_hw%d", i))
                                  .key(util::format("h%d", i))
                                  .noop_action("a", 1)
                                  .build());
        if (fast_head == ir::kNoNode) fast_head = id;
        if (fast_tail != ir::kNoNode) b.connect(fast_tail, id);
        fast_tail = id;
    }

    // Slow path: hw1 sw1 hw2 sw2 hw3 sw3 hw4 sw4; hw copies run on CPU.
    ir::NodeId slow_head = ir::kNoNode, slow_tail = ir::kNoNode;
    std::vector<ir::NodeId> slow_nodes;
    for (int i = 1; i <= 4; ++i) {
        ir::NodeId hw = b.add(ir::TableSpec(util::format("slow_hw%d", i))
                                  .key(util::format("h%d", i))
                                  .noop_action("a", 1)
                                  .build());
        ir::NodeId sw = b.add(ir::TableSpec(util::format("slow_sw%d", i))
                                  .key(util::format("s%d", i))
                                  .noop_action("a", 1)
                                  .cpu_only()
                                  .build());
        for (ir::NodeId id : {hw, sw}) {
            if (slow_head == ir::kNoNode) slow_head = id;
            if (slow_tail != ir::kNoNode) b.connect(slow_tail, id);
            slow_tail = id;
            slow_nodes.push_back(id);
        }
    }
    b.connect_branch(br, slow_head, fast_head);
    b.set_root(br);
    ir::Program p = b.build();

    // Core assignment: sw tables and the first `copies` hw tables -> CPU.
    for (ir::NodeId id : p.reachable()) {
        ir::Node& n = p.node(id);
        if (!n.is_table()) continue;
        if (!n.table.asic_supported) n.core = ir::CoreKind::Cpu;
    }
    for (int i = 1; i <= copies; ++i) {
        ir::NodeId id = p.find_table(util::format("slow_hw%d", i));
        p.node(id).core = ir::CoreKind::Cpu;
    }
    return p;
}

}  // namespace

int main() {
    bench::section("Figure 17: table copying vs migration overhead "
                   "(emulated NIC)");

    util::Rng rng(3);
    trafficgen::FlowSet flows = trafficgen::FlowSet::generate(
        {{"h1", 0, 63}, {"h2", 0, 63}, {"h3", 0, 63}, {"h4", 0, 63},
         {"s1", 0, 63}, {"s2", 0, 63}, {"s3", 0, 63}, {"s4", 0, 63}},
        512, rng);

    auto measure = [&](int copies, double migration_cost, double sw_fraction) {
        sim::NicModel nic = sim::emulated_nic_model();
        nic.costs.l_migration = migration_cost;
        sim::Emulator emu(nic, copied_program(copies), {});
        util::Rng traffic_rng(11);
        trafficgen::Workload wl(flows, trafficgen::Locality::Uniform, 0.0, 7);
        util::RunningStats cycles;
        sim::FieldId to_sw = emu.fields().intern("to_sw");
        bench::RingPump pump(emu, 500);
        for (int done = 0; done < 6000; done += 500) {
            sim::PacketBatch batch = wl.next_batch(emu.fields(), 500);
            for (sim::Packet& p : batch) {
                p.set(to_sw, traffic_rng.chance(sw_fraction) ? 1 : 0);
            }
            const sim::BatchResult& r = pump.pump(batch);
            for (const sim::ProcessResult& pr : r.results) cycles.add(pr.cycles);
        }
        return cycles.mean();
    };

    std::printf("\n(a) emulated packet latency vs copies, 50%% software "
                "traffic, three migration latencies\n");
    double lat_none = 0.0, lat_all = 0.0;
    util::TextTable ta({"# copied", "mig=20", "mig=60", "mig=120"});
    for (int copies = 0; copies <= 4; ++copies) {
        double mid = measure(copies, 60.0, 0.5);
        if (copies == 0) lat_none = mid;
        if (copies == 4) lat_all = mid;
        ta.add_row({std::to_string(copies),
                    util::format("%.1f", measure(copies, 20.0, 0.5)),
                    util::format("%.1f", mid),
                    util::format("%.1f", measure(copies, 120.0, 0.5))});
    }
    std::printf("%s", ta.to_string().c_str());

    std::printf("\n(b) emulated packet latency vs copies, migration=60, "
                "three software-traffic shares\n");
    util::TextTable tb({"# copied", "30% sw", "50% sw", "70% sw"});
    for (int copies = 0; copies <= 4; ++copies) {
        tb.add_row({std::to_string(copies),
                    util::format("%.1f", measure(copies, 60.0, 0.3)),
                    util::format("%.1f", measure(copies, 60.0, 0.5)),
                    util::format("%.1f", measure(copies, 60.0, 0.7))});
    }
    std::printf("%s", tb.to_string().c_str());

    std::printf("\npaper shape: latency drops as more tables are copied; the\n"
                "benefit grows with migration latency and software share;\n"
                "copying only ONE table does not reduce migrations (the\n"
                "branch->hw1 crossing replaces the hw1->sw1 crossing) and\n"
                "can even cost a little (CPU slowdown).\n");

    bench::Reporter rep("fig17_table_copy", sim::emulated_nic_model());
    rep.metric("latency_no_copies_cycles", lat_none);
    rep.metric("latency_all_copies_cycles", lat_all);
    rep.write();
    return 0;
}
