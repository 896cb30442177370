// Tests for sim/emulator: run-to-completion execution, latency accounting
// against the cost model, flow caches (learning, replay, LRU, rate limits,
// invalidation), counters with sampling, migration, and reconfiguration.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "sim/emulator.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pipeleon::sim {
namespace {

using ir::Action;
using ir::FieldMatch;
using ir::kNoNode;
using ir::MatchKind;
using ir::NodeId;
using ir::Primitive;
using ir::Program;
using ir::ProgramBuilder;
using ir::Table;
using ir::TableEntry;
using ir::TableSpec;

NicModel test_model() {
    NicModel m;
    m.name = "test";
    m.costs.l_mat = 10.0;
    m.costs.l_act = 2.0;
    m.costs.l_branch = 1.0;
    m.costs.l_counter = 0.0;
    m.costs.l_migration = 100.0;
    m.costs.cpu_slowdown = 3.0;
    m.line_rate_gbps = 100.0;
    m.cycles_per_second = 1e9;
    m.cores = 1;
    return m;
}

profile::InstrumentationConfig no_instr() {
    profile::InstrumentationConfig c;
    c.enabled = false;
    return c;
}

TableEntry exact_entry(std::uint64_t key, int action,
                       std::vector<std::uint64_t> data = {}) {
    TableEntry e;
    e.key = {FieldMatch::exact(key)};
    e.action_index = action;
    e.action_data = std::move(data);
    return e;
}

TEST(Emulator, ExactTableHitExecutesAction) {
    ProgramBuilder b("p");
    Action set_meta;
    set_meta.name = "set_meta";
    set_meta.primitives.push_back(Primitive::set_from_arg("meta", 0));
    b.append(TableSpec("t").key("f").action(set_meta).build());
    Emulator emu(test_model(), b.build(), no_instr());

    ASSERT_TRUE(emu.insert_entry("t", exact_entry(7, 0, {99})));
    Packet pkt;
    pkt.set(emu.fields().intern("f"), 7);
    ProcessResult r = emu.process(pkt);
    EXPECT_EQ(pkt.get(emu.fields().find("meta")), 99u);
    EXPECT_FALSE(r.dropped);
    // 1 exact lookup (10) + 1 primitive (2).
    EXPECT_DOUBLE_EQ(r.cycles, 12.0);
    EXPECT_EQ(r.nodes_visited, 1);
}

TEST(Emulator, MissRunsDefaultAction) {
    ProgramBuilder b("p");
    b.append(TableSpec("t")
                 .key("f")
                 .noop_action("hit", 1)
                 .drop_action("deny")
                 .default_to("deny")
                 .build());
    Emulator emu(test_model(), b.build(), no_instr());
    Packet pkt;
    pkt.set(emu.fields().intern("f"), 123);  // no entries -> miss -> deny
    ProcessResult r = emu.process(pkt);
    EXPECT_TRUE(r.dropped);
    EXPECT_EQ(emu.packets_dropped(), 1u);
}

TEST(Emulator, MissWithoutDefaultContinues) {
    ProgramBuilder b("p");
    b.append(TableSpec("t0").key("f").noop_action("a", 1).build());
    b.append(TableSpec("t1").key("g").noop_action("b", 1).build());
    Emulator emu(test_model(), b.build(), no_instr());
    Packet pkt;
    ProcessResult r = emu.process(pkt);
    EXPECT_EQ(r.nodes_visited, 2);  // both tables looked up, no action run
    EXPECT_DOUBLE_EQ(r.cycles, 20.0);
}

TEST(Emulator, DropHaltsExecution) {
    ProgramBuilder b("p");
    b.append(TableSpec("acl")
                 .key("f")
                 .drop_action("deny")
                 .noop_action("ok", 1)
                 .default_to("ok")
                 .build());
    b.append(TableSpec("t").key("g").noop_action("a", 5).build());
    Emulator emu(test_model(), b.build(), no_instr());
    ASSERT_TRUE(emu.insert_entry("acl", exact_entry(1, 0)));

    Packet bad;
    bad.set(emu.fields().intern("f"), 1);
    ProcessResult r = emu.process(bad);
    EXPECT_TRUE(r.dropped);
    EXPECT_EQ(r.nodes_visited, 1);  // never reached t

    Packet good;
    good.set(emu.fields().intern("f"), 2);
    ProcessResult r2 = emu.process(good);
    EXPECT_FALSE(r2.dropped);
    EXPECT_EQ(r2.nodes_visited, 2);
    EXPECT_GT(r2.cycles, r.cycles);
}

TEST(Emulator, BranchRouting) {
    ProgramBuilder b("p");
    NodeId br = b.add_branch({"proto", ir::CmpOp::Eq, 6});
    NodeId tcp = b.add(TableSpec("tcp").key("sport").noop_action("a", 1).build());
    NodeId other = b.add(TableSpec("other").key("x").noop_action("a", 2).build());
    b.connect_branch(br, tcp, other);
    b.set_root(br);
    Emulator emu(test_model(), b.build(), {});  // instrumented

    Packet p1;
    p1.set(emu.fields().intern("proto"), 6);
    emu.process(p1);
    Packet p2;
    p2.set(emu.fields().intern("proto"), 17);
    emu.process(p2);

    auto raw = emu.read_counters();
    EXPECT_EQ(raw.branch_true[static_cast<std::size_t>(br)], 1u);
    EXPECT_EQ(raw.branch_false[static_cast<std::size_t>(br)], 1u);
}

TEST(Emulator, LatencyMatchesCostModelForChain) {
    // Emulated per-packet cycles must equal the cost model's L(G) for a
    // deterministic single-path program.
    Program p = ir::chain_of_exact_tables("c", 6, 1, 2);
    Emulator emu(test_model(), p, no_instr());
    Packet pkt;
    ProcessResult r = emu.process(pkt);

    // Cost model: 6 tables * (1*10 + ... ) — misses with default action a0
    // (2 noop primitives): 10 + 2*2 = 14 each.
    EXPECT_DOUBLE_EQ(r.cycles, 6 * 14.0);
}

TEST(Emulator, TernaryTableChargesMaskCount) {
    ProgramBuilder b("p");
    b.append(TableSpec("t").key("f", MatchKind::Ternary).noop_action("a").build());
    Emulator emu(test_model(), b.build(), no_instr());
    // Three distinct masks -> m = 3 probes.
    for (std::uint64_t i = 0; i < 3; ++i) {
        TableEntry e;
        e.key = {FieldMatch::ternary(0, 0xFULL << (8 * i))};
        e.action_index = 0;
        ASSERT_TRUE(emu.insert_entry("t", e));
    }
    Packet pkt;
    pkt.set(emu.fields().intern("f"), 0);  // matches every mask group
    ProcessResult r = emu.process(pkt);
    // m=3 lookups (30) + 1 noop primitive (2).
    EXPECT_DOUBLE_EQ(r.cycles, 32.0);
}

TEST(Emulator, CountersAndSampling) {
    profile::InstrumentationConfig instr;
    instr.enabled = true;
    instr.sampling_rate = 1.0;
    Program p = ir::chain_of_exact_tables("c", 2, 1, 1);
    NicModel counting = test_model();
    counting.costs.l_counter = 0.5;
    Emulator emu(counting, p, instr);
    Packet pkt;
    ProcessResult r = emu.process(pkt);
    // Counter update cost: 0.5 per node.
    EXPECT_DOUBLE_EQ(r.cycles, 2 * (10.0 + 2.0 + 0.5));

    auto raw = emu.read_counters();
    EXPECT_EQ(raw.misses[0], 1u);  // miss executes default a0

    // Sampled 1/4: only every 4th packet pays and counts, export rescales.
    emu.set_instrumentation({true, 0.25});
    emu.begin_window();
    double cycles_sampled = 0.0, cycles_unsampled = 1e18;
    for (int i = 0; i < 8; ++i) {
        Packet q;
        double c = emu.process(q).cycles;
        cycles_sampled = std::max(cycles_sampled, c);
        cycles_unsampled = std::min(cycles_unsampled, c);
    }
    EXPECT_DOUBLE_EQ(cycles_sampled, 2 * 12.5);
    EXPECT_DOUBLE_EQ(cycles_unsampled, 2 * 12.0);
    auto raw2 = emu.read_counters();
    EXPECT_EQ(raw2.misses[0], 8u);  // 2 sampled * 4 (rescaled)
}

Program cached_two_tables() {
    // cache(A,B) -> [A -> B] -> exit, built via the transform would be
    // equivalent; construct manually for a focused test.
    ProgramBuilder b("cached");
    Action set_x;
    set_x.name = "set_x";
    set_x.primitives.push_back(Primitive::set_from_arg("x", 0));
    Table a = TableSpec("A").key("src").action(set_x).build();
    Action set_y;
    set_y.name = "set_y";
    set_y.primitives.push_back(Primitive::set_from_arg("y", 0));
    Table bt = TableSpec("B").key("dst").action(set_y).build();

    ir::Table cache;
    cache.name = "cache_A_B";
    cache.role = ir::TableRole::Cache;
    cache.keys = {{"src", MatchKind::Exact, 32}, {"dst", MatchKind::Exact, 32}};
    Action hit;
    hit.name = "cache_hit";
    cache.actions.push_back(hit);
    cache.default_action = -1;
    cache.origin_tables = {"A", "B"};
    cache.cache.capacity = 4;
    cache.cache.max_insert_per_sec = 1000.0;

    NodeId c = b.add(cache);
    NodeId na = b.add(a);
    NodeId nb = b.add(bt);
    b.connect_action(c, 0, kNoNode);
    b.connect_miss(c, na);
    b.connect(na, nb);
    b.set_root(c);
    return b.build();
}

TEST(Emulator, CacheLearnsAndReplays) {
    Emulator emu(test_model(), cached_two_tables(), {});  // instrumented
    ASSERT_TRUE(emu.insert_entry("A", exact_entry(1, 0, {11})));
    ASSERT_TRUE(emu.insert_entry("B", exact_entry(2, 0, {22})));

    FieldId src = emu.fields().intern("src");
    FieldId dst = emu.fields().intern("dst");

    // First packet misses the cache, traverses A and B, installs an entry.
    Packet p1;
    p1.set(src, 1);
    p1.set(dst, 2);
    ProcessResult r1 = emu.process(p1);
    EXPECT_EQ(p1.get(emu.fields().find("x")), 11u);
    EXPECT_EQ(p1.get(emu.fields().find("y")), 22u);
    // cache probe + A (10+2) + B (10+2).
    EXPECT_DOUBLE_EQ(r1.cycles, 10.0 + 12.0 + 12.0);
    EXPECT_EQ(emu.cache_size("cache_A_B"), 1u);

    // Second packet of the same flow hits the cache: replay only.
    Packet p2;
    p2.set(src, 1);
    p2.set(dst, 2);
    ProcessResult r2 = emu.process(p2);
    EXPECT_EQ(p2.get(emu.fields().find("x")), 11u);
    EXPECT_EQ(p2.get(emu.fields().find("y")), 22u);
    // cache probe (10) + replayed primitives (2 + 2).
    EXPECT_DOUBLE_EQ(r2.cycles, 14.0);

    auto raw = emu.read_counters();
    NodeId cache_node = emu.program().find_table("cache_A_B");
    EXPECT_EQ(raw.cache_hits[static_cast<std::size_t>(cache_node)], 1u);
    EXPECT_EQ(raw.cache_misses[static_cast<std::size_t>(cache_node)], 1u);
    EXPECT_EQ((raw.replays.at({cache_node, "A", "set_x"})), 1u);
    EXPECT_EQ((raw.replays.at({cache_node, "B", "set_y"})), 1u);
}

TEST(Emulator, CacheReplaysMissOutcomes) {
    Emulator emu(test_model(), cached_two_tables(), no_instr());
    ASSERT_TRUE(emu.insert_entry("A", exact_entry(1, 0, {11})));
    // B has no entries; flow (1, 9) hits A, misses B.
    FieldId src = emu.fields().intern("src");
    FieldId dst = emu.fields().intern("dst");
    Packet p1;
    p1.set(src, 1);
    p1.set(dst, 9);
    emu.process(p1);
    Packet p2;
    p2.set(src, 1);
    p2.set(dst, 9);
    ProcessResult r2 = emu.process(p2);
    EXPECT_EQ(p2.get(emu.fields().find("x")), 11u);
    EXPECT_EQ(p2.get(emu.fields().find("y")), 0u);  // B missed, no default
    // cache probe + replay of A's primitive only.
    EXPECT_DOUBLE_EQ(r2.cycles, 12.0);
}

/// Replay against an independent oracle. A randomized chain of exact,
/// ternary and LPM tables runs behind one cache covering all of them: some
/// tables have no default, actions take arguments (set_from_arg,
/// forward_from_arg), and a drop sits partway along. Every packet must
/// leave the cached program with the fields, egress and drop verdict the
/// uncached chain gives it, and read_counters().replays must equal a model
/// built from the uncached walks: per cache hit, one replay per covered
/// table the flow visited, under the action that ran there (a miss counts
/// as the table's default, and not at all without one).
TEST(Emulator, CacheReplayMatchesUncachedOracle) {
    constexpr int kTables = 6;
    constexpr int kWidth = 8;
    util::Rng rng(17);
    const MatchKind kinds[kTables] = {MatchKind::Exact, MatchKind::Ternary,
                                      MatchKind::Lpm,   MatchKind::Exact,
                                      MatchKind::Ternary, MatchKind::Lpm};
    std::vector<std::string> fields;  // every field an action writes
    std::vector<Table> tables;
    for (int t = 0; t < kTables; ++t) {
        const std::string x = util::format("x%d", t);
        const std::string y = util::format("y%d", t);
        fields.push_back(x);
        fields.push_back(y);
        Action set_two;  // two arguments
        set_two.name = "set_two";
        set_two.primitives.push_back(Primitive::set_from_arg(x, 0));
        set_two.primitives.push_back(Primitive::set_from_arg(y, 1));
        Action fwd;
        fwd.name = "fwd";
        fwd.primitives.push_back(Primitive::forward_from_arg(0));
        fwd.primitives.push_back(Primitive::add_const(x, 3));
        Action mark;  // no arguments
        mark.name = "mark";
        mark.primitives.push_back(Primitive::set_const(y, 100 + t));
        TableSpec spec(util::format("t%d", t));
        spec.key(util::format("k%d", t), kinds[t], kWidth)
            .action(set_two)
            .action(fwd)
            .action(mark);
        if (t == 2) spec.drop_action("deny");
        // t0 and t4 have no default; the others pick one at random.
        if (t != 0 && t != 4) {
            const char* defaults[] = {"set_two", "fwd", "mark"};
            spec.default_to(defaults[rng.next_below(3)]);
        }
        tables.push_back(spec.build());
    }

    ProgramBuilder plain_b("plain");
    for (const Table& t : tables) plain_b.append(t);
    ProgramBuilder cached_b("cached");
    ir::Table cache;
    cache.name = "cache_all";
    cache.role = ir::TableRole::Cache;
    for (int t = 0; t < kTables; ++t) {
        cache.keys.push_back({util::format("k%d", t), MatchKind::Exact, kWidth});
        cache.origin_tables.push_back(tables[static_cast<std::size_t>(t)].name);
    }
    Action hit;
    hit.name = "cache_hit";
    cache.actions.push_back(hit);
    cache.cache.capacity = 4096;
    cache.cache.max_insert_per_sec = 1e9;
    const NodeId cache_node = cached_b.append(cache);
    NodeId prev = kNoNode;
    for (const Table& t : tables) {
        const NodeId id = cached_b.add(t);
        if (prev == kNoNode) {
            cached_b.connect_miss(cache_node, id);
        } else {
            cached_b.connect(prev, id);
        }
        prev = id;
    }
    Emulator plain(test_model(), plain_b.build(), {});
    Emulator cached(test_model(), cached_b.build(), {});

    // Random entries, installed in the same order in both programs.
    for (int t = 0; t < kTables; ++t) {
        const Table& table = tables[static_cast<std::size_t>(t)];
        const int actions = static_cast<int>(table.actions.size());
        for (int i = 0; i < 10; ++i) {
            // Keys and flows draw from [0, 32), so entries match often;
            // LPM prefixes run from 3 bits (every flow) to all 8.
            const std::uint64_t v = rng.next_below(32);
            TableEntry e;
            switch (kinds[t]) {
                case MatchKind::Ternary:
                    e.key = {FieldMatch::ternary(v, rng.next_below(32))};
                    e.priority = static_cast<int>(rng.next_below(4));
                    break;
                case MatchKind::Lpm:
                    e.key = {FieldMatch::lpm(
                        v, 3 + static_cast<int>(rng.next_below(6)))};
                    break;
                default: e.key = {FieldMatch::exact(v)}; break;
            }
            e.action_index = static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(actions)));
            e.action_data = {1 + rng.next_below(1000), 1 + rng.next_below(1000)};
            ASSERT_TRUE(plain.insert_entry(table.name, e));
            ASSERT_TRUE(cached.insert_entry(table.name, e));
        }
    }

    std::vector<std::vector<std::uint64_t>> flows(48);
    for (auto& f : flows) {
        for (int t = 0; t < kTables; ++t) f.push_back(rng.next_below(32));
    }
    auto packet_for = [](Emulator& emu, const std::vector<std::uint64_t>& f) {
        Packet pkt;
        for (int t = 0; t < kTables; ++t) {
            pkt.set(emu.fields().intern(util::format("k%d", t)),
                    f[static_cast<std::size_t>(t)]);
        }
        return pkt;
    };

    // The model: each flow's uncached walk, read back as one window's
    // counters, gives the replays its later packets owe.
    using Replays = decltype(profile::RawCounters{}.replays);
    std::vector<Replays> owed(flows.size());
    for (std::size_t f = 0; f < flows.size(); ++f) {
        plain.begin_window();
        Packet pkt = packet_for(plain, flows[f]);
        plain.process(pkt);
        const profile::RawCounters raw = plain.read_counters();
        for (const ir::Node& n : plain.program().nodes()) {
            const auto i = static_cast<std::size_t>(n.id);
            for (std::size_t a = 0; a < n.table.actions.size(); ++a) {
                if (raw.action_hits[i][a] != 0) {
                    owed[f][{cache_node, n.table.name, n.table.actions[a].name}] += 1;
                }
            }
            if (raw.misses[i] != 0 && n.table.default_action >= 0) {
                const auto d = static_cast<std::size_t>(n.table.default_action);
                owed[f][{cache_node, n.table.name, n.table.actions[d].name}] += 1;
            }
        }
    }

    Replays want;
    std::uint64_t hits = 0, drops = 0;
    std::vector<bool> seen(flows.size(), false);
    for (int i = 0; i < 600; ++i) {
        const std::size_t f = rng.next_below(flows.size());
        Packet a = packet_for(plain, flows[f]);
        Packet b = packet_for(cached, flows[f]);
        plain.process(a);
        cached.process(b);
        ASSERT_EQ(a.dropped(), b.dropped()) << "packet " << i;
        ASSERT_EQ(a.egress_port(), b.egress_port()) << "packet " << i;
        for (const std::string& name : fields) {
            ASSERT_EQ(a.get(plain.fields().intern(name)),
                      b.get(cached.fields().intern(name)))
                << name << ", packet " << i;
        }
        drops += a.dropped() ? 1 : 0;
        if (seen[f]) {
            ++hits;
            for (const auto& [key, n] : owed[f]) want[key] += n;
        }
        seen[f] = true;
    }
    // The stream exercised both verdicts and the replay of every kind.
    EXPECT_GT(drops, 0u);
    EXPECT_LT(drops, 600u);
    const profile::RawCounters raw = cached.read_counters();
    EXPECT_EQ(raw.cache_hits[static_cast<std::size_t>(cache_node)], hits);
    EXPECT_EQ(raw.replays, want);
}

TEST(Emulator, CacheLruEviction) {
    Emulator emu(test_model(), cached_two_tables(), no_instr());
    FieldId src = emu.fields().intern("src");
    FieldId dst = emu.fields().intern("dst");
    // Capacity is 4; install 6 distinct flows.
    for (std::uint64_t f = 0; f < 6; ++f) {
        Packet p;
        p.set(src, f);
        p.set(dst, f);
        emu.process(p);
        emu.advance_time(0.01);
    }
    EXPECT_EQ(emu.cache_size("cache_A_B"), 4u);
}

TEST(Emulator, CacheInsertionRateLimited) {
    Program p = cached_two_tables();
    // Tighten the limiter: 1 insert per second.
    NodeId cache_node = p.find_table("cache_A_B");
    p.node(cache_node).table.cache.max_insert_per_sec = 1.0;
    Emulator emu(test_model(), p, no_instr());
    FieldId src = emu.fields().intern("src");
    FieldId dst = emu.fields().intern("dst");
    for (std::uint64_t f = 0; f < 5; ++f) {
        Packet pkt;
        pkt.set(src, 100 + f);
        pkt.set(dst, 100 + f);
        emu.process(pkt);  // all at t=0: only the initial burst fits
    }
    EXPECT_LE(emu.cache_size("cache_A_B"), 1u);
    const auto cache = static_cast<std::size_t>(emu.program().find_table("cache_A_B"));
    EXPECT_GE(emu.read_counters().inserts_dropped[cache], 3u);
    // A window counts its own drops, like every other counter: a new window
    // without packets reads none, also one begun by a swap that keeps the
    // cache warm.
    emu.begin_window();
    EXPECT_EQ(emu.read_counters().inserts_dropped[cache], 0u);
    for (std::uint64_t f = 5; f < 8; ++f) {
        Packet pkt;
        pkt.set(src, 100 + f);
        pkt.set(dst, 100 + f);
        emu.process(pkt);
    }
    ASSERT_GE(emu.read_counters().inserts_dropped[cache], 2u);
    EXPECT_EQ(emu.reconfigure_incremental(emu.program()).caches_kept_warm, 1u);
    EXPECT_EQ(emu.read_counters().inserts_dropped[cache], 0u);
}

TEST(Emulator, CacheInvalidation) {
    Emulator emu(test_model(), cached_two_tables(), no_instr());
    FieldId src = emu.fields().intern("src");
    FieldId dst = emu.fields().intern("dst");
    Packet p;
    p.set(src, 1);
    p.set(dst, 2);
    emu.process(p);
    EXPECT_EQ(emu.cache_size("cache_A_B"), 1u);
    emu.mirror({StoreChange::Kind::Insert, "unrelated", exact_entry(1, 0), {}, {}});
    EXPECT_EQ(emu.cache_size("cache_A_B"), 1u);  // uncovered: stays warm
    emu.mirror({StoreChange::Kind::Insert, "A", exact_entry(1, 0, {11}), {}, {}});
    EXPECT_EQ(emu.cache_size("cache_A_B"), 0u);  // covered: cleared (§3.2.2)
}

TEST(Emulator, MigrationCostCharged) {
    Program p = ir::chain_of_exact_tables("mig", 3, 1, 1);
    p.node(1).core = ir::CoreKind::Cpu;
    Emulator emu(test_model(), p, no_instr());
    Packet pkt;
    ProcessResult r = emu.process(pkt);
    EXPECT_EQ(r.migrations, 2);  // asic -> cpu -> asic
    // node0: 12, node1: 12*3 (cpu), node2: 12, + 2 migrations.
    EXPECT_DOUBLE_EQ(r.cycles, 12.0 + 36.0 + 12.0 + 200.0);
}

/// Emulated cycles are a sum of doubles, so their bits depend on each
/// charge's expression and on the order of the charges. Integer costs hide
/// both (every order gives the same bits); these non-dyadic ones do not.
/// The expected sums are written out in the order the walk charges, each
/// charge as the cost model states it: a probe is (m × l_mat) × scale, an
/// action (n × l_act) × scale with n counting NoOps, and a replay is
/// charged at the cache's scale.
TEST(Emulator, CyclesKeepTheirFloatBits) {
    NicModel model = test_model();
    model.costs.l_mat = 0.7;
    model.costs.l_act = 0.3;
    model.costs.l_branch = 0.1;
    model.costs.l_counter = 0.05;
    model.costs.cpu_slowdown = 1.7;
    model.costs.l_migration = 2.9;
    model.costs.l_mat_fast = 0.45;
    model.costs.l_tier_host = 1.1;
    const double cpu = 1.7;
    auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };

    // CPU ternary table (m = 3) -> CPU branch -> Fast exact -> Host exact.
    ProgramBuilder b("tiers");
    Action set_a;
    set_a.name = "set_a";
    set_a.primitives = {Primitive::noop(), Primitive::set_const("a", 1)};
    const NodeId tern =
        b.add(TableSpec("tern").key("f", MatchKind::Ternary).action(set_a).build());
    const NodeId br = b.add_branch({"proto", ir::CmpOp::Eq, 6});
    Table fast = TableSpec("fast").key("g").set_field_action("set_b", "b").build();
    fast.tier = ir::MemTier::Fast;
    fast.default_action = 0;
    Table host = TableSpec("host").key("h").noop_action("pad", 2).build();
    host.tier = ir::MemTier::Host;
    host.default_action = 0;
    const NodeId nf = b.add(fast);
    const NodeId nh = b.add(host);
    b.connect(tern, br).connect_branch(br, nf, kNoNode).connect(nf, nh);
    b.set_root(tern);
    Program tiers = b.build();
    tiers.node(tern).core = ir::CoreKind::Cpu;
    tiers.node(br).core = ir::CoreKind::Cpu;
    Emulator emu(model, tiers, {});
    for (std::uint64_t i = 0; i < 3; ++i) {
        TableEntry e;
        e.key = {FieldMatch::ternary(0, 0xFULL << (8 * i))};
        e.action_index = 0;
        ASSERT_TRUE(emu.insert_entry("tern", e));
    }
    Packet pkt;
    pkt.set(emu.fields().intern("proto"), 6);
    const ProcessResult r = emu.process(pkt);
    ASSERT_EQ(r.nodes_visited, 4);
    double want = 0.0;
    want += 0.05 * cpu;              // tern: counter
    want += 3.0 * 0.7 * cpu;         //       probe, m = 3
    want += 2.0 * 0.3 * cpu;         //       NoOp + SetConst
    want += 0.05 * cpu;              // branch: counter
    want += 0.1 * cpu;               //         condition
    want += 2.9;                     // CPU -> ASIC
    want += 0.05 * 1.0;              // fast: counter
    want += 1.0 * 0.45 * 1.0;        //       probe at l_mat_fast
    want += 1.0 * 0.3 * 1.0;         //       SetConst
    want += 0.05 * 1.0;              // host: counter
    want += 1.0 * (0.7 + 1.1) * 1.0; //       probe across PCIe
    want += 2.0 * 0.3 * 1.0;         //       two NoOps
    EXPECT_EQ(bits(r.cycles), bits(want)) << r.cycles << " vs " << want;

    // A CPU cache over two ASIC tables: the second packet replays.
    Program cached = cached_two_tables();
    const NodeId cache = cached.find_table("cache_A_B");
    cached.node(cache).core = ir::CoreKind::Cpu;
    cached.node(cached.find_table("B")).table.actions[0].primitives.push_back(
        Primitive::noop());
    Emulator cemu(model, cached, {});
    ASSERT_TRUE(cemu.insert_entry("A", exact_entry(1, 0, {11})));
    ASSERT_TRUE(cemu.insert_entry("B", exact_entry(2, 0, {22})));
    auto flow = [&cemu] {
        Packet p;
        p.set(cemu.fields().intern("src"), 1);
        p.set(cemu.fields().intern("dst"), 2);
        return p;
    };
    Packet first = flow();
    const ProcessResult miss = cemu.process(first);
    double want_miss = 0.0;
    want_miss += 0.05 * cpu;        // cache: counter
    want_miss += 0.7 * cpu;         //        tier-0 probe
    want_miss += 2.9;               // CPU -> ASIC
    want_miss += 0.05 * 1.0;        // A: counter
    want_miss += 1.0 * 0.7 * 1.0;   //    probe
    want_miss += 1.0 * 0.3 * 1.0;   //    set_x
    want_miss += 0.05 * 1.0;        // B: counter
    want_miss += 1.0 * 0.7 * 1.0;   //    probe
    want_miss += 2.0 * 0.3 * 1.0;   //    set_y + NoOp
    EXPECT_EQ(bits(miss.cycles), bits(want_miss)) << miss.cycles << " vs " << want_miss;

    Packet second = flow();
    const ProcessResult hit = cemu.process(second);
    ASSERT_EQ(hit.nodes_visited, 1);
    EXPECT_EQ(second.get(cemu.fields().find("y")), 22u);
    double want_hit = 0.0;
    want_hit += 0.05 * cpu;         // cache: counter
    want_hit += 0.7 * cpu;          //        tier-0 probe
    want_hit += 1.0 * 0.3 * cpu;    // replay of A's set_x, at the cache's scale
    want_hit += 2.0 * 0.3 * cpu;    // replay of B's set_y + NoOp
    EXPECT_EQ(bits(hit.cycles), bits(want_hit)) << hit.cycles << " vs " << want_hit;
}

TEST(Emulator, EntryUpdatesTracked) {
    Program p = ir::chain_of_exact_tables("u", 1, 2, 1);
    Emulator emu(test_model(), p, no_instr());
    emu.insert_entry("t0", exact_entry(1, 0));
    emu.insert_entry("t0", exact_entry(2, 1));
    emu.delete_entry("t0", {FieldMatch::exact(1)});
    emu.modify_entry("t0", exact_entry(2, 0));
    auto raw = emu.read_counters();
    EXPECT_EQ(raw.entries.at("t0").entry_count, 1u);
    EXPECT_EQ(raw.entries.at("t0").entry_updates, 4u);
}

TEST(Emulator, ControlPlaneErrorsReturnFalse) {
    Program p = ir::chain_of_exact_tables("e", 1, 1, 1);
    Emulator emu(test_model(), p, no_instr());
    EXPECT_FALSE(emu.insert_entry("nope", exact_entry(1, 0)));
    EXPECT_FALSE(emu.delete_entry("t0", {FieldMatch::exact(1)}));  // absent
    EXPECT_FALSE(emu.modify_entry("t0", exact_entry(1, 0)));
    TableEntry wrong;
    wrong.key = {FieldMatch::exact(1), FieldMatch::exact(2)};  // arity
    wrong.action_index = 0;
    EXPECT_FALSE(emu.insert_entry("t0", wrong));
}

TEST(Emulator, ThroughputConversion) {
    Program p = ir::chain_of_exact_tables("th", 1, 1, 1);
    NicModel m = test_model();
    m.cores = 2;
    Emulator emu(m, p, no_instr());
    // 1e9 cycles/s * 2 cores / 1000 cycles = 2e6 pps * 4096 bits = 8.19 Gbps.
    EXPECT_NEAR(emu.throughput_gbps(1000.0), 8.192, 0.001);
    EXPECT_DOUBLE_EQ(emu.throughput_gbps(0.1), 100.0);  // line-rate cap
}

TEST(Emulator, ReconfigurePreservesEntriesAndChargesDowntime) {
    Program p = ir::chain_of_exact_tables("rc", 2, 2, 1);
    NicModel m = test_model();
    m.live_reconfig = false;
    m.reload_downtime_s = 3.0;
    Emulator emu(m, p, no_instr());
    emu.insert_entry("t0", exact_entry(5, 1));

    // New program: same t0, t1 dropped, new t9.
    ProgramBuilder b("rc2");
    b.append(TableSpec("t0")
                 .key("f0")
                 .noop_action("t0_a0", 1)
                 .noop_action("t0_a1", 1)
                 .default_to("t0_a0")
                 .build());
    b.append(TableSpec("t9").key("f9").noop_action("z", 1).build());
    double downtime = emu.reconfigure(b.build());
    EXPECT_DOUBLE_EQ(downtime, 3.0);
    EXPECT_DOUBLE_EQ(emu.now_seconds(), 3.0);
    EXPECT_EQ(emu.entry_count("t0"), 1u);
    EXPECT_EQ(emu.entry_count("t9"), 0u);

    NicModel live = test_model();
    Emulator emu2(live, p, no_instr());
    EXPECT_DOUBLE_EQ(emu2.reconfigure(ir::chain_of_exact_tables("x", 1, 1, 1)),
                     0.0);
}

/// Erase swaps the last entry into the hole, so the dense entry vector is
/// no longer in insertion order; a redeploy must still carry insertion
/// order, or duplicate keys would change winners.
TEST(Emulator, ReconfigureKeepsInsertionOrderTieBreaks) {
    ProgramBuilder b("dup");
    Action set_meta;
    set_meta.name = "set_meta";
    set_meta.primitives.push_back(Primitive::set_from_arg("meta", 0));
    b.append(TableSpec("t").key("f").action(set_meta).build());
    const Program p = b.build();
    Emulator emu(test_model(), p, no_instr());
    ASSERT_TRUE(emu.insert_entry("t", exact_entry(9, 0, {1})));
    ASSERT_TRUE(emu.insert_entry("t", exact_entry(7, 0, {2})));  // oldest 7
    ASSERT_TRUE(emu.insert_entry("t", exact_entry(7, 0, {3})));
    ASSERT_TRUE(emu.delete_entry("t", {FieldMatch::exact(9)}));
    // The newest 7 now sits first in the dense vector.
    ASSERT_EQ(emu.entries("t")->front().action_data, std::vector<std::uint64_t>{3});

    auto meta_for_7 = [&emu] {
        Packet pkt;
        pkt.set(emu.fields().intern("f"), 7);
        emu.process(pkt);
        return pkt.get(emu.fields().find("meta"));
    };
    EXPECT_EQ(meta_for_7(), 2u);
    emu.reconfigure(p);
    EXPECT_EQ(meta_for_7(), 2u);
    // Erase still addresses the oldest holder of the key.
    ASSERT_TRUE(emu.delete_entry("t", {FieldMatch::exact(7)}));
    EXPECT_EQ(meta_for_7(), 3u);
}

TEST(Emulator, IncrementalReconfigureKeepsWarmCaches) {
    // Two independent cached regions; changing one must not cool the other.
    Program p = cached_two_tables();
    NicModel m = test_model();
    m.live_reconfig = false;
    m.reload_downtime_s = 10.0;
    Emulator emu(m, p, no_instr());
    ASSERT_TRUE(emu.insert_entry("A", exact_entry(1, 0, {11})));

    FieldId src = emu.fields().intern("src");
    FieldId dst = emu.fields().intern("dst");
    Packet warm;
    warm.set(src, 1);
    warm.set(dst, 2);
    emu.process(warm);
    ASSERT_EQ(emu.cache_size("cache_A_B"), 1u);

    // New program: identical cache + tables, plus one new table at the end.
    Program q = p;
    ir::NodeId extra = q.add_table(
        TableSpec("Z").key("zzz").noop_action("z1", 1).build());
    ir::NodeId b_node = q.find_table("B");
    q.node(b_node).set_uniform_next(extra);
    q.validate();

    Emulator::ReconfigureStats stats = emu.reconfigure_incremental(q);
    EXPECT_EQ(stats.tables_total, 4u);    // cache + A + B + Z
    EXPECT_EQ(stats.tables_changed, 2u);  // Z is new; B's wiring changed
    EXPECT_EQ(stats.caches_kept_warm, 1u);
    EXPECT_EQ(emu.cache_size("cache_A_B"), 1u);  // still warm
    // Downtime scaled by the changed fraction (2 of 4 tables).
    EXPECT_NEAR(stats.downtime_s, 10.0 * 0.5, 1e-9);
    // Entries survived too.
    EXPECT_EQ(emu.entry_count("A"), 1u);

    // The warm cache still replays correctly on the new program.
    Packet replay;
    replay.set(emu.fields().intern("src"), 1);
    replay.set(emu.fields().intern("dst"), 2);
    ProcessResult r = emu.process(replay);
    EXPECT_EQ(replay.get(emu.fields().find("x")), 11u);
    // The cache's hit edge still exits the pipeline directly (only B's
    // fall-through was rewired to Z), so a hit visits one node.
    EXPECT_EQ(r.nodes_visited, 1);
}

TEST(Emulator, IncrementalReconfigureCoolsChangedCaches) {
    Program p = cached_two_tables();
    Emulator emu(test_model(), p, no_instr());
    Packet warm;
    warm.set(emu.fields().intern("src"), 1);
    warm.set(emu.fields().intern("dst"), 2);
    emu.process(warm);
    ASSERT_EQ(emu.cache_size("cache_A_B"), 1u);

    // Change the cache definition itself (different capacity).
    Program q = p;
    q.node(q.find_table("cache_A_B")).table.cache.capacity = 99;
    Emulator::ReconfigureStats stats = emu.reconfigure_incremental(q);
    EXPECT_EQ(stats.caches_kept_warm, 0u);
    EXPECT_EQ(emu.cache_size("cache_A_B"), 0u);  // cold: definition changed
}

/// An epoch that renumbers every node must not stale a warm cache: its runs
/// name replay slots relative to the cache's block, never node ids.
TEST(Emulator, IncrementalReconfigureRenumberedOriginsReplayCorrectly) {
    const Program p = cached_two_tables();
    Emulator emu(test_model(), p, {});  // instrumented
    ASSERT_TRUE(emu.insert_entry("A", exact_entry(1, 0, {11})));
    ASSERT_TRUE(emu.insert_entry("B", exact_entry(2, 0, {22})));
    auto flow = [&emu] {
        Packet pkt;
        pkt.set(emu.fields().intern("src"), 1);
        pkt.set(emu.fields().intern("dst"), 2);
        return pkt;
    };
    Packet warm = flow();
    emu.process(warm);
    ASSERT_EQ(emu.cache_size("cache_A_B"), 1u);

    // Z -> cache(A,B) -> A -> B: the same cache and tables, each one node
    // id further along.
    ProgramBuilder b("renumbered");
    const NodeId z = b.add(TableSpec("Z").key("zzz").noop_action("z1", 1).build());
    const NodeId c = b.add(p.node(p.find_table("cache_A_B")).table);
    const NodeId na = b.add(p.node(p.find_table("A")).table);
    const NodeId nb = b.add(p.node(p.find_table("B")).table);
    b.connect(z, c);
    b.connect_miss(c, na);
    b.connect(na, nb);
    b.set_root(z);
    const Program q = b.build();
    ASSERT_NE(q.find_table("A"), p.find_table("A"));

    const Emulator::ReconfigureStats stats = emu.reconfigure_incremental(q);
    ASSERT_EQ(stats.caches_kept_warm, 1u);
    ASSERT_EQ(emu.cache_size("cache_A_B"), 1u);

    Packet hit = flow();
    emu.process(hit);
    EXPECT_EQ(hit.get(emu.fields().find("x")), 11u);
    EXPECT_EQ(hit.get(emu.fields().find("y")), 22u);
    const profile::RawCounters raw = emu.read_counters();
    EXPECT_EQ(raw.cache_hits[static_cast<std::size_t>(c)], 1u);
    const decltype(raw.replays) want = {{{c, "A", "set_x"}, 1u},
                                        {{c, "B", "set_y"}, 1u}};
    EXPECT_EQ(raw.replays, want);
}

/// A cache whose own definition is unchanged still cools when an origin
/// table's definition changes: its recorded outcomes, and the layout of its
/// replay block, belong to the old table.
TEST(Emulator, IncrementalReconfigureCoolsCacheWhenOriginChanges) {
    const Program p = cached_two_tables();
    Emulator emu(test_model(), p, no_instr());
    ASSERT_TRUE(emu.insert_entry("A", exact_entry(1, 0, {11})));
    Packet warm;
    warm.set(emu.fields().intern("src"), 1);
    warm.set(emu.fields().intern("dst"), 2);
    emu.process(warm);
    ASSERT_EQ(emu.cache_size("cache_A_B"), 1u);

    Program q = p;
    ir::Node& a = q.node(q.find_table("A"));
    Action extra;
    extra.name = "set_w";
    extra.primitives.push_back(Primitive::set_from_arg("w", 0));
    a.table.actions.push_back(extra);
    a.set_uniform_next(q.find_table("B"));
    q.validate();

    const Emulator::ReconfigureStats stats = emu.reconfigure_incremental(q);
    EXPECT_EQ(stats.caches_kept_warm, 0u);
    EXPECT_EQ(emu.cache_size("cache_A_B"), 0u);
}

TEST(Emulator, SwitchCaseRoutesByAction) {
    // A switch-case table: different entries steer packets down different
    // edges; the miss path takes its own edge.
    ProgramBuilder b("sw");
    NodeId sw = b.add(TableSpec("steer")
                          .key("cls")
                          .noop_action("to_fast", 1)
                          .noop_action("to_slow", 1)
                          .build());
    Action mark_fast;
    mark_fast.name = "mf";
    mark_fast.primitives.push_back(Primitive::set_const("path", 1));
    NodeId fast = b.add(TableSpec("fast").key("x").action(mark_fast)
                            .default_to("mf").build());
    Action mark_slow;
    mark_slow.name = "ms";
    mark_slow.primitives.push_back(Primitive::set_const("path", 2));
    NodeId slow = b.add(TableSpec("slow").key("y").action(mark_slow)
                            .default_to("ms").build());
    b.connect_action(sw, 0, fast);
    b.connect_action(sw, 1, slow);
    b.connect_miss(sw, slow);
    b.set_root(sw);
    Emulator emu(test_model(), b.build(), {});
    ASSERT_TRUE(emu.insert_entry("steer", exact_entry(1, 0)));
    ASSERT_TRUE(emu.insert_entry("steer", exact_entry(2, 1)));

    FieldId cls = emu.fields().intern("cls");
    FieldId path = emu.fields().intern("path");

    Packet p1;
    p1.set(cls, 1);
    emu.process(p1);
    EXPECT_EQ(p1.get(path), 1u);  // action 0 -> fast

    Packet p2;
    p2.set(cls, 2);
    emu.process(p2);
    EXPECT_EQ(p2.get(path), 2u);  // action 1 -> slow

    Packet p3;
    p3.set(cls, 99);  // miss -> slow via miss edge
    emu.process(p3);
    EXPECT_EQ(p3.get(path), 2u);

    auto raw = emu.read_counters();
    EXPECT_EQ(raw.action_hits[static_cast<std::size_t>(sw)][0], 1u);
    EXPECT_EQ(raw.action_hits[static_cast<std::size_t>(sw)][1], 1u);
    EXPECT_EQ(raw.misses[static_cast<std::size_t>(sw)], 1u);
}

TEST(Emulator, ForwardSetsEgressPort) {
    ProgramBuilder b("fw");
    b.append(TableSpec("route").key("dst").forward_action("fwd").build());
    Emulator emu(test_model(), b.build(), no_instr());
    TableEntry e = exact_entry(5, 0, {42});
    ASSERT_TRUE(emu.insert_entry("route", e));
    Packet pkt;
    pkt.set(emu.fields().intern("dst"), 5);
    emu.process(pkt);
    EXPECT_EQ(pkt.egress_port(), 42u);
}

TEST(Emulator, GuardsAgainstRuntimeCycles) {
    // Hand-wire a cycle past validation by mutating after construction is
    // impossible through the public API; instead check the guard budget by
    // a long legal chain (sanity that the guard is generous enough).
    Program p = ir::chain_of_exact_tables("long", 64, 1, 1);
    Emulator emu(test_model(), p, no_instr());
    Packet pkt;
    EXPECT_NO_THROW(emu.process(pkt));
    EXPECT_EQ(emu.packets_processed(), 1u);
}

TEST(Emulator, WindowReset) {
    Program p = ir::chain_of_exact_tables("w", 1, 1, 1);
    Emulator emu(test_model(), p, {});
    Packet pkt;
    emu.process(pkt);
    EXPECT_EQ(emu.packets_processed(), 1u);
    emu.begin_window();
    EXPECT_EQ(emu.packets_processed(), 0u);
    auto raw = emu.read_counters();
    EXPECT_EQ(raw.misses[0], 0u);
}

}  // namespace
}  // namespace pipeleon::sim
