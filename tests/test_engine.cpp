// Tests for sim/engine: exact / LPM / ternary match engines, their probe
// counts (the m of Equation 4a), and in-place maintenance against rebuild().
#include <gtest/gtest.h>

#include <algorithm>

#include "ir/builder.h"
#include "sim/engine.h"
#include "sim/table_state.h"
#include "util/rng.h"

namespace pipeleon::sim {
namespace {

using ir::FieldMatch;
using ir::MatchKind;
using ir::Table;
using ir::TableEntry;
using ir::TableSpec;

TableEntry entry1(FieldMatch m, int action = 0, int priority = 0) {
    TableEntry e;
    e.key = {m};
    e.action_index = action;
    e.priority = priority;
    return e;
}

/// An engine rebuilt over `entries` in insertion order. The engine indexes
/// the list in place, so both live here together and never move.
struct Loaded {
    EntryList list;
    MatchEngine engine;
    Loaded(const Table& t, std::vector<TableEntry> entries)
        : list(EntryList::ordered(std::move(entries))), engine(t) {
        engine.rebuild(list);
    }
};

TEST(ExactEngine, LookupAndMiss) {
    Table t = TableSpec("t").key("f").noop_action("a").build();
    std::vector<TableEntry> entries{entry1(FieldMatch::exact(5)),
                                    entry1(FieldMatch::exact(9))};
    Loaded loaded(t, entries);
    MatchEngine& engine = loaded.engine;
    EXPECT_EQ(engine.m(), 1);
    auto hit = engine.lookup({5});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->entry_index, 0u);
    EXPECT_TRUE(engine.lookup({9}).has_value());
    EXPECT_FALSE(engine.lookup({6}).has_value());
}

TEST(ExactEngine, MultiComponentKeys) {
    Table t = TableSpec("t").key("a").key("b").noop_action("x").build();
    TableEntry e;
    e.key = {FieldMatch::exact(1), FieldMatch::exact(2)};
    e.action_index = 0;
    Loaded loaded(t, {e});
    MatchEngine& engine = loaded.engine;
    EXPECT_TRUE(engine.lookup({1, 2}).has_value());
    EXPECT_FALSE(engine.lookup({2, 1}).has_value());
}

TEST(LpmEngine, LongestPrefixWins) {
    Table t = TableSpec("t").key("dst", MatchKind::Lpm).noop_action("a").build();
    std::vector<TableEntry> entries{
        entry1(FieldMatch::lpm(0x0A000000, 8)),    // 10/8
        entry1(FieldMatch::lpm(0x0A0B0000, 16)),   // 10.11/16
        entry1(FieldMatch::lpm(0x0A0B0C00, 24)),   // 10.11.12/24
    };
    Loaded loaded(t, entries);
    MatchEngine& engine = loaded.engine;
    EXPECT_EQ(engine.m(), 3);  // three distinct prefix lengths
    EXPECT_EQ(engine.lookup({0x0A0B0C0D})->entry_index, 2u);
    EXPECT_EQ(engine.lookup({0x0A0B0F01})->entry_index, 1u);
    EXPECT_EQ(engine.lookup({0x0AFFFFFF})->entry_index, 0u);
    EXPECT_FALSE(engine.lookup({0x0B000000}).has_value());
}

TEST(LpmEngine, DefaultRouteViaZeroPrefix) {
    Table t = TableSpec("t").key("dst", MatchKind::Lpm).noop_action("a").build();
    std::vector<TableEntry> entries{entry1(FieldMatch::lpm(0, 0)),
                                    entry1(FieldMatch::lpm(0x0A000000, 8))};
    Loaded loaded(t, entries);
    MatchEngine& engine = loaded.engine;
    EXPECT_EQ(engine.lookup({0x0A123456})->entry_index, 1u);
    EXPECT_EQ(engine.lookup({0x22222222})->entry_index, 0u);
}

TEST(LpmEngine, MixedExactComponent) {
    Table t = TableSpec("t")
                  .key("vrf", MatchKind::Exact, 16)
                  .key("dst", MatchKind::Lpm)
                  .noop_action("a")
                  .build();
    TableEntry e;
    e.key = {FieldMatch::exact(7), FieldMatch::lpm(0x0A000000, 8)};
    e.action_index = 0;
    Loaded loaded(t, {e});
    MatchEngine& engine = loaded.engine;
    EXPECT_TRUE(engine.lookup({7, 0x0A010203}).has_value());
    EXPECT_FALSE(engine.lookup({8, 0x0A010203}).has_value());
}

TEST(TernaryEngine, PriorityArbitration) {
    Table t = TableSpec("t").key("f", MatchKind::Ternary).noop_action("a").build();
    std::vector<TableEntry> entries{
        entry1(FieldMatch::ternary(0x0A00, 0xFF00), 0, 1),
        entry1(FieldMatch::ternary(0x0A0B, 0xFFFF), 0, 2),
        entry1(FieldMatch::wildcard(), 0, 0),
    };
    Loaded loaded(t, entries);
    MatchEngine& engine = loaded.engine;
    EXPECT_EQ(engine.m(), 3);  // three distinct masks
    EXPECT_EQ(engine.lookup({0x0A0B})->entry_index, 1u);  // most specific
    EXPECT_EQ(engine.lookup({0x0A0C})->entry_index, 0u);
    EXPECT_EQ(engine.lookup({0x1234})->entry_index, 2u);  // wildcard
}

TEST(TernaryEngine, SameMaskHigherPriorityWins) {
    Table t = TableSpec("t").key("f", MatchKind::Ternary).noop_action("a").build();
    std::vector<TableEntry> entries{
        entry1(FieldMatch::ternary(5, 0xFF), 0, 1),
        entry1(FieldMatch::ternary(5, 0xFF), 0, 9),
    };
    Loaded loaded(t, entries);
    MatchEngine& engine = loaded.engine;
    EXPECT_EQ(engine.lookup({5})->entry_index, 1u);
}

TEST(TernaryEngine, MaskCountDrivesM) {
    Table t = TableSpec("t").key("f", MatchKind::Ternary).noop_action("a").build();
    std::vector<TableEntry> entries;
    for (std::uint64_t i = 0; i < 5; ++i) {
        entries.push_back(entry1(FieldMatch::ternary(0, 0xFULL << (4 * i))));
    }
    Loaded loaded(t, entries);
    MatchEngine& engine = loaded.engine;
    EXPECT_EQ(engine.m(), 5);  // "five different masks" (§3.1 methodology)
}

TEST(TernaryEngine, RangeEntriesUseLinearGroup) {
    Table t = TableSpec("t").key("port", MatchKind::Range, 16).noop_action("a").build();
    std::vector<TableEntry> entries{entry1(FieldMatch::range(100, 200), 0, 1),
                                    entry1(FieldMatch::range(150, 300), 0, 2)};
    Loaded loaded(t, entries);
    MatchEngine& engine = loaded.engine;
    EXPECT_FALSE(engine.lookup({99}).has_value());
    EXPECT_EQ(engine.lookup({120})->entry_index, 0u);
    EXPECT_EQ(engine.lookup({180})->entry_index, 1u);  // overlap: priority 2
    EXPECT_EQ(engine.lookup({250})->entry_index, 1u);
}

TEST(TernaryEngine, ExactComponentsGetFullMask) {
    Table t = TableSpec("t")
                  .key("a", MatchKind::Exact)
                  .key("b", MatchKind::Ternary)
                  .noop_action("x")
                  .build();
    TableEntry e;
    e.key = {FieldMatch::exact(3), FieldMatch::wildcard()};
    e.action_index = 0;
    Loaded loaded(t, {e});
    MatchEngine& engine = loaded.engine;
    EXPECT_TRUE(engine.lookup({3, 999}).has_value());
    EXPECT_FALSE(engine.lookup({4, 999}).has_value());
}

TEST(Engines, EmptyTablesMissEverything) {
    for (MatchKind kind : {MatchKind::Exact, MatchKind::Lpm, MatchKind::Ternary}) {
        Table t = TableSpec("t").key("f", kind).noop_action("a").build();
        Loaded loaded(t, {});
        EXPECT_FALSE(loaded.engine.lookup({1}).has_value());
        EXPECT_GE(loaded.engine.m(), 1);
    }
}

TEST(KeyVecHash, DifferentKeysDifferentHashesUsually) {
    KeyVecHash h;
    EXPECT_NE(h({1, 2}), h({2, 1}));
    EXPECT_EQ(h({5}), h({5}));
}

// Property sweep: engines agree with brute-force matching over random
// entry sets.
class EngineAgainstBruteForce : public testing::TestWithParam<int> {};

TEST_P(EngineAgainstBruteForce, TernaryMatchesReference) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()));
    Table t = TableSpec("t").key("f", MatchKind::Ternary, 16).noop_action("a").build();
    std::vector<TableEntry> entries;
    for (int i = 0; i < 32; ++i) {
        std::uint64_t mask = rng.next_below(4) == 0
                                 ? 0xFFFF
                                 : (0xFFFFULL & ~((1ULL << rng.next_below(12)) - 1));
        TableEntry e = entry1(
            FieldMatch::ternary(rng.next_below(0x10000) & mask, mask), 0,
            static_cast<int>(rng.next_below(8)));
        entries.push_back(e);
    }
    Loaded loaded(t, entries);
    MatchEngine& engine = loaded.engine;

    for (int trial = 0; trial < 200; ++trial) {
        std::uint64_t key = rng.next_below(0x10000);
        // Brute force reference.
        int best = -1;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (!entries[i].key[0].matches(key, 16)) continue;
            if (best < 0 ||
                entries[i].priority > entries[static_cast<std::size_t>(best)].priority ||
                (entries[i].priority ==
                     entries[static_cast<std::size_t>(best)].priority &&
                 i < static_cast<std::size_t>(best))) {
                best = static_cast<int>(i);
            }
        }
        auto got = engine.lookup({key});
        if (best < 0) {
            EXPECT_FALSE(got.has_value());
        } else {
            ASSERT_TRUE(got.has_value());
            const TableEntry& g = entries[got->entry_index];
            const TableEntry& want = entries[static_cast<std::size_t>(best)];
            EXPECT_EQ(g.priority, want.priority);
            EXPECT_TRUE(g.key[0].matches(key, 16));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgainstBruteForce, testing::Range(1, 11));

// ------------------------------------------------ in-place maintenance
// Random insert/erase/modify sequences on a TableState (which drives its
// engine in place) against the oracle: after every op, lookups on random
// keys and m() must equal a fresh rebuild() over the live entries in
// insertion order, and a brute-force scan of that list. Small value spaces
// force duplicate exact keys, equal ternary priorities, and groups that
// appear and disappear.

/// What one random sequence needs from its match kind.
struct KindCase {
    Table table;
    TableEntry (*entry)(util::Rng&);
    KeyVec (*key)(util::Rng&);
    /// Index into `live` (insertion order) of the entry a lookup of `key`
    /// must return, or -1 on a miss.
    int (*reference)(const std::vector<TableEntry>& live, const KeyVec& key);
};

void check_against_rebuild(const KindCase& kc, std::uint64_t seed) {
    util::Rng rng(seed);
    TableState state(kc.table);
    std::vector<TableEntry> live;  // the model, in insertion order
    for (int op = 0; op < 600; ++op) {
        const std::uint64_t dice = rng.next_below(10);
        if (dice < 5 || live.empty()) {
            TableEntry e = kc.entry(rng);
            state.append(e);
            live.push_back(e);
        } else if (dice < 8) {
            // Erase by the key of a live entry (the oldest holder goes), or
            // a key that may be absent.
            const std::vector<FieldMatch> key =
                dice == 7 ? kc.entry(rng).key : live[rng.next_below(live.size())].key;
            auto it = std::find_if(live.begin(), live.end(),
                                   [&key](const TableEntry& e) { return e.key == key; });
            ASSERT_EQ(state.erase(key), it != live.end());
            if (it != live.end()) live.erase(it);
        } else {
            TableEntry e = kc.entry(rng);
            e.key = live[rng.next_below(live.size())].key;
            ASSERT_TRUE(state.modify(e));
            *std::find_if(live.begin(), live.end(),
                          [&e](const TableEntry& x) { return x.key == e.key; }) = e;
        }

        ASSERT_EQ(state.entries_in_order(), live) << "op " << op;
        Loaded oracle(kc.table, live);
        ASSERT_EQ(state.m(), oracle.engine.m()) << "op " << op;
        for (int probe = 0; probe < 24; ++probe) {
            const KeyVec key = kc.key(rng);
            const auto got = state.lookup(key);
            const auto want = oracle.engine.lookup(key);
            const int ref = kc.reference(live, key);
            ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
            ASSERT_EQ(got.has_value(), ref >= 0) << "op " << op;
            if (!got.has_value()) continue;
            ASSERT_EQ(state.entries()[got->entry_index], live[want->entry_index])
                << "op " << op;
            ASSERT_EQ(state.entries()[got->entry_index],
                      live[static_cast<std::size_t>(ref)])
                << "op " << op;
        }
    }
}

TableEntry random_exact(util::Rng& rng) {
    TableEntry e = entry1(FieldMatch::exact(rng.next_below(24)),
                          static_cast<int>(rng.next_below(2)));
    e.action_data = {rng.next_below(1000)};
    return e;
}

KeyVec random_exact_key(util::Rng& rng) { return {rng.next_below(28)}; }

int exact_reference(const std::vector<TableEntry>& live, const KeyVec& key) {
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].key[0].value == key[0]) return static_cast<int>(i);
    }
    return -1;
}

TEST(EngineInPlace, ExactMatchesRebuild) {
    KindCase kc{TableSpec("t")
                    .key("f", MatchKind::Exact, 16)
                    .noop_action("a")
                    .noop_action("b")
                    .build(),
                random_exact, random_exact_key, exact_reference};
    for (std::uint64_t seed = 1; seed <= 4; ++seed) check_against_rebuild(kc, seed);
}

/// LPM over (vrf exact 2 bits, dst lpm 16 bits): prefix lengths 0..16 in
/// steps of 4, so the total prefix orders groups uniquely.
TableEntry random_lpm(util::Rng& rng) {
    const int len = 4 * static_cast<int>(rng.next_below(5));
    const std::uint64_t dst = rng.next_below(4) << 12 | rng.next_below(3) << 4;
    TableEntry e;
    e.key = {FieldMatch::exact(rng.next_below(2)), FieldMatch::lpm(dst, len)};
    e.action_index = static_cast<int>(rng.next_below(2));
    e.action_data = {rng.next_below(1000)};
    return e;
}

KeyVec random_lpm_key(util::Rng& rng) {
    return {rng.next_below(3), rng.next_below(4) << 12 | rng.next_below(4) << 4 |
                                   rng.next_below(2)};
}

int lpm_reference(const std::vector<TableEntry>& live, const KeyVec& key) {
    const std::vector<ir::MatchKey> keys = {{"vrf", MatchKind::Exact, 2},
                                            {"dst", MatchKind::Lpm, 16}};
    int best = -1;
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (!live[i].matches(key, keys)) continue;
        const auto b = static_cast<std::size_t>(best);
        if (best < 0 || live[i].key[1].prefix_len > live[b].key[1].prefix_len) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

TEST(EngineInPlace, LpmMatchesRebuild) {
    KindCase kc{TableSpec("t")
                    .key("vrf", MatchKind::Exact, 2)
                    .key("dst", MatchKind::Lpm, 16)
                    .noop_action("a")
                    .noop_action("b")
                    .build(),
                random_lpm, random_lpm_key, lpm_reference};
    for (std::uint64_t seed = 1; seed <= 4; ++seed) check_against_rebuild(kc, seed);
}

/// Ternary masks from a small set, exact and wildcard components, range
/// entries (the linear group), and four priorities (ties are common).
TableEntry random_ternary(util::Rng& rng) {
    static const std::uint64_t kMasks[] = {0xFFFF, 0xFF00, 0xF0F0, 0x00FF};
    FieldMatch m;
    switch (rng.next_below(6)) {
        case 0: m = FieldMatch::exact(rng.next_below(4) * 0x0101); break;
        case 1: m = FieldMatch::wildcard(); break;
        case 2: {
            const std::uint64_t lo = rng.next_below(4) * 0x0100;
            m = FieldMatch::range(lo, lo + rng.next_below(3) * 0x0200);
            break;
        }
        default: {
            const std::uint64_t mask = kMasks[rng.next_below(4)];
            m = FieldMatch::ternary(rng.next_below(4) * 0x0101 & mask, mask);
        }
    }
    TableEntry e = entry1(m, static_cast<int>(rng.next_below(2)),
                          static_cast<int>(rng.next_below(4)));
    e.action_data = {rng.next_below(1000)};
    return e;
}

KeyVec random_ternary_key(util::Rng& rng) {
    return {rng.next_below(5) * 0x0101 ^ rng.next_below(2) * 0x0010};
}

int ternary_reference(const std::vector<TableEntry>& live, const KeyVec& key) {
    int best = -1;
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (!live[i].key[0].matches(key[0], 16)) continue;
        const auto b = static_cast<std::size_t>(best);
        if (best < 0 || live[i].priority > live[b].priority) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

TEST(EngineInPlace, TernaryAndRangeMatchRebuild) {
    KindCase kc{TableSpec("t")
                    .key("f", MatchKind::Ternary, 16)
                    .noop_action("a")
                    .noop_action("b")
                    .build(),
                random_ternary, random_ternary_key, ternary_reference};
    for (std::uint64_t seed = 1; seed <= 4; ++seed) check_against_rebuild(kc, seed);
}

TEST(EngineInPlace, ErasedTernaryWinnerExposesNextBest) {
    Table t = TableSpec("t")
                  .key("f", MatchKind::Ternary)
                  .noop_action("a")
                  .noop_action("b")
                  .build();
    TableState state(t);
    // Same masked key, three priorities: only the winner is visible.
    state.append(entry1(FieldMatch::ternary(0x12, 0xFF), 0, 1));
    state.append(entry1(FieldMatch::ternary(0x12, 0xFF), 1, 5));
    state.append(entry1(FieldMatch::ternary(0x12, 0xFF), 0, 3));
    EXPECT_EQ(state.entries()[state.lookup({0x12})->entry_index].priority, 5);
    TableEntry winner = entry1(FieldMatch::ternary(0x12, 0xFF), 1, 5);
    // Erase addresses the oldest entry with the key: priority 1 goes.
    EXPECT_TRUE(state.erase(winner.key));
    EXPECT_EQ(state.entries()[state.lookup({0x12})->entry_index].priority, 5);
    EXPECT_TRUE(state.erase(winner.key));
    EXPECT_EQ(state.entries()[state.lookup({0x12})->entry_index].priority, 3);
    EXPECT_EQ(state.m(), 1);
    EXPECT_TRUE(state.erase(winner.key));
    EXPECT_FALSE(state.lookup({0x12}).has_value());
    EXPECT_EQ(state.m(), 1);  // no groups left; a lookup still costs a probe
}

TEST(EngineInPlace, DuplicateExactKeysOldestWins) {
    Table t = TableSpec("t").key("f").noop_action("a").noop_action("b").build();
    TableState state(t);
    state.append(entry1(FieldMatch::exact(7), 0));
    state.append(entry1(FieldMatch::exact(9), 0));
    state.append(entry1(FieldMatch::exact(7), 1));
    EXPECT_EQ(state.entries()[state.lookup({7})->entry_index].action_index, 0);
    // Erasing 9 swaps the newest 7 into its slot; the oldest 7 still wins.
    EXPECT_TRUE(state.erase({FieldMatch::exact(9)}));
    EXPECT_EQ(state.entries()[state.lookup({7})->entry_index].action_index, 0);
    EXPECT_TRUE(state.erase({FieldMatch::exact(7)}));
    EXPECT_EQ(state.entries()[state.lookup({7})->entry_index].action_index, 1);
}

}  // namespace
}  // namespace pipeleon::sim
