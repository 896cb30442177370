// Tests for ir/entry: FieldMatch semantics across all match kinds.
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/entry.h"

namespace pipeleon::ir {
namespace {

TEST(FieldMatch, Exact) {
    FieldMatch m = FieldMatch::exact(42);
    EXPECT_TRUE(m.matches(42, 32));
    EXPECT_FALSE(m.matches(43, 32));
    EXPECT_FALSE(m.is_wildcard());
}

TEST(FieldMatch, LpmPrefixes) {
    // 10.0.0.0/8 over a 32-bit field.
    FieldMatch m = FieldMatch::lpm(0x0A000000, 8);
    EXPECT_TRUE(m.matches(0x0A123456, 32));
    EXPECT_FALSE(m.matches(0x0B000000, 32));
    // /0 matches everything.
    FieldMatch any = FieldMatch::lpm(0, 0);
    EXPECT_TRUE(any.matches(0xFFFFFFFF, 32));
    EXPECT_TRUE(any.is_wildcard());
    // /32 behaves like exact.
    FieldMatch full = FieldMatch::lpm(7, 32);
    EXPECT_TRUE(full.matches(7, 32));
    EXPECT_FALSE(full.matches(8, 32));
}

TEST(FieldMatch, Ternary) {
    FieldMatch m = FieldMatch::ternary(0x00AB, 0x00FF);
    EXPECT_TRUE(m.matches(0x12AB, 32));
    EXPECT_FALSE(m.matches(0x12AC, 32));
    EXPECT_TRUE(FieldMatch::wildcard().matches(0xDEADBEEF, 32));
    EXPECT_TRUE(FieldMatch::wildcard().is_wildcard());
}

TEST(FieldMatch, Range) {
    FieldMatch m = FieldMatch::range(10, 20);
    EXPECT_TRUE(m.matches(10, 32));
    EXPECT_TRUE(m.matches(20, 32));
    EXPECT_TRUE(m.matches(15, 32));
    EXPECT_FALSE(m.matches(9, 32));
    EXPECT_FALSE(m.matches(21, 32));
}

TEST(FieldMatch, Covers) {
    // Wildcard covers anything.
    EXPECT_TRUE(FieldMatch::wildcard().covers(FieldMatch::exact(5), 32));
    // /8 covers /16 within the prefix.
    EXPECT_TRUE(FieldMatch::lpm(0x0A000000, 8)
                    .covers(FieldMatch::lpm(0x0A0B0000, 16), 32));
    EXPECT_FALSE(FieldMatch::lpm(0x0A000000, 16)
                     .covers(FieldMatch::lpm(0x0A000000, 8), 32));
    // Ternary with subset mask covers.
    EXPECT_TRUE(FieldMatch::ternary(0x0A00, 0xFF00)
                    .covers(FieldMatch::ternary(0x0A0B, 0xFFFF), 32));
    // Exact covers identical exact only.
    EXPECT_TRUE(FieldMatch::exact(5).covers(FieldMatch::exact(5), 32));
    EXPECT_FALSE(FieldMatch::exact(5).covers(FieldMatch::exact(6), 32));
    // Range covers contained range and points.
    EXPECT_TRUE(FieldMatch::range(0, 100).covers(FieldMatch::range(10, 20), 32));
    EXPECT_TRUE(FieldMatch::range(0, 100).covers(FieldMatch::exact(50), 32));
    EXPECT_FALSE(FieldMatch::range(0, 100).covers(FieldMatch::range(50, 150), 32));
}

TEST(TableEntry, CompatibleWithTable) {
    Table t = TableSpec("t")
                  .key("a", MatchKind::Exact)
                  .key("b", MatchKind::Ternary)
                  .noop_action("x")
                  .build();
    TableEntry ok;
    ok.key = {FieldMatch::exact(1), FieldMatch::ternary(2, 0xFF)};
    ok.action_index = 0;
    EXPECT_TRUE(ok.compatible_with(t));

    // Ternary slot accepts exact and wildcard.
    TableEntry ok2;
    ok2.key = {FieldMatch::exact(1), FieldMatch::exact(2)};
    ok2.action_index = 0;
    EXPECT_TRUE(ok2.compatible_with(t));
    TableEntry ok3;
    ok3.key = {FieldMatch::exact(1), FieldMatch::wildcard()};
    ok3.action_index = 0;
    EXPECT_TRUE(ok3.compatible_with(t));

    TableEntry bad_count;
    bad_count.key = {FieldMatch::exact(1)};
    EXPECT_FALSE(bad_count.compatible_with(t));

    TableEntry bad_action = ok;
    bad_action.action_index = 5;
    EXPECT_FALSE(bad_action.compatible_with(t));

    // Exact slot rejects ternary.
    TableEntry bad_kind;
    bad_kind.key = {FieldMatch::ternary(1, 0xF), FieldMatch::exact(2)};
    bad_kind.action_index = 0;
    EXPECT_FALSE(bad_kind.compatible_with(t));
}

TEST(TableEntry, MatchesMultiComponent) {
    Table t = TableSpec("t")
                  .key("a", MatchKind::Exact)
                  .key("b", MatchKind::Lpm)
                  .noop_action("x")
                  .build();
    TableEntry e;
    e.key = {FieldMatch::exact(7), FieldMatch::lpm(0x0A000000, 8)};
    e.action_index = 0;
    EXPECT_TRUE(e.matches({7, 0x0A0B0C0D}, t.keys));
    EXPECT_FALSE(e.matches({8, 0x0A0B0C0D}, t.keys));
    EXPECT_FALSE(e.matches({7, 0x0B000000}, t.keys));
    EXPECT_FALSE(e.matches({7}, t.keys));  // wrong arity
}

TEST(Entries, DistinctPrefixLengths) {
    std::vector<TableEntry> entries;
    for (int len : {8, 16, 8, 24}) {
        TableEntry e;
        e.key = {FieldMatch::lpm(0, len)};
        entries.push_back(e);
    }
    EXPECT_EQ(distinct_prefix_lengths(entries), 3);
    EXPECT_EQ(distinct_prefix_lengths({}), 0);
}

TEST(Entries, DistinctMasks) {
    std::vector<TableEntry> entries;
    for (std::uint64_t mask : {0xFFULL, 0xFF00ULL, 0xFFULL}) {
        TableEntry e;
        e.key = {FieldMatch::ternary(0, mask)};
        entries.push_back(e);
    }
    EXPECT_EQ(distinct_masks(entries), 2);
    // Exact-only entries contribute no mask combos.
    std::vector<TableEntry> exact_only(1);
    exact_only[0].key = {FieldMatch::exact(3)};
    EXPECT_EQ(distinct_masks(exact_only), 0);
}

// gtest names each case after the parameter's bytes, so the struct must
// have no padding: uninitialized padding bytes change the names run to run.
struct WidthCase {
    std::int64_t width;
    std::uint64_t inside;
    std::uint64_t outside;
};

class LpmWidths : public testing::TestWithParam<WidthCase> {};

TEST_P(LpmWidths, PrefixMaskRespectsWidth) {
    const WidthCase& c = GetParam();
    const int width = static_cast<int>(c.width);
    FieldMatch m = FieldMatch::lpm(c.inside, width / 2);
    EXPECT_TRUE(m.matches(c.inside, width));
    EXPECT_FALSE(m.matches(c.outside, width));
}

INSTANTIATE_TEST_SUITE_P(
    Widths, LpmWidths,
    testing::Values(WidthCase{16, 0xAB00, 0x1200},
                    WidthCase{32, 0xDEAD0000, 0x12340000},
                    WidthCase{48, 0xAABBCC000000ULL, 0x112233000000ULL},
                    WidthCase{64, 0xCAFEBABE00000000ULL, 0x1234567800000000ULL}));

}  // namespace
}  // namespace pipeleon::ir
