#include "sim/engine.h"

#include <algorithm>
#include <tuple>

namespace pipeleon::sim {

using ir::FieldMatch;
using ir::MatchKind;
using ir::TableEntry;

namespace {

std::uint64_t width_mask(int width_bits) {
    if (width_bits >= 64) return ~0ULL;
    if (width_bits <= 0) return 0;
    return (1ULL << width_bits) - 1;
}

std::uint64_t prefix_mask(int prefix_len, int width_bits) {
    if (prefix_len <= 0) return 0;
    if (prefix_len >= width_bits) return width_mask(width_bits);
    return width_mask(width_bits) & ~width_mask(width_bits - prefix_len);
}

}  // namespace

EntryList EntryList::ordered(std::vector<TableEntry> entries) {
    EntryList list;
    list.stamps.resize(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) list.stamps[i] = i;
    list.entries = std::move(entries);
    return list;
}

MatchEngine::MatchEngine(const ir::Table& table)
    : kind_(table.effective_match_kind()) {
    // Range tables share the ternary engine: ranges are not mask-encodable
    // and fall into its linear group.
    if (kind_ == MatchKind::Range) kind_ = MatchKind::Ternary;
    for (const ir::MatchKey& k : table.keys) widths_.push_back(k.width_bits);
}

// ------------------------------------------------------------ structure

int MatchEngine::group_of(const std::vector<FieldMatch>& key) const {
    if (key.size() != widths_.size()) return kUnindexed;
    shape_masks_.resize(key.size());
    shape_lens_.resize(key.size());
    for (std::size_t c = 0; c < key.size(); ++c) {
        const FieldMatch& m = key[c];
        const int width = widths_[c];
        std::uint64_t& mask = shape_masks_[c];
        if (kind_ == MatchKind::Exact) {
            mask = ~0ULL;  // exact tables compare raw values
        } else if (kind_ == MatchKind::Lpm) {
            // Exact components use the full width as their "prefix";
            // other kinds are ignored by this engine.
            if (m.kind == MatchKind::Exact) {
                shape_lens_[c] = width;
            } else if (m.kind == MatchKind::Lpm) {
                shape_lens_[c] = m.prefix_len;
            } else {
                return kUnindexed;
            }
            mask = prefix_mask(shape_lens_[c], width);
        } else {
            switch (m.kind) {
                case MatchKind::Exact: mask = width_mask(width); break;
                case MatchKind::Lpm: mask = prefix_mask(m.prefix_len, width); break;
                case MatchKind::Ternary: mask = m.mask; break;
                case MatchKind::Range: return kLinear;
            }
        }
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const bool same = kind_ == MatchKind::Lpm ? groups_[g].lens == shape_lens_
                                                  : groups_[g].masks == shape_masks_;
        if (same) return static_cast<int>(g);
    }
    return kAbsent;
}

int MatchEngine::add_group() {
    Group g;
    g.masks = shape_masks_;
    if (kind_ != MatchKind::Lpm) {
        groups_.push_back(std::move(g));
        return static_cast<int>(groups_.size() - 1);
    }
    g.lens = shape_lens_;
    for (int l : g.lens) g.total += l;
    // Probe order: longest total prefix first, equal totals by prefix-length
    // tuple, descending — so the first hit is the longest match.
    auto pos = std::find_if(groups_.begin(), groups_.end(), [&g](const Group& o) {
        return std::tie(o.total, o.lens) < std::tie(g.total, g.lens);
    });
    const auto at = groups_.insert(pos, std::move(g));
    return static_cast<int>(at - groups_.begin());
}

std::size_t MatchEngine::cell_of(const Group& g, std::size_t i) const {
    const std::vector<FieldMatch>& key = list_->entries[i].key;
    auto value_at = [&key](std::size_t c) { return key[c].value; };
    return probe<true>(g, hash_key<true>(g, value_at), value_at);
}

bool MatchEngine::before(std::size_t a, std::size_t b) const {
    if (kind_ == MatchKind::Ternary) {
        const int pa = list_->entries[a].priority;
        const int pb = list_->entries[b].priority;
        if (pa != pb) return pa > pb;
    }
    return list_->stamps[a] < list_->stamps[b];
}

void MatchEngine::grow(Group& g) {
    std::vector<Cell> old = std::move(g.cells);
    g.cells.assign(old.empty() ? 16 : old.size() * 2, Cell{});
    const std::size_t mask = g.cells.size() - 1;
    for (const Cell& c : old) {
        if (c.head == kNil) continue;
        std::size_t p = c.hash & mask;
        while (g.cells[p].head != kNil) p = (p + 1) & mask;
        g.cells[p] = c;
    }
}

void MatchEngine::erase_cell(Group& g, std::size_t pos) {
    // Slide back every later cluster member whose home precedes the hole
    // (see CacheStore::index_erase).
    const std::size_t mask = g.cells.size() - 1;
    std::size_t hole = pos;
    for (std::size_t i = (pos + 1) & mask; g.cells[i].head != kNil;
         i = (i + 1) & mask) {
        const std::size_t home = g.cells[i].hash & mask;
        if (((i - home) & mask) >= ((i - hole) & mask)) {
            g.cells[hole] = g.cells[i];
            hole = i;
        }
    }
    g.cells[hole] = Cell{};
    --g.keys;
}

// ------------------------------------------------------------ mutations

void MatchEngine::rebuild(const EntryList& list) {
    list_ = &list;
    groups_.clear();
    linear_.clear();
    next_.assign(list.entries.size(), kNil);
    for (std::size_t i = 0; i < list.entries.size(); ++i) link(i);
}

void MatchEngine::link(std::size_t i) {
    if (next_.size() <= i) next_.resize(i + 1, kNil);
    next_[i] = kNil;
    int g = group_of(list_->entries[i].key);
    if (g == kUnindexed) return;
    if (g == kLinear) {
        linear_.push_back(static_cast<std::uint32_t>(i));
        return;
    }
    if (g == kAbsent) g = add_group();
    Group& grp = groups_[static_cast<std::size_t>(g)];
    // Keep linear-probe clusters short: grow at ~70% occupancy.
    if ((grp.keys + 1) * 10 > grp.cells.size() * 7) grow(grp);
    ++grp.size;
    const std::vector<FieldMatch>& key = list_->entries[i].key;
    auto value_at = [&key](std::size_t c) { return key[c].value; };
    const std::uint32_t h = hash_key<true>(grp, value_at);
    Cell& cell = grp.cells[probe<true>(grp, h, value_at)];
    const auto pos = static_cast<std::uint32_t>(i);
    if (cell.head == kNil) {
        cell = Cell{h, pos};
        ++grp.keys;
    } else if (before(i, cell.head)) {
        next_[i] = cell.head;
        cell.head = pos;
    } else {
        // Duplicate masked key (the slow path): walk to i's place in line.
        std::uint32_t p = cell.head;
        while (next_[p] != kNil && !before(i, next_[p])) p = next_[p];
        next_[i] = next_[p];
        next_[p] = pos;
    }
}

void MatchEngine::unlink(std::size_t i) {
    const int g = group_of(list_->entries[i].key);
    if (g == kUnindexed || g == kAbsent) return;
    if (g == kLinear) {
        auto it = std::find(linear_.begin(), linear_.end(), i);
        *it = linear_.back();
        linear_.pop_back();
        return;
    }
    Group& grp = groups_[static_cast<std::size_t>(g)];
    const std::size_t pos = cell_of(grp, i);
    Cell& cell = grp.cells[pos];
    if (cell.head == i) {
        if (next_[i] == kNil) {
            erase_cell(grp, pos);
        } else {
            cell.head = next_[i];
        }
    } else {
        std::uint32_t p = cell.head;
        while (next_[p] != i) p = next_[p];
        next_[p] = next_[i];
    }
    next_[i] = kNil;
    if (--grp.size == 0) groups_.erase(groups_.begin() + g);
}

void MatchEngine::move(std::size_t from, std::size_t to) {
    const auto dst = static_cast<std::uint32_t>(to);
    const int g = group_of(list_->entries[from].key);
    if (g == kLinear) {
        *std::find(linear_.begin(), linear_.end(), from) = dst;
    } else if (g >= 0) {
        Group& grp = groups_[static_cast<std::size_t>(g)];
        Cell& cell = grp.cells[cell_of(grp, from)];
        if (cell.head == from) {
            cell.head = dst;
        } else {
            std::uint32_t p = cell.head;
            while (next_[p] != from) p = next_[p];
            next_[p] = dst;
        }
    }
    next_[to] = next_[from];
    next_[from] = kNil;
}

// --------------------------------------------------------------- queries

std::optional<std::size_t> MatchEngine::find(
    const std::vector<FieldMatch>& key) const {
    const std::vector<TableEntry>& entries = list_->entries;
    std::optional<std::size_t> oldest;
    auto consider = [&](std::size_t j) {
        if (entries[j].key == key &&
            (!oldest.has_value() || list_->stamps[j] < list_->stamps[*oldest])) {
            oldest = j;
        }
    };
    const int g = group_of(key);
    if (g == kAbsent) return std::nullopt;
    if (g == kUnindexed) {
        for (std::size_t j = 0; j < entries.size(); ++j) consider(j);
    } else if (g == kLinear) {
        for (std::uint32_t j : linear_) consider(j);
    } else {
        const Group& grp = groups_[static_cast<std::size_t>(g)];
        auto value_at = [&key](std::size_t c) { return key[c].value; };
        const std::uint32_t head =
            grp.cells[probe<true>(grp, hash_key<true>(grp, value_at), value_at)].head;
        for (std::uint32_t j = head; j != kNil; j = next_[j]) consider(j);
    }
    return oldest;
}

std::optional<MatchOutcome> MatchEngine::lookup_masked(const KeyVec& key) const {
    if (key.size() != widths_.size()) return std::nullopt;
    auto value_at = [&key](std::size_t c) { return key[c]; };
    auto head_in = [&](const Group& g) {
        return g.cells[probe<true>(g, hash_key<true>(g, value_at), value_at)].head;
    };
    if (kind_ == MatchKind::Lpm) {
        // LPM groups are in probe order, so the first hit is the longest
        // match (and its chain head the oldest).
        for (const Group& g : groups_) {
            const std::uint32_t head = head_in(g);
            if (head != kNil) return MatchOutcome{head};
        }
        return std::nullopt;
    }
    // Ternary: every group is probed; the best chain head wins.
    std::uint32_t best = kNil;
    for (const Group& g : groups_) {
        const std::uint32_t head = head_in(g);
        if (head != kNil && (best == kNil || before(head, best))) best = head;
    }
    for (std::uint32_t i : linear_) {
        const TableEntry& e = list_->entries[i];
        bool hit = true;
        for (std::size_t c = 0; c < key.size() && hit; ++c) {
            hit = e.key[c].matches(key[c], widths_[c]);
        }
        if (hit && (best == kNil || before(i, best))) best = i;
    }
    if (best == kNil) return std::nullopt;
    return MatchOutcome{best};
}

}  // namespace pipeleon::sim
