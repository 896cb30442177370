#include "ir/entry.h"

#include <algorithm>
#include <set>

namespace pipeleon::ir {

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

FieldMatch FieldMatch::exact(std::uint64_t v) {
    FieldMatch m;
    m.kind = MatchKind::Exact;
    m.value = v;
    return m;
}

FieldMatch FieldMatch::lpm(std::uint64_t v, int prefix_len) {
    FieldMatch m;
    m.kind = MatchKind::Lpm;
    m.value = v;
    m.prefix_len = prefix_len;
    return m;
}

FieldMatch FieldMatch::ternary(std::uint64_t v, std::uint64_t mask) {
    FieldMatch m;
    m.kind = MatchKind::Ternary;
    m.value = v;
    m.mask = mask;
    return m;
}

FieldMatch FieldMatch::range(std::uint64_t lo, std::uint64_t hi) {
    FieldMatch m;
    m.kind = MatchKind::Range;
    m.value = lo;
    m.mask = hi;
    return m;
}

FieldMatch FieldMatch::wildcard() {
    FieldMatch m;
    m.kind = MatchKind::Ternary;
    m.value = 0;
    m.mask = 0;
    return m;
}

bool FieldMatch::matches(std::uint64_t field_value, int width_bits) const {
    switch (kind) {
        case MatchKind::Exact:
            return field_value == value;
        case MatchKind::Lpm: {
            std::uint64_t pm = prefix_mask(prefix_len, width_bits);
            return (field_value & pm) == (value & pm);
        }
        case MatchKind::Ternary:
            return (field_value & mask) == (value & mask);
        case MatchKind::Range:
            return field_value >= value && field_value <= mask;
    }
    return false;
}

bool FieldMatch::is_wildcard() const {
    switch (kind) {
        case MatchKind::Ternary: return mask == 0;
        case MatchKind::Lpm: return prefix_len == 0;
        case MatchKind::Range: return value == 0 && mask == ~0ULL;
        case MatchKind::Exact: return false;
    }
    return false;
}

bool FieldMatch::covers(const FieldMatch& other, int width_bits) const {
    if (is_wildcard()) return true;
    switch (kind) {
        case MatchKind::Exact:
            // Exact covers only an identical exact or a fully-masked ternary
            // with the same value.
            if (other.kind == MatchKind::Exact) return value == other.value;
            if (other.kind == MatchKind::Ternary) {
                return other.mask == width_mask(width_bits) &&
                       (other.value & other.mask) == (value & other.mask);
            }
            return false;
        case MatchKind::Lpm: {
            if (other.kind != MatchKind::Lpm) {
                if (other.kind == MatchKind::Exact) {
                    return matches(other.value, width_bits);
                }
                return false;
            }
            if (other.prefix_len < prefix_len) return false;
            std::uint64_t pm = prefix_mask(prefix_len, width_bits);
            return (other.value & pm) == (value & pm);
        }
        case MatchKind::Ternary: {
            if (other.kind == MatchKind::Exact) {
                return matches(other.value, width_bits);
            }
            if (other.kind != MatchKind::Ternary) return false;
            // This covers other iff this.mask ⊆ other.mask and values agree
            // on this.mask.
            if ((mask & other.mask) != mask) return false;
            return (value & mask) == (other.value & mask);
        }
        case MatchKind::Range:
            if (other.kind == MatchKind::Exact) {
                return other.value >= value && other.value <= mask;
            }
            if (other.kind == MatchKind::Range) {
                return other.value >= value && other.mask <= mask;
            }
            return false;
    }
    return false;
}

bool TableEntry::compatible_with(const Table& table) const {
    if (key.size() != table.keys.size()) return false;
    if (action_index < 0 ||
        static_cast<std::size_t>(action_index) >= table.actions.size()) {
        return false;
    }
    for (std::size_t i = 0; i < key.size(); ++i) {
        MatchKind want = table.keys[i].kind;
        MatchKind got = key[i].kind;
        if (want == got) continue;
        // A ternary table key accepts exact components (full mask) and
        // wildcards; this is what merged tables rely on (Fig 6).
        if (want == MatchKind::Ternary &&
            (got == MatchKind::Exact || key[i].is_wildcard())) {
            continue;
        }
        return false;
    }
    return true;
}

bool TableEntry::matches(const std::vector<std::uint64_t>& field_values,
                         const std::vector<MatchKey>& keys) const {
    if (field_values.size() != key.size() || keys.size() != key.size()) {
        return false;
    }
    for (std::size_t i = 0; i < key.size(); ++i) {
        if (!key[i].matches(field_values[i], keys[i].width_bits)) return false;
    }
    return true;
}

int distinct_prefix_lengths(const std::vector<TableEntry>& entries) {
    std::set<int> lens;
    for (const TableEntry& e : entries) {
        for (const FieldMatch& m : e.key) {
            if (m.kind == MatchKind::Lpm) lens.insert(m.prefix_len);
        }
    }
    return static_cast<int>(lens.size());
}

int distinct_masks(const std::vector<TableEntry>& entries) {
    std::set<std::vector<std::uint64_t>> masks;
    for (const TableEntry& e : entries) {
        std::vector<std::uint64_t> combo;
        bool any = false;
        for (const FieldMatch& m : e.key) {
            if (m.kind == MatchKind::Ternary) {
                combo.push_back(m.mask);
                any = true;
            } else {
                combo.push_back(~0ULL);
            }
        }
        if (any) masks.insert(std::move(combo));
    }
    return static_cast<int>(masks.size());
}

namespace {

/// The entry's mask combination (all-ones for non-ternary components), or
/// empty when it has no ternary component — distinct_masks' rule.
std::vector<std::uint64_t> mask_combo(const TableEntry& entry) {
    std::vector<std::uint64_t> combo;
    if (std::none_of(entry.key.begin(), entry.key.end(), [](const FieldMatch& m) {
            return m.kind == MatchKind::Ternary;
        })) {
        return combo;  // exact/LPM entries: no allocation
    }
    for (const FieldMatch& m : entry.key) {
        combo.push_back(m.kind == MatchKind::Ternary ? m.mask : ~0ULL);
    }
    return combo;
}

template <class Map, class Key>
void release(Map& counts, const Key& key) {
    auto it = counts.find(key);
    if (--it->second == 0) counts.erase(it);
}

}  // namespace

void EntryDiversity::add(const TableEntry& entry) {
    for (const FieldMatch& m : entry.key) {
        if (m.kind == MatchKind::Lpm) ++lens_[m.prefix_len];
    }
    std::vector<std::uint64_t> combo = mask_combo(entry);
    if (!combo.empty()) ++masks_[std::move(combo)];
}

void EntryDiversity::remove(const TableEntry& entry) {
    for (const FieldMatch& m : entry.key) {
        if (m.kind == MatchKind::Lpm) release(lens_, m.prefix_len);
    }
    const std::vector<std::uint64_t> combo = mask_combo(entry);
    if (!combo.empty()) release(masks_, combo);
}

void EntryDiversity::clear() {
    lens_.clear();
    masks_.clear();
}

}  // namespace pipeleon::ir
