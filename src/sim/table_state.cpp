#include "sim/table_state.h"

#include <algorithm>
#include <utility>

namespace pipeleon::sim {

TableState::TableState(const ir::Table& table) : table_(table), engine_(table) {
    engine_.rebuild(list_);
}

std::vector<ir::TableEntry> TableState::entries_in_order() const {
    std::vector<std::uint32_t> order(list_.entries.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
        return list_.stamps[a] < list_.stamps[b];
    });
    std::vector<ir::TableEntry> out;
    out.reserve(order.size());
    for (std::uint32_t i : order) out.push_back(list_.entries[i]);
    return out;
}

void TableState::set_entries(std::vector<ir::TableEntry> entries) {
    list_ = EntryList::ordered(std::move(entries));
    // Headroom for churn: the first insert after a bulk load must not
    // double the vectors.
    const std::size_t room = list_.entries.size() + list_.entries.size() / 8;
    list_.entries.reserve(room);
    list_.stamps.reserve(room);
    next_stamp_ = list_.entries.size();
    engine_.rebuild(list_);
    diversity_.clear();
    for (const ir::TableEntry& e : list_.entries) diversity_.add(e);
    ++updates_;
}

bool TableState::insert(const ir::TableEntry& entry) {
    if (!entry.compatible_with(table_)) return false;
    if (list_.entries.size() >= table_.size) return false;
    append(entry);
    return true;
}

void TableState::append(ir::TableEntry entry) {
    diversity_.add(entry);
    list_.entries.push_back(std::move(entry));
    list_.stamps.push_back(next_stamp_++);
    engine_.link(list_.entries.size() - 1);
    ++updates_;
}

bool TableState::erase(const std::vector<ir::FieldMatch>& key) {
    const std::optional<std::size_t> pos = engine_.find(key);
    if (!pos.has_value()) return false;
    const std::size_t i = *pos;
    const std::size_t last = list_.entries.size() - 1;
    engine_.unlink(i);
    diversity_.remove(list_.entries[i]);
    if (i != last) {
        engine_.move(last, i);
        list_.entries[i] = std::move(list_.entries[last]);
        list_.stamps[i] = list_.stamps[last];
    }
    list_.entries.pop_back();
    list_.stamps.pop_back();
    ++updates_;
    return true;
}

bool TableState::modify(const ir::TableEntry& entry) {
    const std::optional<std::size_t> pos = engine_.find(entry.key);
    if (!pos.has_value()) return false;
    // Same key, so the same prefix lengths and masks: diversity holds.
    engine_.unlink(*pos);
    list_.entries[*pos] = entry;
    engine_.link(*pos);
    ++updates_;
    return true;
}

CacheStore::CacheStore(const ir::CacheConfig& config)
    : config_(config), tokens_(config.max_insert_per_sec) {}

// ---------------------------------------------------------- hash index

std::size_t CacheStore::probe(const KeyVec& key, std::uint64_t h) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (true) {
        const IndexCell& cell = index_[i];
        if (cell.slot == kNil) return i;
        if (cell.hash == h && slots_[cell.slot].key == key) return i;
        i = (i + 1) & mask;
    }
}

void CacheStore::index_insert(std::uint64_t h, std::uint32_t slot) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (index_[i].slot != kNil) i = (i + 1) & mask;
    index_[i].hash = h;
    index_[i].slot = slot;
}

void CacheStore::index_erase(std::size_t pos) {
    // Backward-shift deletion: close the hole by sliding back any later
    // cluster member whose home position precedes the hole, so probes never
    // need tombstones.
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = pos;
    std::size_t i = pos;
    while (true) {
        i = (i + 1) & mask;
        if (index_[i].slot == kNil) break;
        const std::size_t home = static_cast<std::size_t>(index_[i].hash) & mask;
        // Cell i may move into the hole iff the hole lies on i's probe path:
        // distance(home -> i) >= distance(hole -> i) (cyclic).
        if (((i - home) & mask) >= ((i - hole) & mask)) {
            index_[hole] = index_[i];
            hole = i;
        }
    }
    index_[hole].slot = kNil;
    index_[hole].hash = 0;
}

void CacheStore::index_grow() {
    std::size_t want = index_.empty() ? 16 : index_.size() * 2;
    index_.assign(want, IndexCell{});
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
        index_insert(slots_[s].hash, s);
    }
}

// ------------------------------------------------------------ LRU links

void CacheStore::lru_unlink(std::uint32_t s) {
    Slot& slot = slots_[s];
    if (slot.prev != kNil) {
        slots_[slot.prev].next = slot.next;
    } else {
        head_ = slot.next;
    }
    if (slot.next != kNil) {
        slots_[slot.next].prev = slot.prev;
    } else {
        tail_ = slot.prev;
    }
    slot.prev = slot.next = kNil;
}

void CacheStore::lru_push_front(std::uint32_t s) {
    Slot& slot = slots_[s];
    slot.prev = kNil;
    slot.next = head_;
    if (head_ != kNil) slots_[head_].prev = s;
    head_ = s;
    if (tail_ == kNil) tail_ = s;
}

void CacheStore::lru_touch(std::uint32_t s) {
    if (head_ != s) {
        lru_unlink(s);
        lru_push_front(s);
    }
}

// --------------------------------------------------------------- slots

std::uint32_t CacheStore::claim(std::uint64_t h) {
    while (live_ >= config_.capacity) evict_tail();
    // Keep the linear-probe clusters short: grow at ~70% occupancy.
    if (index_.empty() || (live_ + 1) * 10 >= index_.size() * 7) index_grow();

    std::uint32_t s;
    if (!free_.empty()) {
        s = free_.back();
        free_.pop_back();
    } else {
        s = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& slot = slots_[s];
    slot.hash = h;
    slot.hits = 0;
    slot.epoch = epoch_;
    lru_push_front(s);
    index_insert(h, s);
    ++live_;
    return s;
}

void CacheStore::unlink(std::uint32_t s) {
    index_erase(probe(slots_[s].key, slots_[s].hash));
    lru_unlink(s);
}

void CacheStore::release(std::uint32_t s) {
    // The slot keeps its key/word-run capacity for the next refill (the
    // allocation-free path).
    slots_[s].key.clear();
    slots_[s].entry.words.clear();
    free_.push_back(s);
    --live_;
}

void CacheStore::evict_tail() {
    const std::uint32_t victim = tail_;
    unlink(victim);
    ++evictions_;
    // Demotion hook: hand the victim to the sink (which swaps the contents
    // away) before recycling the slot.
    if (evict_sink_ != nullptr) {
        evict_sink_(evict_ctx_, slots_[victim].key, slots_[victim].entry);
    }
    release(victim);
}

// ------------------------------------------------------------ operations

const CacheStore::CacheEntry* CacheStore::lookup(const KeyVec& key) {
    if (live_ == 0) return nullptr;
    return lookup_hashed(key, key_hash(key));
}

const CacheStore::CacheEntry* CacheStore::lookup_hashed(const KeyVec& key,
                                                        std::uint64_t h) {
    const std::uint32_t s = find(key, h);
    if (s == kNil) return nullptr;
    lru_touch(s);
    return &slots_[s].entry;
}

bool CacheStore::insert(const KeyVec& key, CacheEntry entry, double now_seconds) {
    // Refill the token bucket (burst bounded by one second of budget).
    if (now_seconds > last_refill_) {
        tokens_ = std::min(config_.max_insert_per_sec,
                           tokens_ + (now_seconds - last_refill_) *
                                         config_.max_insert_per_sec);
        last_refill_ = now_seconds;
    }
    if (tokens_ < 1.0) {
        ++inserts_dropped_;  // "insertions beyond the limit will be dropped"
        return false;
    }

    const std::uint64_t h = key_hash(key);
    std::uint32_t s = find(key, h);
    if (s != kNil) {
        lru_touch(s);  // refresh the existing entry
    } else if (config_.capacity == 0) {
        return false;
    } else {
        s = claim(h);
        slots_[s].key = key;  // reuses the recycled vector's capacity
    }
    slots_[s].entry = std::move(entry);
    tokens_ -= 1.0;
    return true;
}

std::uint32_t CacheStore::find(const KeyVec& key, std::uint64_t h) const {
    if (live_ == 0) return kNil;
    return index_[probe(key, h)].slot;
}

std::uint32_t CacheStore::touch(std::uint32_t s) {
    Slot& slot = slots_[s];
    if (slot.epoch != epoch_) {
        // Lazy decay: one halving per epoch elapsed since the last touch.
        const std::uint32_t d = epoch_ - slot.epoch;
        slot.hits = d >= 32 ? 0 : (slot.hits >> d);
        slot.epoch = epoch_;
    }
    ++slot.hits;
    lru_touch(s);
    return slot.hits;
}

bool CacheStore::holds(std::uint32_t s, std::uint64_t h) const {
    // A slot is live exactly while an index cell points at it.
    return s < slots_.size() && slots_[s].hash == h &&
           index_[probe(slots_[s].key, h)].slot == s;
}

void CacheStore::swap_in(KeyVec& key, CacheEntry& entry) {
    const std::uint64_t h = key_hash(key);
    std::uint32_t s = find(key, h);
    if (s != kNil) {
        lru_touch(s);
    } else {
        s = claim(h);
        std::swap(slots_[s].key, key);
    }
    std::swap(slots_[s].entry, entry);
}

void CacheStore::extract(std::uint32_t s, KeyVec& key, CacheEntry& entry) {
    unlink(s);
    std::swap(slots_[s].key, key);
    std::swap(slots_[s].entry, entry);
    release(s);
}

bool CacheStore::erase(const KeyVec& key, std::uint64_t h) {
    const std::uint32_t s = find(key, h);
    if (s == kNil) return false;
    unlink(s);
    release(s);
    return true;
}

void CacheStore::clear() {
    // O(live), not O(index capacity): each live key empties its probe run
    // from its home cell up to the first empty cell. Every cell is being
    // cleared anyway, and a run already emptied stops the next walk, so the
    // walks visit at most 2 x live cells in all.
    const std::size_t mask = index_.size() - 1;
    for (std::uint32_t s = head_; s != kNil;) {
        const std::uint32_t next = slots_[s].next;
        for (std::size_t i = slots_[s].hash & mask;
             index_[i].slot != kNil; i = (i + 1) & mask) {
            index_[i] = IndexCell{};
        }
        release(s);
        s = next;
    }
    head_ = tail_ = kNil;
}

}  // namespace pipeleon::sim
