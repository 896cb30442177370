#include "layers.h"

#include <algorithm>

#include "sim/match_batch.h"
#include "sim/table_state.h"
#include "sim/tiered_store.h"
#include "sim/worker_pool.h"
#include "stats.h"

namespace hostbench {

using namespace pipeleon;

namespace {

/// Bursts of the pool the hash and engine replays walk (the tiered-store
/// replay walks the whole pool: tier behaviour depends on the full stream).
constexpr std::size_t kReplayBursts = 256;
constexpr int kReps = 5;

/// Keeps replayed results observable so the calls are not optimized away.
volatile std::uint64_t g_sink = 0;

double since_ns(Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

std::vector<sim::FieldId> key_ids(const ir::Table& table,
                                  const sim::FieldTable& fields) {
    std::vector<sim::FieldId> ids;
    for (const ir::MatchKey& k : table.keys) ids.push_back(fields.find(k.field));
    return ids;
}

/// The emulator's steering tuple: the union of every table's key fields.
std::vector<sim::FieldId> steering_tuple(const sim::Emulator& emu) {
    std::vector<sim::FieldId> ids;
    for (const ir::Node& n : emu.program().nodes()) {
        if (!n.is_table()) continue;
        for (sim::FieldId id : key_ids(n.table, emu.fields())) {
            if (id != sim::kNoField && std::find(ids.begin(), ids.end(), id) == ids.end()) {
                ids.push_back(id);
            }
        }
    }
    return ids;
}

/// The program's root cache node (the only one the group hash targets).
const ir::Node* root_cache(const ir::Program& program) {
    if (program.root() == ir::kNoNode) return nullptr;
    const ir::Node& n = program.node(program.root());
    return n.is_table() && n.table.role == ir::TableRole::Cache ? &n : nullptr;
}

sim::KeyVec gather(const sim::Packet& p, const std::vector<sim::FieldId>& ids) {
    sim::KeyVec key;
    key.reserve(ids.size());
    for (sim::FieldId id : ids) key.push_back(p.get(id));
    return key;
}

/// ns per packet of hashing the pool in groups of kHashGroup: the steering
/// kernel (`rss`) or the cache-index kernel.
double group_hash_ns(const std::vector<sim::PacketBatch>& pool,
                     const std::vector<sim::FieldId>& ids, bool rss) {
    sim::MatchBatcher hasher;
    hasher.reserve(ids.size());
    const std::size_t bursts = std::min(pool.size(), kReplayBursts);
    std::vector<double> samples;
    for (int rep = 0; rep < kReps; ++rep) {
        std::uint64_t out[sim::kHashGroup] = {};
        std::uint64_t packets = 0;
        const Clock::time_point t0 = Clock::now();
        for (std::size_t b = 0; b < bursts; ++b) {
            const sim::PacketBatch& burst = pool[b];
            for (std::size_t g = 0; g < burst.size(); g += sim::kHashGroup) {
                const std::size_t n = std::min(sim::kHashGroup, burst.size() - g);
                auto at = [&](std::size_t lane) -> const sim::Packet& {
                    return burst[g + lane];
                };
                if (rss) {
                    hasher.rss_group(at, n, ids.data(), ids.size(), out);
                } else {
                    hasher.key_group(at, n, ids.data(), ids.size(), out);
                }
                g_sink = g_sink + out[0];
                packets += n;
            }
        }
        samples.push_back(since_ns(t0) / static_cast<double>(packets));
    }
    return median(samples);
}

/// ns per lookup of worker 0's share of the pool through a standalone
/// TieredStore with the cache's config: insert on miss, flush per burst.
/// One untimed pass fills the tiers first, as the warm-up did.
double tiered_lookup_ns(const std::vector<sim::PacketBatch>& pool, Rig& rig,
                        const ir::Table& cache) {
    const std::vector<sim::FieldId> ids = key_ids(cache, rig.emu.fields());
    std::vector<std::vector<sim::KeyVec>> keys(pool.size());
    for (std::size_t b = 0; b < pool.size(); ++b) {
        for (const sim::Packet& p : pool[b]) {
            if (rig.emu.worker_count() > 1 && rig.emu.steer_worker(p) != 0) continue;
            keys[b].push_back(gather(p, ids));
        }
    }
    const cost::CostParams& c = rig.emu.model().costs;
    sim::TieredStore store(cache.cache, sim::TierCosts{c.l_tier_dram, c.l_tier_host,
                                                       c.dma_setup, c.dma_per_entry});
    double now = 0.0;
    auto pass = [&]() {
        std::uint64_t lookups = 0;
        const Clock::time_point t0 = Clock::now();
        for (const std::vector<sim::KeyVec>& burst : keys) {
            for (const sim::KeyVec& k : burst) {
                if (store.lookup(k).entry == nullptr) store.insert(k, {}, now);
                ++lookups;
            }
            store.flush_batch();
            now += kBurstSeconds;
        }
        return lookups == 0 ? 0.0 : since_ns(t0) / static_cast<double>(lookups);
    };
    pass();
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) samples.push_back(pass());
    return median(samples);
}

/// Mean over the deployed non-cache tables of each table's median ns per
/// TableState::lookup, per match kind, with the pool's keys.
void engine_lookup_ns(const std::vector<sim::PacketBatch>& pool, Rig& rig,
                      LayerReplay& out) {
    double exact_sum = 0.0, ternary_sum = 0.0;
    int exact_n = 0, ternary_n = 0;
    const std::size_t bursts = std::min(pool.size(), kReplayBursts);
    for (const ir::Node& n : rig.emu.program().nodes()) {
        if (!n.is_table() || n.table.role == ir::TableRole::Cache) continue;
        const std::vector<ir::TableEntry>* entries = rig.emu.entries(n.table.name);
        if (entries == nullptr || entries->empty()) continue;
        sim::TableState state(n.table);
        state.set_entries(*entries);
        const std::vector<sim::FieldId> ids = key_ids(n.table, rig.emu.fields());
        std::vector<sim::KeyVec> keys;
        for (std::size_t b = 0; b < bursts; ++b) {
            for (const sim::Packet& p : pool[b]) keys.push_back(gather(p, ids));
        }
        std::vector<double> samples;
        for (int rep = 0; rep < kReps; ++rep) {
            const Clock::time_point t0 = Clock::now();
            for (const sim::KeyVec& k : keys) {
                const auto hit = state.lookup(k);
                g_sink = g_sink + (hit.has_value() ? hit->entry_index : 1);
            }
            samples.push_back(since_ns(t0) / static_cast<double>(keys.size()));
        }
        const ir::MatchKind kind = n.table.keys[0].kind;
        if (kind == ir::MatchKind::Exact) {
            exact_sum += median(samples);
            ++exact_n;
        } else if (kind == ir::MatchKind::Ternary) {
            ternary_sum += median(samples);
            ++ternary_n;
        }
    }
    out.exact_lookup_ns = exact_n > 0 ? exact_sum / exact_n : 0.0;
    out.ternary_lookup_ns = ternary_n > 0 ? ternary_sum / ternary_n : 0.0;
}

/// Entry-op costs at the live size of the deployed program's largest table:
/// TableState::insert of a fresh key (erased again, untimed), a full
/// TableState::set_entries rebuild, and Emulator::set_entries.
void update_costs(Rig& rig, LayerReplay& out) {
    const ir::Table* largest = nullptr;
    std::size_t most = 0;
    for (const ir::Node& n : rig.emu.program().nodes()) {
        if (!n.is_table() || n.table.role == ir::TableRole::Cache) continue;
        const std::size_t count = rig.emu.entry_count(n.table.name);
        if (count > most) {
            most = count;
            largest = &n.table;
        }
    }
    if (largest == nullptr) return;
    const std::vector<ir::TableEntry> entries = *rig.emu.entries(largest->name);
    sim::TableState state(*largest);
    state.set_entries(entries);

    std::vector<double> insert_ns;
    for (std::uint64_t i = 0; i < 100; ++i) {
        ir::TableEntry e = entries[0];
        e.key[0].value = (1ULL << 50) + i;
        const Clock::time_point t0 = Clock::now();
        const bool ok = state.insert(e);
        insert_ns.push_back(since_ns(t0));
        if (ok) state.erase(e.key);
    }
    std::vector<double> rebuild_ns, emu_ns;
    for (int i = 0; i < 30; ++i) {
        std::vector<ir::TableEntry> copy = entries;
        const Clock::time_point t0 = Clock::now();
        state.set_entries(std::move(copy));
        rebuild_ns.push_back(since_ns(t0));
    }
    for (int i = 0; i < 30; ++i) {
        std::vector<ir::TableEntry> copy = entries;
        const Clock::time_point t0 = Clock::now();
        rig.emu.set_entries(largest->name, std::move(copy));
        emu_ns.push_back(since_ns(t0));
    }
    out.insert_us = median(insert_ns) / 1e3;
    out.rebuild_us = median(rebuild_ns) / 1e3;
    out.set_entries_us = median(emu_ns) / 1e3;
}

}  // namespace

LayerReplay replay_layers(const Workload& workload, Rig& rig) {
    LayerReplay out;
    const std::vector<sim::PacketBatch>& pool = workload.pool();
    out.rss_hash_ns_per_pkt = group_hash_ns(pool, steering_tuple(rig.emu), true);
    if (const ir::Node* cache = root_cache(rig.emu.program())) {
        out.key_hash_ns =
            group_hash_ns(pool, key_ids(cache->table, rig.emu.fields()), false);
        out.tiered_lookup_ns = tiered_lookup_ns(pool, rig, cache->table);
    }
    engine_lookup_ns(pool, rig, out);
    update_costs(rig, out);

    sim::WorkerPool workers(workload.workers());
    auto empty_job = [](int) {};
    std::vector<double> run_ns;
    for (int i = 0; i < 22000; ++i) {
        const Clock::time_point t0 = Clock::now();
        workers.run(empty_job);
        if (i >= 2000) run_ns.push_back(since_ns(t0));  // first runs warm up
    }
    out.pool_run_us_p50 = quantile(run_ns, 0.5) / 1e3;
    out.pool_run_us_p99 = quantile(run_ns, 0.99) / 1e3;
    return out;
}

}  // namespace hostbench
