// analysis/verify.h — the program verifier and optimization-safety checker
// (ISSUE 2). Pipeleon's rewrites are only sound because they "preserve the
// program semantics by table dependency analysis" (§3.2); this subsystem
// enforces that claim instead of assuming it, in the spirit of the paper's
// Gauntlet-based validation [50] of optimized programs.
//
// Two layers:
//
//  Layer 1 (check_program) — structural well-formedness of any ir::Program:
//  acyclicity, live edge targets, reachability, table arity/uniqueness,
//  branch sanity, cache nodes fronting contiguous covered runs, and
//  core-partition legality (§3.2.4: core-crossing edges must pass through a
//  Migration -> Navigation pair once the program is instrumented).
//
//  Layer 2 (check_translation) — translation validation: given the original
//  program, its pipelets, the optimization plans, and the optimized program,
//  recompute analysis::field_sets / dependency classification and verify
//  that every reorder, merge, and cache insertion respects Match/Action/
//  Write ordering (analysis/dependency.h), and that the set of root-to-sink
//  action sequences reachable for any table-hit pattern is preserved
//  (canonicalized over cache/merge provenance).
//
// Diagnostics are collected, never thrown, so one run reports every
// violation; callers that need an exception use the *_or_throw wrappers,
// which raise a typed VerifyError.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/pipelet.h"
#include "ir/entry.h"
#include "ir/program.h"
#include "opt/transform.h"

namespace pipeleon::analysis {

struct VerifyOptions {
    /// Path-preservation enumeration cap: when a program's distinct
    /// root-to-sink canonical table sets exceed this, the comparison is
    /// skipped with a trans.paths.capped warning instead of running forever
    /// on branch-heavy programs.
    std::size_t max_path_sets = 4096;
    /// Report unreachable nodes (a warning; transformations legitimately
    /// leave garbage behind before compaction).
    bool warn_unreachable = true;
};

class Verifier {
public:
    explicit Verifier(VerifyOptions options = {}) : options_(options) {}

    const VerifyOptions& options() const { return options_; }

    /// Layer 1: structural well-formedness. Rules: structure.*.
    DiagnosticList check_program(const ir::Program& program) const;

    /// Entry/table consistency: key arity and kinds, action ids in range,
    /// action-data words cover every arg_index the action consumes.
    /// Rules: entry.*.
    DiagnosticList check_entries(const ir::Table& table,
                                 const std::vector<ir::TableEntry>& entries) const;

    /// Entry-set consistency of a remapped deployment (ISSUE 3): given the
    /// original program, the live entry count of each table in the
    /// authoritative original-space store, the program about to be
    /// deployed, and the entry loads the control plane computed for it,
    /// verify that the loads address real deployed tables with legal roles,
    /// that no table is loaded twice, that direct tables carry exactly the
    /// original store's entry count, that every merged table
    /// receives its rebuilt cross product, and that no original table's
    /// entries are silently discarded by the new layout. Each load's entries
    /// also pass check_entries against the deployed table definition.
    /// Rules: entry.remap.* (plus entry.* from the per-load pass).
    DiagnosticList check_entry_remap(
        const ir::Program& original,
        const std::unordered_map<std::string, std::size_t>& original_counts,
        const ir::Program& deployed,
        const std::vector<ir::EntryLoad>& loads) const;

    /// Layer 2: translation validation of `optimized` against `original`
    /// under `plans` (which refer to `pipelets`, the partition of
    /// `original`). Includes a Layer 1 pass over `optimized`.
    /// Rules: plan.*, trans.*, structure.*.
    DiagnosticList check_translation(const ir::Program& original,
                                     const std::vector<Pipelet>& pipelets,
                                     const std::vector<opt::PipeletPlan>& plans,
                                     const ir::Program& optimized) const;

    /// The canonical root-to-sink table sets used by the path-preservation
    /// check: each element is the sorted set of *original* table names a
    /// packet can traverse on one root-to-sink path, with cache/merged
    /// tables expanded to their origin tables and navigation/migration
    /// context tables ignored. Returns false when `options().max_path_sets`
    /// was exceeded (sets is left incomplete). Exposed for tests and tools.
    bool canonical_path_sets(const ir::Program& program,
                             std::vector<std::vector<std::string>>& sets) const;

private:
    VerifyOptions options_;
};

/// Convenience wrappers over a default-constructed Verifier.
DiagnosticList verify_structure(const ir::Program& program,
                                const VerifyOptions& options = {});
DiagnosticList verify_translation(const ir::Program& original,
                                  const std::vector<Pipelet>& pipelets,
                                  const std::vector<opt::PipeletPlan>& plans,
                                  const ir::Program& optimized,
                                  const VerifyOptions& options = {});

/// Throws VerifyError (with the full diagnostic list) when the check finds
/// any Error-severity finding. `context` names the choke point, e.g.
/// "json_io.load" or "opt.apply_plans".
void verify_structure_or_throw(const ir::Program& program,
                               const std::string& context,
                               const VerifyOptions& options = {});
void verify_translation_or_throw(const ir::Program& original,
                                 const std::vector<Pipelet>& pipelets,
                                 const std::vector<opt::PipeletPlan>& plans,
                                 const ir::Program& optimized,
                                 const std::string& context,
                                 const VerifyOptions& options = {});

}  // namespace pipeleon::analysis
