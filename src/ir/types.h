// ir/types.h — fundamental P4 IR vocabulary: match kinds, match keys, action
// primitives, actions, and branch conditions.
//
// Pipeleon models a P4 program as a DAG whose nodes are match-action (MA)
// tables or conditional branches (§3.1, Fig 4). A table's cost is the sum of
// its key-match cost (m memory accesses, where m depends on the match kind
// and the entries) and its action cost (number of primitives); see
// Equations 3/4a/4b in the paper. These types carry exactly the information
// the cost model, the optimizer, and the emulator need.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pipeleon::ir {

/// Node identifier inside a Program. Dense indices into Program::nodes().
using NodeId = std::int32_t;

/// Sentinel "no node": used for the DAG sink (packet leaves the pipeline)
/// and for unset edges during construction.
inline constexpr NodeId kNoNode = -1;

/// P4 match kinds. The paper's cost model distinguishes exact (one hash +
/// one memory access, m=1) from LPM/ternary (multiple hash tables, m>1);
/// range is treated like ternary by the model.
enum class MatchKind : std::uint8_t { Exact, Lpm, Ternary, Range };

const char* to_string(MatchKind kind);
MatchKind match_kind_from_string(const std::string& s);

/// One component of a table's match key: a header/metadata field matched
/// with a particular kind at a given bit width.
struct MatchKey {
    std::string field;
    MatchKind kind = MatchKind::Exact;
    int width_bits = 32;

    bool operator==(const MatchKey&) const = default;
};

/// Kinds of action primitives the emulator can execute. This is a compact
/// but sufficient subset of P4 primitives: header field writes, arithmetic,
/// drop, forward. Each primitive costs L_act in the cost model regardless of
/// kind (Equation 4b: action cost = n_a * L_act).
enum class PrimitiveKind : std::uint8_t {
    SetConst,     ///< dst_field = value (or entry action-data when arg_index >= 0)
    CopyField,    ///< dst_field = src_field
    AddConst,     ///< dst_field += value
    SubConst,     ///< dst_field -= value
    Drop,         ///< mark the packet dropped; execution halts at path end
    Forward,      ///< set egress port to value (or action-data)
    NoOp          ///< costs a primitive slot but has no effect (padding in
                  ///< microbenchmarks, mirroring the paper's synthetic actions)
};

const char* to_string(PrimitiveKind kind);
PrimitiveKind primitive_kind_from_string(const std::string& s);

/// A single action primitive. When `arg_index` is >= 0, the immediate
/// `value` is replaced at execution time by the matching entry's action-data
/// word at that index (P4 action parameters).
struct Primitive {
    PrimitiveKind kind = PrimitiveKind::NoOp;
    std::string dst_field;
    std::string src_field;
    std::uint64_t value = 0;
    int arg_index = -1;

    bool operator==(const Primitive&) const = default;

    static Primitive set_const(std::string dst, std::uint64_t v);
    static Primitive set_from_arg(std::string dst, int arg);
    static Primitive copy_field(std::string dst, std::string src);
    static Primitive add_const(std::string dst, std::uint64_t v);
    static Primitive sub_const(std::string dst, std::uint64_t v);
    static Primitive drop();
    static Primitive forward(std::uint64_t port);
    static Primitive forward_from_arg(int arg);
    static Primitive noop();
};

/// A P4 action: a named sequence of primitives. `n_a` in the cost model is
/// `primitives.size()`.
struct Action {
    std::string name;
    std::vector<Primitive> primitives;

    /// True when the action contains a Drop primitive — the basis of the
    /// table-reordering optimization (§3.2.1: promote high-drop tables).
    bool drops() const;

    /// Fields written by this action (dst fields of mutating primitives).
    std::vector<std::string> written_fields() const;
    /// Fields read by this action (src fields of CopyField primitives).
    std::vector<std::string> read_fields() const;

    bool operator==(const Action&) const = default;
};

/// Comparison operators available in branch conditions.
enum class CmpOp : std::uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

const char* to_string(CmpOp op);
CmpOp cmp_op_from_string(const std::string& s);
/// `lhs <op> rhs`.
bool compare(CmpOp op, std::uint64_t lhs, std::uint64_t rhs);

/// A conditional branch node's predicate: `field <op> value`. The paper's
/// model treats branches as (nearly) free — no memory access — but the
/// emulator NIC model can assign them a configurable cost (the Fig 11c
/// emulated NIC uses 1/10 of an exact-table cost).
struct BranchCond {
    std::string field;
    CmpOp op = CmpOp::Eq;
    std::uint64_t value = 0;

    bool evaluate(std::uint64_t field_value) const;

    bool operator==(const BranchCond&) const = default;
};

}  // namespace pipeleon::ir
