#include "ir/types.h"

#include <stdexcept>

namespace pipeleon::ir {

const char* to_string(MatchKind kind) {
    switch (kind) {
        case MatchKind::Exact: return "exact";
        case MatchKind::Lpm: return "lpm";
        case MatchKind::Ternary: return "ternary";
        case MatchKind::Range: return "range";
    }
    return "?";
}

MatchKind match_kind_from_string(const std::string& s) {
    if (s == "exact") return MatchKind::Exact;
    if (s == "lpm") return MatchKind::Lpm;
    if (s == "ternary") return MatchKind::Ternary;
    if (s == "range") return MatchKind::Range;
    throw std::invalid_argument("unknown match kind: " + s);
}

const char* to_string(PrimitiveKind kind) {
    switch (kind) {
        case PrimitiveKind::SetConst: return "set_const";
        case PrimitiveKind::CopyField: return "copy_field";
        case PrimitiveKind::AddConst: return "add_const";
        case PrimitiveKind::SubConst: return "sub_const";
        case PrimitiveKind::Drop: return "drop";
        case PrimitiveKind::Forward: return "forward";
        case PrimitiveKind::NoOp: return "noop";
    }
    return "?";
}

PrimitiveKind primitive_kind_from_string(const std::string& s) {
    if (s == "set_const") return PrimitiveKind::SetConst;
    if (s == "copy_field") return PrimitiveKind::CopyField;
    if (s == "add_const") return PrimitiveKind::AddConst;
    if (s == "sub_const") return PrimitiveKind::SubConst;
    if (s == "drop") return PrimitiveKind::Drop;
    if (s == "forward") return PrimitiveKind::Forward;
    if (s == "noop") return PrimitiveKind::NoOp;
    throw std::invalid_argument("unknown primitive kind: " + s);
}

Primitive Primitive::set_const(std::string dst, std::uint64_t v) {
    Primitive p;
    p.kind = PrimitiveKind::SetConst;
    p.dst_field = std::move(dst);
    p.value = v;
    return p;
}

Primitive Primitive::set_from_arg(std::string dst, int arg) {
    Primitive p;
    p.kind = PrimitiveKind::SetConst;
    p.dst_field = std::move(dst);
    p.arg_index = arg;
    return p;
}

Primitive Primitive::copy_field(std::string dst, std::string src) {
    Primitive p;
    p.kind = PrimitiveKind::CopyField;
    p.dst_field = std::move(dst);
    p.src_field = std::move(src);
    return p;
}

Primitive Primitive::add_const(std::string dst, std::uint64_t v) {
    Primitive p;
    p.kind = PrimitiveKind::AddConst;
    p.dst_field = std::move(dst);
    p.value = v;
    return p;
}

Primitive Primitive::sub_const(std::string dst, std::uint64_t v) {
    Primitive p;
    p.kind = PrimitiveKind::SubConst;
    p.dst_field = std::move(dst);
    p.value = v;
    return p;
}

Primitive Primitive::drop() {
    Primitive p;
    p.kind = PrimitiveKind::Drop;
    return p;
}

Primitive Primitive::forward(std::uint64_t port) {
    Primitive p;
    p.kind = PrimitiveKind::Forward;
    p.value = port;
    return p;
}

Primitive Primitive::forward_from_arg(int arg) {
    Primitive p;
    p.kind = PrimitiveKind::Forward;
    p.arg_index = arg;
    return p;
}

Primitive Primitive::noop() { return Primitive{}; }

bool Action::drops() const {
    for (const Primitive& p : primitives) {
        if (p.kind == PrimitiveKind::Drop) return true;
    }
    return false;
}

std::vector<std::string> Action::written_fields() const {
    std::vector<std::string> out;
    for (const Primitive& p : primitives) {
        switch (p.kind) {
            case PrimitiveKind::SetConst:
            case PrimitiveKind::CopyField:
            case PrimitiveKind::AddConst:
            case PrimitiveKind::SubConst:
                out.push_back(p.dst_field);
                break;
            default: break;
        }
    }
    return out;
}

std::vector<std::string> Action::read_fields() const {
    std::vector<std::string> out;
    for (const Primitive& p : primitives) {
        if (p.kind == PrimitiveKind::CopyField) out.push_back(p.src_field);
        // AddConst/SubConst read-modify-write their destination.
        if (p.kind == PrimitiveKind::AddConst ||
            p.kind == PrimitiveKind::SubConst) {
            out.push_back(p.dst_field);
        }
    }
    return out;
}

const char* to_string(CmpOp op) {
    switch (op) {
        case CmpOp::Eq: return "==";
        case CmpOp::Ne: return "!=";
        case CmpOp::Lt: return "<";
        case CmpOp::Le: return "<=";
        case CmpOp::Gt: return ">";
        case CmpOp::Ge: return ">=";
    }
    return "?";
}

CmpOp cmp_op_from_string(const std::string& s) {
    if (s == "==") return CmpOp::Eq;
    if (s == "!=") return CmpOp::Ne;
    if (s == "<") return CmpOp::Lt;
    if (s == "<=") return CmpOp::Le;
    if (s == ">") return CmpOp::Gt;
    if (s == ">=") return CmpOp::Ge;
    throw std::invalid_argument("unknown comparison op: " + s);
}

bool compare(CmpOp op, std::uint64_t lhs, std::uint64_t rhs) {
    switch (op) {
        case CmpOp::Eq: return lhs == rhs;
        case CmpOp::Ne: return lhs != rhs;
        case CmpOp::Lt: return lhs < rhs;
        case CmpOp::Le: return lhs <= rhs;
        case CmpOp::Gt: return lhs > rhs;
        case CmpOp::Ge: return lhs >= rhs;
    }
    return false;
}

bool BranchCond::evaluate(std::uint64_t field_value) const {
    return compare(op, field_value, value);
}

}  // namespace pipeleon::ir
