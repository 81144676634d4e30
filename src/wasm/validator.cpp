#include "wasm/validator.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace waran::wasm {
namespace {

using OptType = std::optional<ValType>;  // nullopt = Unknown (polymorphic)

std::string at(uint32_t func, uint32_t pc, const std::string& msg) {
  return "func " + std::to_string(func) + " pc " + std::to_string(pc) + ": " + msg;
}

/// Per-body type checker, following the algorithm in the spec appendix.
class BodyChecker {
 public:
  BodyChecker(const Module& m, uint32_t func_index, const Code& code)
      : m_(m), func_index_(func_index), code_(code) {
    const FuncType& ft = m_.func_type(func_index);
    locals_.insert(locals_.end(), ft.params.begin(), ft.params.end());
    locals_.insert(locals_.end(), code.locals.begin(), code.locals.end());
    results_ = ft.results;
  }

  Status run();

  /// High-water mark of the operand stack, valid after run(). Recorded so
  /// the translated interpreter can reserve the whole operand stack once at
  /// frame entry (Code::max_stack).
  uint32_t max_stack() const { return max_stack_; }

 private:
  struct CtrlFrame {
    Op opcode;
    std::vector<ValType> end_types;
    size_t height;
    bool unreachable = false;
    bool saw_else = false;
  };

  const Module& m_;
  uint32_t func_index_;
  const Code& code_;
  std::vector<ValType> locals_;
  std::vector<ValType> results_;
  std::vector<OptType> vals_;
  std::vector<CtrlFrame> ctrls_;
  uint32_t pc_ = 0;
  uint32_t max_stack_ = 0;

  Error err(const std::string& msg) const {
    return Error::validation(at(func_index_, pc_, msg));
  }

  void push(ValType t) { vals_.push_back(t); }
  void push_unknown() { vals_.push_back(std::nullopt); }

  Result<OptType> pop() {
    CtrlFrame& f = ctrls_.back();
    if (vals_.size() == f.height) {
      if (f.unreachable) return OptType{std::nullopt};
      return err("operand stack underflow");
    }
    OptType t = vals_.back();
    vals_.pop_back();
    return t;
  }

  Status pop_expect(ValType expect) {
    auto t = pop();
    if (!t.ok()) return t.error();
    if (*t && **t != expect) {
      return err(std::string("type mismatch: expected ") + to_string(expect) +
                 ", got " + to_string(**t));
    }
    return {};
  }

  void push_ctrl(Op opcode, std::vector<ValType> end_types) {
    ctrls_.push_back({opcode, std::move(end_types), vals_.size(), false, false});
  }

  Result<CtrlFrame> pop_ctrl() {
    if (ctrls_.empty()) return err("control stack underflow");
    CtrlFrame f = ctrls_.back();
    // End of a frame: the stack must hold exactly the end types.
    for (auto it = f.end_types.rbegin(); it != f.end_types.rend(); ++it) {
      WARAN_CHECK_OK(pop_expect(*it));
    }
    if (vals_.size() != f.height) return err("values left on stack at block end");
    ctrls_.pop_back();
    return f;
  }

  void mark_unreachable() {
    CtrlFrame& f = ctrls_.back();
    vals_.resize(f.height);
    f.unreachable = true;
  }

  /// Types a branch to relative depth `d` must carry: for a loop target the
  /// (empty, MVP) params; otherwise the block result types.
  Result<std::vector<ValType>> label_types(uint32_t d) {
    if (d >= ctrls_.size()) return err("branch depth out of range");
    const CtrlFrame& f = ctrls_[ctrls_.size() - 1 - d];
    if (f.opcode == Op::kLoop) return std::vector<ValType>{};
    return f.end_types;
  }

  Status pop_types(const std::vector<ValType>& ts) {
    for (auto it = ts.rbegin(); it != ts.rend(); ++it) WARAN_CHECK_OK(pop_expect(*it));
    return {};
  }
  void push_types(const std::vector<ValType>& ts) {
    for (ValType t : ts) push(t);
  }

  static std::vector<ValType> block_results(const Instr& ins) {
    if (!ins.block.result) return {};
    return {*ins.block.result};
  }

  /// A fixed-signature instruction, typed from its opcode-table row.
  Status check_fixed(const Instr& ins, const OpInfo& info) {
    if (uses_memory(info.imm)) {
      if (!m_.has_memory()) return err("memory instruction without memory");
      if (is_memarg(info.imm) && ins.imm.mem.align > natural_align_log2(info.imm)) {
        return err("alignment exceeds natural alignment");
      }
    }
    for (uint32_t i = info.num_params; i-- > 0;) WARAN_CHECK_OK(pop_expect(info.params[i]));
    if (info.has_result) push(info.result);
    return {};
  }

  Status check_instr(const Instr& ins);
};

Status BodyChecker::run() {
  // Implicit function frame: branches to it carry the result types.
  push_ctrl(Op::kBlock, results_);
  for (pc_ = 0; pc_ < code_.body.size(); ++pc_) {
    WARAN_CHECK_OK(check_instr(code_.body[pc_]));
    if (vals_.size() > max_stack_) max_stack_ = static_cast<uint32_t>(vals_.size());
  }
  if (!ctrls_.empty()) return err("function body not closed");
  return {};
}

Status BodyChecker::check_instr(const Instr& ins) {
  const OpInfo& info = op_info(ins.op);
  if (info.fixed) return check_fixed(ins, info);
  switch (ins.op) {
    case Op::kUnreachable:
      mark_unreachable();
      return {};
    case Op::kNop:
      return {};

    case Op::kBlock:
    case Op::kLoop:
      push_ctrl(ins.op, block_results(ins));
      return {};
    case Op::kIf:
      WARAN_CHECK_OK(pop_expect(ValType::kI32));
      push_ctrl(Op::kIf, block_results(ins));
      return {};
    case Op::kElse: {
      auto f = pop_ctrl();
      if (!f.ok()) return f.error();
      if (f->opcode != Op::kIf || f->saw_else) return err("`else` without `if`");
      CtrlFrame nf = *f;
      nf.saw_else = true;
      nf.unreachable = false;
      nf.height = vals_.size();
      ctrls_.push_back(std::move(nf));
      return {};
    }
    case Op::kEnd: {
      auto f = pop_ctrl();
      if (!f.ok()) return f.error();
      if (f->opcode == Op::kIf && !f->saw_else && !f->end_types.empty()) {
        return err("`if` with a result requires an `else` branch");
      }
      push_types(f->end_types);
      if (ctrls_.empty() && pc_ + 1 != code_.body.size()) {
        return err("instructions after function end");
      }
      return {};
    }

    case Op::kBr: {
      auto ts = label_types(ins.imm.index);
      if (!ts.ok()) return ts.error();
      WARAN_CHECK_OK(pop_types(*ts));
      mark_unreachable();
      return {};
    }
    case Op::kBrIf: {
      WARAN_CHECK_OK(pop_expect(ValType::kI32));
      auto ts = label_types(ins.imm.index);
      if (!ts.ok()) return ts.error();
      WARAN_CHECK_OK(pop_types(*ts));
      push_types(*ts);
      return {};
    }
    case Op::kBrTable: {
      WARAN_CHECK_OK(pop_expect(ValType::kI32));
      const BrTable& bt = code_.br_tables[ins.imm.br_table_index];
      auto def = label_types(bt.default_target);
      if (!def.ok()) return def.error();
      for (uint32_t t : bt.targets) {
        auto ts = label_types(t);
        if (!ts.ok()) return ts.error();
        if (*ts != *def) return err("br_table targets have mismatched label types");
      }
      WARAN_CHECK_OK(pop_types(*def));
      mark_unreachable();
      return {};
    }
    case Op::kReturn: {
      WARAN_CHECK_OK(pop_types(results_));
      mark_unreachable();
      return {};
    }
    case Op::kCall: {
      if (ins.imm.index >= m_.num_funcs()) return err("call: function index out of range");
      const FuncType& ft = m_.func_type(ins.imm.index);
      WARAN_CHECK_OK(pop_types(ft.params));
      push_types(ft.results);
      return {};
    }
    case Op::kCallIndirect: {
      if (!m_.has_table()) return err("call_indirect without table");
      if (ins.imm.call_indirect.type_index >= m_.types.size()) {
        return err("call_indirect: type index out of range");
      }
      WARAN_CHECK_OK(pop_expect(ValType::kI32));
      const FuncType& ft = m_.types[ins.imm.call_indirect.type_index];
      WARAN_CHECK_OK(pop_types(ft.params));
      push_types(ft.results);
      return {};
    }

    case Op::kDrop: {
      auto t = pop();
      if (!t.ok()) return t.error();
      return {};
    }
    case Op::kSelect: {
      WARAN_CHECK_OK(pop_expect(ValType::kI32));
      auto t1 = pop();
      if (!t1.ok()) return t1.error();
      auto t2 = pop();
      if (!t2.ok()) return t2.error();
      if (*t1 && *t2 && **t1 != **t2) return err("select operand types differ");
      if (*t1) {
        push(**t1);
      } else if (*t2) {
        push(**t2);
      } else {
        push_unknown();
      }
      return {};
    }

    case Op::kLocalGet: {
      if (ins.imm.index >= locals_.size()) return err("local index out of range");
      push(locals_[ins.imm.index]);
      return {};
    }
    case Op::kLocalSet: {
      if (ins.imm.index >= locals_.size()) return err("local index out of range");
      return pop_expect(locals_[ins.imm.index]);
    }
    case Op::kLocalTee: {
      if (ins.imm.index >= locals_.size()) return err("local index out of range");
      WARAN_CHECK_OK(pop_expect(locals_[ins.imm.index]));
      push(locals_[ins.imm.index]);
      return {};
    }
    case Op::kGlobalGet: {
      if (ins.imm.index >= m_.num_globals()) return err("global index out of range");
      push(m_.global_type(ins.imm.index).type);
      return {};
    }
    case Op::kGlobalSet: {
      if (ins.imm.index >= m_.num_globals()) return err("global index out of range");
      GlobalType gt = m_.global_type(ins.imm.index);
      if (!gt.mut) return err("global.set of immutable global");
      return pop_expect(gt.type);
    }

    case Op::kI32Const: push(ValType::kI32); return {};
    case Op::kI64Const: push(ValType::kI64); return {};
    case Op::kF32Const: push(ValType::kF32); return {};
    case Op::kF64Const: push(ValType::kF64); return {};
    default:
      break;
  }
  return err("unhandled opcode in validator");
}

Status check_const_expr(const Module& m, const ConstExpr& e, ValType expect,
                        const char* what) {
  ValType actual;
  switch (e.kind) {
    case ConstExpr::Kind::kI32: actual = ValType::kI32; break;
    case ConstExpr::Kind::kI64: actual = ValType::kI64; break;
    case ConstExpr::Kind::kF32: actual = ValType::kF32; break;
    case ConstExpr::Kind::kF64: actual = ValType::kF64; break;
    case ConstExpr::Kind::kGlobalGet: {
      if (e.global_index >= m.num_imported_globals) {
        return Error::validation(std::string(what) +
                                 ": init may only reference imported globals");
      }
      GlobalType gt = m.imported_global_types[e.global_index];
      if (gt.mut) {
        return Error::validation(std::string(what) + ": init global must be immutable");
      }
      actual = gt.type;
      break;
    }
    default:
      return Error::validation(std::string(what) + ": bad init expr");
  }
  if (actual != expect) {
    return Error::validation(std::string(what) + ": init type mismatch");
  }
  return {};
}

}  // namespace

Status validate_module(Module& m) {
  // Imported + declared type indices.
  for (uint32_t ti : m.imported_func_types) {
    if (ti >= m.types.size()) return Error::validation("import: type index out of range");
  }
  for (uint32_t ti : m.func_type_indices) {
    if (ti >= m.types.size()) return Error::validation("function: type index out of range");
  }

  // Globals: init expressions.
  for (const Global& g : m.globals) {
    WARAN_CHECK_OK(check_const_expr(m, g.init, g.type.type, "global"));
  }

  // Exports: valid indices, unique names.
  std::set<std::string> export_names;
  for (const Export& e : m.exports) {
    if (!export_names.insert(e.name).second) {
      return Error::validation("duplicate export name: " + e.name);
    }
    switch (e.kind) {
      case ImportKind::kFunc:
        if (e.index >= m.num_funcs()) return Error::validation("export: bad func index");
        break;
      case ImportKind::kTable:
        if (!m.has_table() || e.index != 0) return Error::validation("export: bad table index");
        break;
      case ImportKind::kMemory:
        if (!m.has_memory() || e.index != 0) return Error::validation("export: bad memory index");
        break;
      case ImportKind::kGlobal:
        if (e.index >= m.num_globals()) return Error::validation("export: bad global index");
        break;
    }
  }

  // Start function: () -> ().
  if (m.start) {
    if (*m.start >= m.num_funcs()) return Error::validation("start: func index out of range");
    const FuncType& ft = m.func_type(*m.start);
    if (!ft.params.empty() || !ft.results.empty()) {
      return Error::validation("start function must have type () -> ()");
    }
  }

  // Element segments.
  for (const ElemSegment& seg : m.elems) {
    if (!m.has_table()) return Error::validation("element segment without table");
    WARAN_CHECK_OK(check_const_expr(m, seg.offset, ValType::kI32, "element segment"));
    for (uint32_t fi : seg.func_indices) {
      if (fi >= m.num_funcs()) return Error::validation("element: func index out of range");
    }
  }

  // Data segments.
  for (const DataSegment& seg : m.datas) {
    if (!m.has_memory()) return Error::validation("data segment without memory");
    WARAN_CHECK_OK(check_const_expr(m, seg.offset, ValType::kI32, "data segment"));
  }

  // Memory limits sanity (decoder bounds defined memories; imported ones
  // are checked here too).
  if (const Limits* ml = m.memory_limits()) {
    if (ml->max && *ml->max < ml->min) return Error::validation("memory: max < min");
  }

  // Function bodies.
  for (uint32_t i = 0; i < m.codes.size(); ++i) {
    BodyChecker checker(m, m.num_imported_funcs + i, m.codes[i]);
    WARAN_CHECK_OK(checker.run());
    m.codes[i].max_stack = checker.max_stack();
  }
  return {};
}

}  // namespace waran::wasm
