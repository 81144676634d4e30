#include "wasm/disasm.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "wasm/translate.h"

namespace waran::wasm {
namespace {

void append_limits(std::ostringstream& out, const Limits& l) {
  out << l.min;
  if (l.max) out << " " << *l.max;
}

const char* kind_name(ImportKind k) {
  switch (k) {
    case ImportKind::kFunc: return "func";
    case ImportKind::kTable: return "table";
    case ImportKind::kMemory: return "memory";
    case ImportKind::kGlobal: return "global";
  }
  return "?";
}

void append_value(std::ostringstream& out, const ConstExpr& e) {
  switch (e.kind) {
    case ConstExpr::Kind::kI32: out << "i32.const " << e.value.as_i32(); break;
    case ConstExpr::Kind::kI64: out << "i64.const " << e.value.as_i64(); break;
    case ConstExpr::Kind::kF32: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "f32.const %.9g",
                    static_cast<double>(e.value.as_f32()));
      out << buf;
      break;
    }
    case ConstExpr::Kind::kF64: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "f64.const %.17g", e.value.as_f64());
      out << buf;
      break;
    }
    case ConstExpr::Kind::kGlobalGet: out << "global.get " << e.global_index; break;
  }
}

void append_instr(std::ostringstream& out, const Code& code, const Instr& ins) {
  const OpInfo& info = op_info(ins.op);
  out << info.name;
  switch (info.imm) {
    case OpImm::kBlock:
      if (ins.block.result) out << " (result " << to_string(*ins.block.result) << ")";
      break;
    case OpImm::kIndex:
      out << " " << ins.imm.index;
      break;
    case OpImm::kBrTable: {
      const BrTable& bt = code.br_tables[ins.imm.br_table_index];
      for (uint32_t t : bt.targets) out << " " << t;
      out << " " << bt.default_target;
      break;
    }
    case OpImm::kCallIndirect:
      out << " (type " << ins.imm.call_indirect.type_index << ")";
      break;
    case OpImm::kI32:
      out << " " << ins.imm.i32;
      break;
    case OpImm::kI64:
      out << " " << ins.imm.i64;
      break;
    case OpImm::kF32: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " %.9g", static_cast<double>(ins.imm.f32));
      out << buf;
      break;
    }
    case OpImm::kF64: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " %.17g", ins.imm.f64);
      out << buf;
      break;
    }
    case OpImm::kMem8:
    case OpImm::kMem16:
    case OpImm::kMem32:
    case OpImm::kMem64:
      if (ins.imm.mem.offset != 0) out << " offset=" << ins.imm.mem.offset;
      out << " align=" << (1u << ins.imm.mem.align);
      break;
    case OpImm::kNone:
    case OpImm::kMemIdx:
    case OpImm::kMemIdx2:
      break;
  }
}

void append_body(std::ostringstream& out, const Code& code, const char* base_indent) {
  int depth = 1;
  for (size_t pc = 0; pc < code.body.size(); ++pc) {
    const Instr& ins = code.body[pc];
    if (ins.op == Op::kEnd || ins.op == Op::kElse) --depth;
    if (depth < 0) depth = 0;
    out << base_indent;
    for (int i = 0; i < depth; ++i) out << "  ";
    append_instr(out, code, ins);
    out << "\n";
    if (ins.op == Op::kBlock || ins.op == Op::kLoop || ins.op == Op::kIf ||
        ins.op == Op::kElse) {
      ++depth;
    }
  }
}

void append_signature(std::ostringstream& out, const FuncType& type) {
  if (!type.params.empty()) {
    out << " (param";
    for (ValType p : type.params) out << " " << to_string(p);
    out << ")";
  }
  if (!type.results.empty()) {
    out << " (result";
    for (ValType r : type.results) out << " " << to_string(r);
    out << ")";
  }
}

}  // namespace

std::string disassemble_function(const Module& module, uint32_t defined_index) {
  std::ostringstream out;
  uint32_t func_index = module.num_imported_funcs + defined_index;
  const Code& code = module.codes[defined_index];
  out << "  (func $" << func_index;
  append_signature(out, module.func_type(func_index));
  out << "\n";
  if (!code.locals.empty()) {
    out << "    (local";
    for (ValType l : code.locals) out << " " << to_string(l);
    out << ")\n";
  }
  append_body(out, code, "  ");
  out << "  )\n";
  return out.str();
}

std::string disassemble(const Module& module) {
  std::ostringstream out;
  out << "(module\n";
  for (size_t i = 0; i < module.types.size(); ++i) {
    out << "  (type " << i << " (func";
    append_signature(out, module.types[i]);
    out << "))\n";
  }
  for (const Import& imp : module.imports) {
    out << "  (import \"" << imp.module << "\" \"" << imp.name << "\" ("
        << kind_name(imp.kind);
    if (imp.kind == ImportKind::kFunc) {
      append_signature(out, module.types[imp.type_index]);
    }
    out << "))\n";
  }
  if (module.memory) {
    out << "  (memory ";
    append_limits(out, *module.memory);
    out << ")\n";
  }
  if (module.table) {
    out << "  (table ";
    append_limits(out, module.table->limits);
    out << " funcref)\n";
  }
  for (size_t i = 0; i < module.globals.size(); ++i) {
    const Global& g = module.globals[i];
    out << "  (global " << (module.num_imported_globals + i) << " "
        << (g.type.mut ? "(mut " : "(") << to_string(g.type.type) << ") (";
    append_value(out, g.init);
    out << "))\n";
  }
  for (const Export& e : module.exports) {
    out << "  (export \"" << e.name << "\" (" << kind_name(e.kind) << " " << e.index
        << "))\n";
  }
  if (module.start) out << "  (start " << *module.start << ")\n";
  for (const ElemSegment& seg : module.elems) {
    out << "  (elem (";
    append_value(out, seg.offset);
    out << ")";
    for (uint32_t fi : seg.func_indices) out << " " << fi;
    out << ")\n";
  }
  for (const DataSegment& seg : module.datas) {
    out << "  (data (";
    append_value(out, seg.offset);
    out << ") \"";
    static const char* kHex = "0123456789abcdef";
    for (uint8_t b : seg.bytes) {
      out << "\\" << kHex[b >> 4] << kHex[b & 0xf];
    }
    out << "\")\n";
  }
  for (size_t i = 0; i < module.codes.size(); ++i) {
    out << disassemble_function(module, static_cast<uint32_t>(i));
  }
  out << ")\n";
  return out.str();
}

namespace {

/// A frame slot by region: l<i> parameter or local, #<value> constant,
/// t<h> temp of operand height h.
std::string slot_name(const TranslatedFunc& tf, uint32_t slot) {
  char buf[32];
  if (slot < tf.num_locals) {
    std::snprintf(buf, sizeof(buf), "l%u", slot);
  } else if (slot >= tf.temp_base()) {
    std::snprintf(buf, sizeof(buf), "t%u", slot - tf.temp_base());
  } else if (const uint64_t bits = tf.init[slot - tf.num_params].bits; bits <= UINT32_MAX) {
    std::snprintf(buf, sizeof(buf), "#%d", static_cast<int32_t>(bits));
  } else {
    std::snprintf(buf, sizeof(buf), "#0x%" PRIx64, bits);
  }
  return buf;
}

void append_target(std::ostringstream& out, uint32_t target, uint32_t charge) {
  if (target == kRetTarget) {
    out << " -> @ret";
  } else {
    out << " -> @" << target << " charge=" << charge;
  }
}

void append_carry(std::ostringstream& out, const TranslatedFunc& tf, uint32_t c) {
  if (carry_src(c) != carry_dst(c)) {
    out << " " << slot_name(tf, carry_src(c)) << " => " << slot_name(tf, carry_dst(c));
  }
}

void append_uop(std::ostringstream& out, const TranslatedFunc& tf, const UInstr& u) {
  out << uop_name(u.op);
  const auto slot = [&](uint32_t s) { return slot_name(tf, s); };
  switch (u.op) {
    case UOp::kSeg:
      out << " charge=" << u.b;
      return;
    case UOp::kJump:
      append_target(out, u.b, u.imm.pair.y);
      return;
    case UOp::kJumpZ:
    case UOp::kJumpNZ:
      out << " " << slot(u.a);
      append_target(out, u.b, u.imm.pair.y);
      return;
    case UOp::kBr:
      append_carry(out, tf, u.imm.pair.x);
      append_target(out, u.b, u.imm.pair.y);
      return;
    case UOp::kBrIf:
      out << " " << slot(u.a);
      append_carry(out, tf, u.imm.pair.x);
      append_target(out, u.b, u.imm.pair.y);
      return;
    case UOp::kBrTable: {
      // pair.x explicit targets, then the default arm.
      out << " " << slot(u.a);
      for (uint32_t i = 0; i <= u.imm.pair.x; ++i) {
        const UBrEntry& e = tf.br_entries[u.b + i];
        out << (i == 0 ? " [" : " ");
        if (i == u.imm.pair.x) out << "default:";
        if (e.target == kRetTarget) {
          out << "@ret";
        } else {
          out << "@" << e.target << "(charge=" << e.seg << ")";
        }
        if (e.dst != u.imm.pair.y) out << "(" << slot(u.imm.pair.y) << " => " << slot(e.dst) << ")";
      }
      out << "]";
      return;
    }
    case UOp::kReturn:
      if (tf.result_arity != 0) out << " " << slot(u.a);
      return;
    case UOp::kUnreachable:
      return;
    case UOp::kCallWasm:
      out << " func=" << u.b << " args@" << slot(u.a);
      return;
    case UOp::kCallHost:
    case UOp::kCallIndirect:
      out << (u.op == UOp::kCallHost ? " import=" : " type=") << u.b
          << " nparams=" << u.imm.pair.x << " args@" << slot(u.a)
          << (u.imm.pair.y != 0 ? " -> result" : "");
      return;
    case UOp::kGlobalGet:
      out << " " << slot(u.b) << " = g" << u.imm.pair.x;
      return;
    case UOp::kGlobalSet:
      out << " g" << u.b << " = " << slot(u.imm.pair.x);
      return;
    default:
      break;
  }
  if (static_cast<uint16_t>(u.op) >= static_cast<uint16_t>(UOp::kJumpI32Eq) &&
      static_cast<uint16_t>(u.op) <= static_cast<uint16_t>(UOp::kJumpI32GeU)) {
    out << " " << slot(u.a) << ", " << slot(u.imm.pair.x);
    append_target(out, u.b, u.imm.pair.y);
    return;
  }
  const UOperands o = value_operands(u);
  out << " ";
  if (o.dst != UOperands::kNoSlot) out << slot(o.dst) << " = ";
  for (uint32_t i = 0; i < o.num_src; ++i) out << (i == 0 ? "" : ", ") << slot(o.src[i]);
  if (static_cast<uint16_t>(u.op) >= static_cast<uint16_t>(UOp::kI32Load) &&
      static_cast<uint16_t>(u.op) <= static_cast<uint16_t>(UOp::kI64Store32)) {
    out << " offset=" << u.imm.pair.y;
  }
}

}  // namespace

std::string disassemble_translated(const Module& module, uint32_t defined_index) {
  // The module's shared translation when attached, else a fresh lowering.
  TranslatedFunc local;
  const TranslatedFunc* tf = nullptr;
  if (module.translated && defined_index < module.translated->funcs.size()) {
    tf = &module.translated->funcs[defined_index];
  } else {
    auto tr = translate_function(module, defined_index);
    if (!tr.ok()) return "<translate error: " + tr.error().message + ">\n";
    local = std::move(*tr);
    tf = &local;
  }
  std::ostringstream out;
  out << ";; func " << (module.num_imported_funcs + defined_index) << ": "
      << tf->ops.size() << " uops, frame=" << tf->frame_cells << " (params "
      << tf->num_params << ", locals " << tf->num_locals - tf->num_params
      << ", constants " << tf->temp_base() - tf->num_locals << ", temps "
      << tf->max_stack << "), results=" << static_cast<int>(tf->result_arity) << "\n";
  for (size_t i = 0; i < tf->ops.size(); ++i) {
    char head[24];
    std::snprintf(head, sizeof(head), "@%-5zu ", i);
    out << head;
    append_uop(out, *tf, tf->ops[i]);
    out << "\n";
  }
  return out.str();
}

}  // namespace waran::wasm
