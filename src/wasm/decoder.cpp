#include "wasm/decoder.h"

#include <cstdio>
#include <vector>

#include "common/bytes.h"

namespace waran::wasm {
namespace {

constexpr uint8_t kSectionCustom = 0;
constexpr uint8_t kSectionType = 1;
constexpr uint8_t kSectionImport = 2;
constexpr uint8_t kSectionFunction = 3;
constexpr uint8_t kSectionTable = 4;
constexpr uint8_t kSectionMemory = 5;
constexpr uint8_t kSectionGlobal = 6;
constexpr uint8_t kSectionExport = 7;
constexpr uint8_t kSectionStart = 8;
constexpr uint8_t kSectionElement = 9;
constexpr uint8_t kSectionCode = 10;
constexpr uint8_t kSectionData = 11;
constexpr uint8_t kSectionDataCount = 12;

// Resource bounds: generous for RAN plugins (which are tiny) yet far below
// anything dangerous for an edge node.
constexpr uint32_t kMaxTypes = 1024;
constexpr uint32_t kMaxImports = 512;
constexpr uint32_t kMaxFunctions = 4096;
constexpr uint32_t kMaxGlobals = 1024;
constexpr uint32_t kMaxExports = 1024;
constexpr uint32_t kMaxElemSegments = 256;
constexpr uint32_t kMaxDataSegments = 256;
constexpr uint32_t kMaxLocals = 4096;        // per function, params included
constexpr uint32_t kMaxBodyInstrs = 262144;  // per function
constexpr uint32_t kMaxParams = 64;
constexpr uint32_t kMaxResults = 1;
constexpr uint32_t kMaxBrTableTargets = 4096;

/// `what` followed by `code` in hex ("unknown opcode 0xc5").
Error decode_error(const char* what, uint32_t code) {
  char hex[16];
  std::snprintf(hex, sizeof(hex), " 0x%02x", code);
  return Error::decode(what + std::string(hex));
}

class Decoder {
 public:
  explicit Decoder(std::span<const uint8_t> bytes) : r_(bytes) {}

  Result<Module> run();

 private:
  ByteReader r_;
  Module m_;
  uint32_t declared_func_count_ = 0;  // from the function section

  Status decode_type_section(ByteReader& s);
  Status decode_import_section(ByteReader& s);
  Status decode_function_section(ByteReader& s);
  Status decode_table_section(ByteReader& s);
  Status decode_memory_section(ByteReader& s);
  Status decode_global_section(ByteReader& s);
  Status decode_export_section(ByteReader& s);
  Status decode_start_section(ByteReader& s);
  Status decode_element_section(ByteReader& s);
  Status decode_code_section(ByteReader& s);
  Status decode_data_section(ByteReader& s);

  Result<ValType> val_type(ByteReader& s);
  Result<Limits> limits(ByteReader& s);
  Result<TableType> table_type(ByteReader& s);
  Result<GlobalType> global_type(ByteReader& s);
  Result<ConstExpr> const_expr(ByteReader& s);
  Result<Code> func_body(ByteReader& s, size_t n_params);
  Status link_control(Code& code);
};

Result<ValType> Decoder::val_type(ByteReader& s) {
  auto b = s.u8();
  if (!b.ok()) return b.error();
  if (!is_val_type(*b)) return decode_error("invalid value type", *b);
  return static_cast<ValType>(*b);
}

Result<Limits> Decoder::limits(ByteReader& s) {
  auto flag = s.u8();
  if (!flag.ok()) return flag.error();
  if (*flag > 1) return Error::decode("invalid limits flag");
  auto min = s.uleb32();
  if (!min.ok()) return min.error();
  Limits l;
  l.min = *min;
  if (*flag == 1) {
    auto max = s.uleb32();
    if (!max.ok()) return max.error();
    if (*max < *min) return Error::decode("limits: max < min");
    l.max = *max;
  }
  return l;
}

Result<TableType> Decoder::table_type(ByteReader& s) {
  auto et = s.u8();
  if (!et.ok()) return et.error();
  if (*et != 0x70) return Error::decode("table element type must be funcref");
  auto l = limits(s);
  if (!l.ok()) return l.error();
  return TableType{*l};
}

Result<GlobalType> Decoder::global_type(ByteReader& s) {
  auto t = val_type(s);
  if (!t.ok()) return t.error();
  auto mut = s.u8();
  if (!mut.ok()) return mut.error();
  if (*mut > 1) return Error::decode("invalid global mutability flag");
  return GlobalType{*t, *mut == 1};
}

Result<ConstExpr> Decoder::const_expr(ByteReader& s) {
  auto op = s.u8();
  if (!op.ok()) return op.error();
  ConstExpr e;
  switch (static_cast<Op>(*op)) {
    case Op::kI32Const: {
      auto v = s.sleb32();
      if (!v.ok()) return v.error();
      e.kind = ConstExpr::Kind::kI32;
      e.value = Value::from_i32(*v);
      break;
    }
    case Op::kI64Const: {
      auto v = s.sleb(64);
      if (!v.ok()) return v.error();
      e.kind = ConstExpr::Kind::kI64;
      e.value = Value::from_i64(*v);
      break;
    }
    case Op::kF32Const: {
      auto v = s.f32le();
      if (!v.ok()) return v.error();
      e.kind = ConstExpr::Kind::kF32;
      e.value = Value::from_f32(*v);
      break;
    }
    case Op::kF64Const: {
      auto v = s.f64le();
      if (!v.ok()) return v.error();
      e.kind = ConstExpr::Kind::kF64;
      e.value = Value::from_f64(*v);
      break;
    }
    case Op::kGlobalGet: {
      auto idx = s.uleb32();
      if (!idx.ok()) return idx.error();
      e.kind = ConstExpr::Kind::kGlobalGet;
      e.global_index = *idx;
      break;
    }
    default:
      return Error::decode("unsupported constant-expression opcode");
  }
  auto end = s.u8();
  if (!end.ok()) return end.error();
  if (*end != static_cast<uint8_t>(Op::kEnd)) {
    return Error::decode("constant expression must end with `end`");
  }
  return e;
}

Status Decoder::decode_type_section(ByteReader& s) {
  auto count = s.uleb32();
  if (!count.ok()) return count.error();
  if (*count > kMaxTypes) return Error::limit_exceeded("too many types");
  m_.types.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto form = s.u8();
    if (!form.ok()) return form.error();
    if (*form != 0x60) return Error::decode("type section: expected functype (0x60)");
    FuncType ft;
    auto np = s.uleb32();
    if (!np.ok()) return np.error();
    if (*np > kMaxParams) return Error::limit_exceeded("too many parameters");
    ft.params.reserve(*np);
    for (uint32_t j = 0; j < *np; ++j) {
      auto t = val_type(s);
      if (!t.ok()) return t.error();
      ft.params.push_back(*t);
    }
    auto nr = s.uleb32();
    if (!nr.ok()) return nr.error();
    if (*nr > kMaxResults) {
      return Error::unsupported("multi-value results not supported");
    }
    for (uint32_t j = 0; j < *nr; ++j) {
      auto t = val_type(s);
      if (!t.ok()) return t.error();
      ft.results.push_back(*t);
    }
    m_.types.push_back(std::move(ft));
  }
  return {};
}

Status Decoder::decode_import_section(ByteReader& s) {
  auto count = s.uleb32();
  if (!count.ok()) return count.error();
  if (*count > kMaxImports) return Error::limit_exceeded("too many imports");
  for (uint32_t i = 0; i < *count; ++i) {
    Import imp;
    auto mod = s.name();
    if (!mod.ok()) return mod.error();
    imp.module = std::move(*mod);
    auto nm = s.name();
    if (!nm.ok()) return nm.error();
    imp.name = std::move(*nm);
    auto kind = s.u8();
    if (!kind.ok()) return kind.error();
    switch (*kind) {
      case 0: {
        auto ti = s.uleb32();
        if (!ti.ok()) return ti.error();
        imp.kind = ImportKind::kFunc;
        imp.type_index = *ti;
        m_.imported_func_types.push_back(*ti);
        break;
      }
      case 1: {
        auto tt = table_type(s);
        if (!tt.ok()) return tt.error();
        if (m_.imported_table) return Error::decode("multiple tables");
        imp.kind = ImportKind::kTable;
        imp.table = *tt;
        m_.imported_table = *tt;
        break;
      }
      case 2: {
        auto l = limits(s);
        if (!l.ok()) return l.error();
        if (m_.imported_memory) return Error::decode("multiple memories");
        imp.kind = ImportKind::kMemory;
        imp.memory = *l;
        m_.imported_memory = *l;
        break;
      }
      case 3: {
        auto gt = global_type(s);
        if (!gt.ok()) return gt.error();
        imp.kind = ImportKind::kGlobal;
        imp.global = *gt;
        m_.imported_global_types.push_back(*gt);
        break;
      }
      default:
        return Error::decode("invalid import kind");
    }
    m_.imports.push_back(std::move(imp));
  }
  m_.num_imported_funcs = static_cast<uint32_t>(m_.imported_func_types.size());
  m_.num_imported_globals = static_cast<uint32_t>(m_.imported_global_types.size());
  m_.has_imported_table = m_.imported_table.has_value();
  m_.has_imported_memory = m_.imported_memory.has_value();
  return {};
}

Status Decoder::decode_function_section(ByteReader& s) {
  auto count = s.uleb32();
  if (!count.ok()) return count.error();
  if (*count > kMaxFunctions) return Error::limit_exceeded("too many functions");
  declared_func_count_ = *count;
  m_.func_type_indices.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto ti = s.uleb32();
    if (!ti.ok()) return ti.error();
    m_.func_type_indices.push_back(*ti);
  }
  return {};
}

Status Decoder::decode_table_section(ByteReader& s) {
  auto count = s.uleb32();
  if (!count.ok()) return count.error();
  if (*count > 1) return Error::decode("at most one table");
  if (*count == 1) {
    if (m_.imported_table) return Error::decode("multiple tables");
    auto tt = table_type(s);
    if (!tt.ok()) return tt.error();
    m_.table = *tt;
  }
  return {};
}

Status Decoder::decode_memory_section(ByteReader& s) {
  auto count = s.uleb32();
  if (!count.ok()) return count.error();
  if (*count > 1) return Error::decode("at most one memory");
  if (*count == 1) {
    if (m_.imported_memory) return Error::decode("multiple memories");
    auto l = limits(s);
    if (!l.ok()) return l.error();
    if (l->min > kMaxMemoryPages || (l->max && *l->max > kMaxMemoryPages)) {
      return Error::limit_exceeded("memory exceeds embedder page cap");
    }
    m_.memory = *l;
  }
  return {};
}

Status Decoder::decode_global_section(ByteReader& s) {
  auto count = s.uleb32();
  if (!count.ok()) return count.error();
  if (*count > kMaxGlobals) return Error::limit_exceeded("too many globals");
  for (uint32_t i = 0; i < *count; ++i) {
    Global g;
    auto gt = global_type(s);
    if (!gt.ok()) return gt.error();
    g.type = *gt;
    auto init = const_expr(s);
    if (!init.ok()) return init.error();
    g.init = *init;
    m_.globals.push_back(g);
  }
  return {};
}

Status Decoder::decode_export_section(ByteReader& s) {
  auto count = s.uleb32();
  if (!count.ok()) return count.error();
  if (*count > kMaxExports) return Error::limit_exceeded("too many exports");
  for (uint32_t i = 0; i < *count; ++i) {
    Export e;
    auto nm = s.name();
    if (!nm.ok()) return nm.error();
    e.name = std::move(*nm);
    auto kind = s.u8();
    if (!kind.ok()) return kind.error();
    if (*kind > 3) return Error::decode("invalid export kind");
    e.kind = static_cast<ImportKind>(*kind);
    auto idx = s.uleb32();
    if (!idx.ok()) return idx.error();
    e.index = *idx;
    m_.exports.push_back(std::move(e));
  }
  return {};
}

Status Decoder::decode_start_section(ByteReader& s) {
  auto idx = s.uleb32();
  if (!idx.ok()) return idx.error();
  m_.start = *idx;
  return {};
}

Status Decoder::decode_element_section(ByteReader& s) {
  auto count = s.uleb32();
  if (!count.ok()) return count.error();
  if (*count > kMaxElemSegments) return Error::limit_exceeded("too many element segments");
  for (uint32_t i = 0; i < *count; ++i) {
    ElemSegment seg;
    auto flags = s.uleb32();
    if (!flags.ok()) return flags.error();
    if (*flags != 0) return Error::unsupported("only active funcref element segments (flags=0)");
    seg.table_index = 0;
    auto off = const_expr(s);
    if (!off.ok()) return off.error();
    seg.offset = *off;
    auto n = s.uleb32();
    if (!n.ok()) return n.error();
    if (*n > kMaxFunctions) return Error::limit_exceeded("element segment too large");
    seg.func_indices.reserve(*n);
    for (uint32_t j = 0; j < *n; ++j) {
      auto fi = s.uleb32();
      if (!fi.ok()) return fi.error();
      seg.func_indices.push_back(*fi);
    }
    m_.elems.push_back(std::move(seg));
  }
  return {};
}

Status Decoder::decode_data_section(ByteReader& s) {
  auto count = s.uleb32();
  if (!count.ok()) return count.error();
  if (*count > kMaxDataSegments) return Error::limit_exceeded("too many data segments");
  for (uint32_t i = 0; i < *count; ++i) {
    DataSegment seg;
    auto flags = s.uleb32();
    if (!flags.ok()) return flags.error();
    if (*flags != 0) return Error::unsupported("only active data segments (flags=0)");
    seg.memory_index = 0;
    auto off = const_expr(s);
    if (!off.ok()) return off.error();
    seg.offset = *off;
    auto n = s.uleb32();
    if (!n.ok()) return n.error();
    auto b = s.bytes(*n);
    if (!b.ok()) return b.error();
    seg.bytes.assign(b->begin(), b->end());
    m_.datas.push_back(std::move(seg));
  }
  return {};
}

Result<Code> Decoder::func_body(ByteReader& s, size_t n_params) {
  Code code;
  auto local_groups = s.uleb32();
  if (!local_groups.ok()) return local_groups.error();
  uint64_t total_locals = n_params;
  for (uint32_t i = 0; i < *local_groups; ++i) {
    auto n = s.uleb32();
    if (!n.ok()) return n.error();
    auto t = val_type(s);
    if (!t.ok()) return t.error();
    total_locals += *n;
    if (total_locals > kMaxLocals) return Error::limit_exceeded("too many locals");
    code.locals.insert(code.locals.end(), *n, *t);
  }

  // Instruction stream: decode until the depth-0 `end`. The opcode table
  // says which immediate follows each opcode.
  uint32_t depth = 0;
  bool done = false;
  while (!done) {
    if (code.body.size() >= kMaxBodyInstrs) {
      return Error::limit_exceeded("function body too large");
    }
    auto b0 = s.u8();
    if (!b0.ok()) return b0.error();
    uint32_t opv = *b0;
    if (opv == 0xfc) {
      auto sub = s.uleb32();
      if (!sub.ok()) return sub.error();
      if (*sub > 0xff) return Error::decode("invalid 0xFC sub-opcode");
      opv = 0xfc00 | *sub;
    }
    const OpInfo& info = op_info(opv);
    if (info.name == nullptr) return decode_error("unknown opcode", opv);
    Instr ins;
    ins.op = static_cast<Op>(opv);
    switch (info.imm) {
      case OpImm::kNone:
        if (ins.op == Op::kEnd) {
          if (depth == 0) {
            done = true;
          } else {
            --depth;
          }
        }
        break;
      case OpImm::kBlock: {
        auto bt = s.sleb(33);
        if (!bt.ok()) return bt.error();
        int64_t v = *bt;
        if (v >= 0) return Error::unsupported("function-typed blocks not supported");
        if (v != -0x40) {  // 0x40 as s33: empty block type
          uint8_t raw = static_cast<uint8_t>(v & 0x7f);
          if (!is_val_type(raw)) return Error::decode("invalid block type");
          ins.block.result = static_cast<ValType>(raw);
        }
        ++depth;
        break;
      }
      case OpImm::kIndex: {
        auto idx = s.uleb32();
        if (!idx.ok()) return idx.error();
        ins.imm.index = *idx;
        break;
      }
      case OpImm::kBrTable: {
        BrTable bt;
        auto n = s.uleb32();
        if (!n.ok()) return n.error();
        if (*n > kMaxBrTableTargets) return Error::limit_exceeded("br_table too large");
        bt.targets.reserve(*n);
        for (uint32_t j = 0; j < *n; ++j) {
          auto t = s.uleb32();
          if (!t.ok()) return t.error();
          bt.targets.push_back(*t);
        }
        auto d = s.uleb32();
        if (!d.ok()) return d.error();
        bt.default_target = *d;
        ins.imm.br_table_index = static_cast<uint32_t>(code.br_tables.size());
        code.br_tables.push_back(std::move(bt));
        break;
      }
      case OpImm::kCallIndirect: {
        auto ti = s.uleb32();
        if (!ti.ok()) return ti.error();
        auto tbl = s.uleb32();
        if (!tbl.ok()) return tbl.error();
        if (*tbl != 0) return Error::decode("call_indirect table index must be 0");
        ins.imm.call_indirect = {*ti, *tbl};
        break;
      }
      case OpImm::kI32: {
        auto v = s.sleb32();
        if (!v.ok()) return v.error();
        ins.imm.i32 = *v;
        break;
      }
      case OpImm::kI64: {
        auto v = s.sleb(64);
        if (!v.ok()) return v.error();
        ins.imm.i64 = *v;
        break;
      }
      case OpImm::kF32: {
        auto v = s.f32le();
        if (!v.ok()) return v.error();
        ins.imm.f32 = *v;
        break;
      }
      case OpImm::kF64: {
        auto v = s.f64le();
        if (!v.ok()) return v.error();
        ins.imm.f64 = *v;
        break;
      }
      case OpImm::kMem8:
      case OpImm::kMem16:
      case OpImm::kMem32:
      case OpImm::kMem64: {
        auto align = s.uleb32();
        if (!align.ok()) return align.error();
        auto off = s.uleb32();
        if (!off.ok()) return off.error();
        ins.imm.mem = {*align, *off};
        break;
      }
      case OpImm::kMemIdx:
      case OpImm::kMemIdx2:
        for (int k = info.imm == OpImm::kMemIdx2 ? 2 : 1; k > 0; --k) {
          auto z = s.u8();
          if (!z.ok()) return z.error();
          if (*z != 0) return Error::decode("memory index must be 0");
        }
        break;
    }
    code.body.push_back(ins);
  }

  WARAN_CHECK_OK(link_control(code));
  return code;
}

// Resolves block/loop/if -> end (and if -> else) indices. Depth counting was
// already checked during decode, so mismatches here are internal errors,
// except `else` outside `if`, which we must reject.
Status Decoder::link_control(Code& code) {
  struct Open {
    uint32_t pc;
    Op op;
    uint32_t else_pc;  // UINT32_MAX if none
  };
  std::vector<Open> stack;
  for (uint32_t pc = 0; pc < code.body.size(); ++pc) {
    Instr& ins = code.body[pc];
    switch (ins.op) {
      case Op::kBlock:
      case Op::kLoop:
      case Op::kIf:
        stack.push_back({pc, ins.op, UINT32_MAX});
        break;
      case Op::kElse: {
        if (stack.empty() || stack.back().op != Op::kIf || stack.back().else_pc != UINT32_MAX) {
          return Error::decode("`else` without matching `if`");
        }
        stack.back().else_pc = pc;
        break;
      }
      case Op::kEnd: {
        if (stack.empty()) {
          // Function-level end (last instruction).
          if (pc + 1 != code.body.size()) return Error::internal("misplaced function end");
          break;
        }
        Open open = stack.back();
        stack.pop_back();
        Instr& opener = code.body[open.pc];
        opener.imm.ctrl.end_pc = pc;
        opener.imm.ctrl.else_pc = (open.else_pc != UINT32_MAX) ? open.else_pc : pc;
        if (open.else_pc != UINT32_MAX) {
          // Give `else` its end target too, so the interpreter can jump.
          code.body[open.else_pc].imm.ctrl.end_pc = pc;
          code.body[open.else_pc].imm.ctrl.else_pc = pc;
        }
        break;
      }
      default:
        break;
    }
  }
  if (!stack.empty()) return Error::internal("unclosed block after decode");
  return {};
}

Result<Module> Decoder::run() {
  auto magic = r_.u32le();
  if (!magic.ok()) return magic.error();
  if (*magic != 0x6d736100u) return Error::decode("bad wasm magic");
  auto version = r_.u32le();
  if (!version.ok()) return version.error();
  if (*version != 1) return Error::decode("unsupported wasm version");

  int last_section = 0;
  while (!r_.at_end()) {
    auto id = r_.u8();
    if (!id.ok()) return id.error();
    auto size = r_.uleb32();
    if (!size.ok()) return size.error();
    auto payload = r_.bytes(*size);
    if (!payload.ok()) return payload.error();
    if (*id == kSectionCustom) continue;  // custom sections are skipped wholesale
    if (*id > kSectionDataCount) return Error::decode("unknown section id");
    if (*id <= last_section) return Error::decode("out-of-order section");
    last_section = *id;

    ByteReader s(*payload);
    Status st;
    switch (*id) {
      case kSectionType: st = decode_type_section(s); break;
      case kSectionImport: st = decode_import_section(s); break;
      case kSectionFunction: st = decode_function_section(s); break;
      case kSectionTable: st = decode_table_section(s); break;
      case kSectionMemory: st = decode_memory_section(s); break;
      case kSectionGlobal: st = decode_global_section(s); break;
      case kSectionExport: st = decode_export_section(s); break;
      case kSectionStart: st = decode_start_section(s); break;
      case kSectionElement: st = decode_element_section(s); break;
      case kSectionDataCount: st = Status(); break;  // tolerated, unused
      case kSectionCode: st = decode_code_section(s); break;
      case kSectionData: st = decode_data_section(s); break;
      default: st = Error::decode("unknown section id");
    }
    if (!st.ok()) return st.error();
    if (!s.at_end()) return Error::decode("trailing bytes in section");
  }

  if (m_.codes.size() != declared_func_count_) {
    return Error::decode("function/code section count mismatch");
  }
  return std::move(m_);
}

Status Decoder::decode_code_section(ByteReader& s) {
  auto count = s.uleb32();
  if (!count.ok()) return count.error();
  if (*count != declared_func_count_) {
    return Error::decode("function/code section count mismatch");
  }
  m_.codes.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto body_size = s.uleb32();
    if (!body_size.ok()) return body_size.error();
    auto body = s.bytes(*body_size);
    if (!body.ok()) return body.error();
    ByteReader br(*body);
    size_t n_params = 0;
    uint32_t ti = m_.func_type_indices[i];
    if (ti < m_.types.size()) n_params = m_.types[ti].params.size();
    auto code = func_body(br, n_params);
    if (!code.ok()) return code.error();
    if (!br.at_end()) return Error::decode("trailing bytes in function body");
    m_.codes.push_back(std::move(*code));
  }
  return {};
}

}  // namespace

Result<Module> decode_module(std::span<const uint8_t> bytes) {
  Decoder d(bytes);
  return d.run();
}

}  // namespace waran::wasm
