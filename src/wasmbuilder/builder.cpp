#include "wasmbuilder/builder.h"

#include <algorithm>
#include <cassert>

namespace waran::wasmbuilder {

void FunctionBuilder::emit_op(Op o) {
  uint16_t v = static_cast<uint16_t>(o);
  if (v >= 0xfc00) {
    body_.u8(0xfc);
    body_.uleb32(v & 0xff);
  } else {
    body_.u8(static_cast<uint8_t>(v));
  }
}

FunctionBuilder& FunctionBuilder::op(Op o) {
  emit_op(o);
  return *this;
}

FunctionBuilder& FunctionBuilder::i32_const(int32_t v) {
  emit_op(Op::kI32Const);
  body_.sleb32(v);
  return *this;
}

FunctionBuilder& FunctionBuilder::i64_const(int64_t v) {
  emit_op(Op::kI64Const);
  body_.sleb(v);
  return *this;
}

FunctionBuilder& FunctionBuilder::f32_const(float v) {
  emit_op(Op::kF32Const);
  body_.f32le(v);
  return *this;
}

FunctionBuilder& FunctionBuilder::f64_const(double v) {
  emit_op(Op::kF64Const);
  body_.f64le(v);
  return *this;
}

FunctionBuilder& FunctionBuilder::local_get(uint32_t idx) {
  emit_op(Op::kLocalGet);
  body_.uleb32(idx);
  return *this;
}

FunctionBuilder& FunctionBuilder::local_set(uint32_t idx) {
  emit_op(Op::kLocalSet);
  body_.uleb32(idx);
  return *this;
}

FunctionBuilder& FunctionBuilder::local_tee(uint32_t idx) {
  emit_op(Op::kLocalTee);
  body_.uleb32(idx);
  return *this;
}

FunctionBuilder& FunctionBuilder::global_get(uint32_t idx) {
  emit_op(Op::kGlobalGet);
  body_.uleb32(idx);
  return *this;
}

FunctionBuilder& FunctionBuilder::global_set(uint32_t idx) {
  emit_op(Op::kGlobalSet);
  body_.uleb32(idx);
  return *this;
}

namespace {
void emit_block_type(ByteWriter& w, BlockT bt) {
  if (bt.result) {
    w.u8(static_cast<uint8_t>(*bt.result));
  } else {
    w.u8(0x40);
  }
}
}  // namespace

FunctionBuilder& FunctionBuilder::block(BlockT bt) {
  emit_op(Op::kBlock);
  emit_block_type(body_, bt);
  return *this;
}

FunctionBuilder& FunctionBuilder::loop(BlockT bt) {
  emit_op(Op::kLoop);
  emit_block_type(body_, bt);
  return *this;
}

FunctionBuilder& FunctionBuilder::if_(BlockT bt) {
  emit_op(Op::kIf);
  emit_block_type(body_, bt);
  return *this;
}

FunctionBuilder& FunctionBuilder::else_() { return op(Op::kElse); }
FunctionBuilder& FunctionBuilder::end() { return op(Op::kEnd); }

FunctionBuilder& FunctionBuilder::br(uint32_t depth) {
  emit_op(Op::kBr);
  body_.uleb32(depth);
  return *this;
}

FunctionBuilder& FunctionBuilder::br_if(uint32_t depth) {
  emit_op(Op::kBrIf);
  body_.uleb32(depth);
  return *this;
}

FunctionBuilder& FunctionBuilder::br_table(const std::vector<uint32_t>& targets,
                                           uint32_t default_target) {
  emit_op(Op::kBrTable);
  body_.uleb32(static_cast<uint32_t>(targets.size()));
  for (uint32_t t : targets) body_.uleb32(t);
  body_.uleb32(default_target);
  return *this;
}

FunctionBuilder& FunctionBuilder::call(uint32_t func_index) {
  emit_op(Op::kCall);
  body_.uleb32(func_index);
  return *this;
}

FunctionBuilder& FunctionBuilder::call_indirect(uint32_t type_index) {
  emit_op(Op::kCallIndirect);
  body_.uleb32(type_index);
  body_.u8(0);  // table index
  return *this;
}

FunctionBuilder& FunctionBuilder::mem(Op o, uint32_t offset, uint32_t align_log2) {
  emit_op(o);
  body_.uleb32(align_log2);
  body_.uleb32(offset);
  return *this;
}

FunctionBuilder& FunctionBuilder::memory_size() {
  emit_op(Op::kMemorySize);
  body_.u8(0);
  return *this;
}

FunctionBuilder& FunctionBuilder::memory_grow() {
  emit_op(Op::kMemoryGrow);
  body_.u8(0);
  return *this;
}

FunctionBuilder& FunctionBuilder::memory_copy() {
  emit_op(Op::kMemoryCopy);
  body_.u8(0);
  body_.u8(0);
  return *this;
}

FunctionBuilder& FunctionBuilder::memory_fill() {
  emit_op(Op::kMemoryFill);
  body_.u8(0);
  return *this;
}

std::vector<uint8_t> FunctionBuilder::finish() const {
  // Locals are emitted as run-length groups of equal types.
  ByteWriter w;
  std::vector<std::pair<ValType, uint32_t>> groups;
  for (ValType t : locals_) {
    if (!groups.empty() && groups.back().first == t) {
      ++groups.back().second;
    } else {
      groups.push_back({t, 1});
    }
  }
  w.uleb32(static_cast<uint32_t>(groups.size()));
  for (auto [t, n] : groups) {
    w.uleb32(n);
    w.u8(static_cast<uint8_t>(t));
  }
  w.bytes(body_.data());
  return w.take();
}

uint32_t ModuleBuilder::add_type(const FuncType& t) {
  auto it = std::find(types_.begin(), types_.end(), t);
  if (it != types_.end()) return static_cast<uint32_t>(it - types_.begin());
  types_.push_back(t);
  return static_cast<uint32_t>(types_.size() - 1);
}

uint32_t ModuleBuilder::import_func(const std::string& module, const std::string& name,
                                    const FuncType& type) {
  assert(funcs_.empty() && "imports must be declared before defined functions");
  imports_.push_back({module, name, add_type(type)});
  return static_cast<uint32_t>(imports_.size() - 1);
}

FunctionBuilder& ModuleBuilder::add_func(const FuncType& type,
                                         const std::string& export_name) {
  uint32_t index = num_funcs();
  func_type_indices_.push_back(add_type(type));
  funcs_.push_back(std::make_unique<FunctionBuilder>(type, index));
  if (!export_name.empty()) export_func(export_name, index);
  return *funcs_.back();
}

uint32_t ModuleBuilder::add_memory(uint32_t min_pages, std::optional<uint32_t> max_pages,
                                   const std::string& export_name) {
  memory_ = {min_pages, max_pages};
  if (!export_name.empty()) exports_.push_back({export_name, 2, 0});
  return 0;
}

uint32_t ModuleBuilder::add_global(ValType type, bool mut, wasm::Value init,
                                   const std::string& export_name) {
  globals_.push_back({type, mut, init});
  uint32_t index = static_cast<uint32_t>(globals_.size() - 1);
  if (!export_name.empty()) exports_.push_back({export_name, 3, index});
  return index;
}

uint32_t ModuleBuilder::add_table(uint32_t min, std::optional<uint32_t> max) {
  table_ = {min, max};
  return 0;
}

void ModuleBuilder::add_elem(uint32_t offset, const std::vector<uint32_t>& func_indices) {
  elems_.push_back({offset, func_indices});
}

void ModuleBuilder::add_data(uint32_t offset, std::span<const uint8_t> bytes) {
  datas_.push_back({offset, {bytes.begin(), bytes.end()}});
}

void ModuleBuilder::export_func(const std::string& name, uint32_t func_index) {
  exports_.push_back({name, 0, func_index});
}

void ModuleBuilder::add_export(const std::string& name, uint8_t kind, uint32_t index) {
  exports_.push_back({name, kind, index});
}

namespace {

void write_limits(ByteWriter& w, uint32_t min, std::optional<uint32_t> max) {
  w.u8(max ? 1 : 0);
  w.uleb32(min);
  if (max) w.uleb32(*max);
}

void write_section(ByteWriter& out, uint8_t id, const ByteWriter& payload) {
  out.u8(id);
  out.uleb32(static_cast<uint32_t>(payload.size()));
  out.bytes(payload.data());
}

void write_const_init(ByteWriter& w, ValType type, wasm::Value v) {
  switch (type) {
    case ValType::kI32:
      w.u8(0x41);
      w.sleb32(v.as_i32());
      break;
    case ValType::kI64:
      w.u8(0x42);
      w.sleb(v.as_i64());
      break;
    case ValType::kF32:
      w.u8(0x43);
      w.f32le(v.as_f32());
      break;
    case ValType::kF64:
      w.u8(0x44);
      w.f64le(v.as_f64());
      break;
  }
  w.u8(0x0b);
}

}  // namespace

std::vector<uint8_t> ModuleBuilder::build() const {
  ByteWriter out;
  out.u32le(0x6d736100u);  // "\0asm"
  out.u32le(1);

  if (!types_.empty()) {
    ByteWriter s;
    s.uleb32(static_cast<uint32_t>(types_.size()));
    for (const FuncType& t : types_) {
      s.u8(0x60);
      s.uleb32(static_cast<uint32_t>(t.params.size()));
      for (ValType p : t.params) s.u8(static_cast<uint8_t>(p));
      s.uleb32(static_cast<uint32_t>(t.results.size()));
      for (ValType r : t.results) s.u8(static_cast<uint8_t>(r));
    }
    write_section(out, 1, s);
  }

  if (!imports_.empty()) {
    ByteWriter s;
    s.uleb32(static_cast<uint32_t>(imports_.size()));
    for (const ImportEntry& imp : imports_) {
      s.name(imp.module);
      s.name(imp.name);
      s.u8(0);
      s.uleb32(imp.type_index);
    }
    write_section(out, 2, s);
  }

  if (!funcs_.empty()) {
    ByteWriter s;
    s.uleb32(static_cast<uint32_t>(funcs_.size()));
    for (uint32_t ti : func_type_indices_) s.uleb32(ti);
    write_section(out, 3, s);
  }

  if (table_) {
    ByteWriter s;
    s.uleb32(1);
    s.u8(0x70);
    write_limits(s, table_->first, table_->second);
    write_section(out, 4, s);
  }

  if (memory_) {
    ByteWriter s;
    s.uleb32(1);
    write_limits(s, memory_->first, memory_->second);
    write_section(out, 5, s);
  }

  if (!globals_.empty()) {
    ByteWriter s;
    s.uleb32(static_cast<uint32_t>(globals_.size()));
    for (const GlobalEntry& g : globals_) {
      s.u8(static_cast<uint8_t>(g.type));
      s.u8(g.mut ? 1 : 0);
      write_const_init(s, g.type, g.init);
    }
    write_section(out, 6, s);
  }

  if (!exports_.empty()) {
    ByteWriter s;
    s.uleb32(static_cast<uint32_t>(exports_.size()));
    for (const ExportEntry& e : exports_) {
      s.name(e.name);
      s.u8(e.kind);
      s.uleb32(e.index);
    }
    write_section(out, 7, s);
  }

  if (start_) {
    ByteWriter s;
    s.uleb32(*start_);
    write_section(out, 8, s);
  }

  if (!elems_.empty()) {
    ByteWriter s;
    s.uleb32(static_cast<uint32_t>(elems_.size()));
    for (const ElemEntry& e : elems_) {
      s.uleb32(0);  // flags: active, table 0
      s.u8(0x41);
      s.sleb32(static_cast<int32_t>(e.offset));
      s.u8(0x0b);
      s.uleb32(static_cast<uint32_t>(e.funcs.size()));
      for (uint32_t f : e.funcs) s.uleb32(f);
    }
    write_section(out, 9, s);
  }

  if (!funcs_.empty()) {
    ByteWriter s;
    s.uleb32(static_cast<uint32_t>(funcs_.size()));
    for (const auto& f : funcs_) {
      std::vector<uint8_t> body = f->finish();
      s.uleb32(static_cast<uint32_t>(body.size()));
      s.bytes(body);
    }
    write_section(out, 10, s);
  }

  if (!datas_.empty()) {
    ByteWriter s;
    s.uleb32(static_cast<uint32_t>(datas_.size()));
    for (const DataEntry& d : datas_) {
      s.uleb32(0);  // flags: active, memory 0
      s.u8(0x41);
      s.sleb32(static_cast<int32_t>(d.offset));
      s.u8(0x0b);
      s.uleb32(static_cast<uint32_t>(d.bytes.size()));
      s.bytes(d.bytes);
    }
    write_section(out, 11, s);
  }

  return out.take();
}

}  // namespace waran::wasmbuilder
