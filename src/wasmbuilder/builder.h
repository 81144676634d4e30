// In-memory WebAssembly module builder: emits spec-conformant binary modules
// directly (the inverse of wasm/decoder). WA-RAN uses it two ways:
//   1. as the backend of the `wcc` mini-language compiler that plugin
//      sources are written in, and
//   2. to hand-assemble adversarial modules for the §5D safety experiments
//      and the engine's own test suite (encode -> decode round-trips).
//
// Index spaces follow the binary format: all function imports must be
// declared before the first defined function.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "wasm/opcode.h"
#include "wasm/types.h"

namespace waran::wasmbuilder {

using wasm::FuncType;
using wasm::Op;
using wasm::ValType;

/// Block type for structured control instructions.
struct BlockT {
  std::optional<ValType> result;

  static BlockT none() { return {}; }
  static BlockT i32() { return {ValType::kI32}; }
  static BlockT i64() { return {ValType::kI64}; }
  static BlockT f32() { return {ValType::kF32}; }
  static BlockT f64() { return {ValType::kF64}; }
};

/// Emits one function body. Methods append instructions in order; the
/// caller is responsible for structural correctness (the engine's validator
/// is the checker of record — tests rely on that).
class FunctionBuilder {
 public:
  FunctionBuilder(FuncType type, uint32_t index) : type_(std::move(type)), index_(index) {}

  uint32_t index() const { return index_; }
  const FuncType& type() const { return type_; }

  /// Declares a local of type `t`; returns its index (after parameters).
  uint32_t add_local(ValType t) {
    locals_.push_back(t);
    return static_cast<uint32_t>(type_.params.size() + locals_.size() - 1);
  }

  // --- Plain instructions (no immediate). ---
  FunctionBuilder& op(Op o);

  // --- Constants. ---
  FunctionBuilder& i32_const(int32_t v);
  FunctionBuilder& i64_const(int64_t v);
  FunctionBuilder& f32_const(float v);
  FunctionBuilder& f64_const(double v);

  // --- Variables. ---
  FunctionBuilder& local_get(uint32_t idx);
  FunctionBuilder& local_set(uint32_t idx);
  FunctionBuilder& local_tee(uint32_t idx);
  FunctionBuilder& global_get(uint32_t idx);
  FunctionBuilder& global_set(uint32_t idx);

  // --- Control. ---
  FunctionBuilder& block(BlockT bt = {});
  FunctionBuilder& loop(BlockT bt = {});
  FunctionBuilder& if_(BlockT bt = {});
  FunctionBuilder& else_();
  FunctionBuilder& end();
  FunctionBuilder& br(uint32_t depth);
  FunctionBuilder& br_if(uint32_t depth);
  FunctionBuilder& br_table(const std::vector<uint32_t>& targets, uint32_t default_target);
  FunctionBuilder& ret() { return op(Op::kReturn); }
  FunctionBuilder& call(uint32_t func_index);
  FunctionBuilder& call_indirect(uint32_t type_index);

  // --- Memory. ---
  /// Any load or store: the opcode and its memarg (offset, log2 alignment).
  FunctionBuilder& mem(Op o, uint32_t offset = 0, uint32_t align_log2 = 0);
  FunctionBuilder& memory_size();
  FunctionBuilder& memory_grow();
  FunctionBuilder& memory_copy();
  FunctionBuilder& memory_fill();

  /// Serialized body (locals + instructions); `end()` for the function'
  /// closing delimiter must already have been emitted by the caller.
  std::vector<uint8_t> finish() const;

 private:
  void emit_op(Op o);

  FuncType type_;
  uint32_t index_;
  std::vector<ValType> locals_;
  ByteWriter body_;
};

/// Whole-module builder.
class ModuleBuilder {
 public:
  /// Interns a function type, deduplicating.
  uint32_t add_type(const FuncType& t);

  /// Declares a function import. Must precede all add_func calls.
  uint32_t import_func(const std::string& module, const std::string& name,
                       const FuncType& type);

  /// Starts a new defined function; returns a builder bound to its index.
  /// The builder reference stays valid until build().
  FunctionBuilder& add_func(const FuncType& type,
                            const std::string& export_name = "");

  /// Declares the (single) memory; returns 0. Optionally exported.
  uint32_t add_memory(uint32_t min_pages, std::optional<uint32_t> max_pages = {},
                      const std::string& export_name = "");

  uint32_t add_global(ValType type, bool mut, wasm::Value init,
                      const std::string& export_name = "");

  uint32_t add_table(uint32_t min, std::optional<uint32_t> max = {});
  void add_elem(uint32_t offset, const std::vector<uint32_t>& func_indices);
  void add_data(uint32_t offset, std::span<const uint8_t> bytes);
  void set_start(uint32_t func_index) { start_ = func_index; }
  void export_func(const std::string& name, uint32_t func_index);
  /// Generic export entry (kind: 0 func, 1 table, 2 memory, 3 global).
  void add_export(const std::string& name, uint8_t kind, uint32_t index);

  uint32_t num_funcs() const {
    return static_cast<uint32_t>(imports_.size() + funcs_.size());
  }

  /// Serializes the module. The builder can keep being used afterwards
  /// (build is const).
  std::vector<uint8_t> build() const;

 private:
  struct ImportEntry {
    std::string module;
    std::string name;
    uint32_t type_index;
  };
  struct GlobalEntry {
    ValType type;
    bool mut;
    wasm::Value init;
  };
  struct ExportEntry {
    std::string name;
    uint8_t kind;
    uint32_t index;
  };
  struct ElemEntry {
    uint32_t offset;
    std::vector<uint32_t> funcs;
  };
  struct DataEntry {
    uint32_t offset;
    std::vector<uint8_t> bytes;
  };

  std::vector<FuncType> types_;
  std::vector<ImportEntry> imports_;
  std::vector<std::unique_ptr<FunctionBuilder>> funcs_;
  std::vector<uint32_t> func_type_indices_;
  std::optional<std::pair<uint32_t, std::optional<uint32_t>>> memory_;
  std::optional<std::pair<uint32_t, std::optional<uint32_t>>> table_;
  std::vector<GlobalEntry> globals_;
  std::vector<ExportEntry> exports_;
  std::vector<ElemEntry> elems_;
  std::vector<DataEntry> datas_;
  std::optional<uint32_t> start_;
};

}  // namespace waran::wasmbuilder
