// Decoded module representation. The binary decoder lowers each function
// body into a flat std::vector<Instr> with all immediates parsed; a
// control-linking pass then resolves structured control flow (matching
// else/end positions) so the interpreter never re-scans for block ends.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "wasm/opcode.h"
#include "wasm/types.h"

namespace waran::wasm {

struct TranslatedModule;  // wasm/translate.h

/// Block type of a block/loop/if: either empty or a single value type
/// (MVP structured-control typing; function-typed blocks are rejected).
struct BlockType {
  std::optional<ValType> result;

  uint8_t arity() const { return result ? 1 : 0; }
  bool operator==(const BlockType&) const = default;
};

/// One decoded instruction. 16 bytes; immediates live in the union, and the
/// control-linking pass fills `Ctrl::end_pc` / `Ctrl::else_pc`.
struct Instr {
  Op op = Op::kNop;
  /// Result type of a block/loop/if (set by the decoder).
  BlockType block;

  struct MemArg {
    uint32_t align;   // log2 of alignment
    uint32_t offset;
  };
  struct Ctrl {
    uint32_t end_pc;   // index of matching kEnd
    uint32_t else_pc;  // for kIf: index of kElse, or end_pc if no else
  };
  struct CallIndirect {
    uint32_t type_index;
    uint32_t table_index;  // MVP: must be 0
  };

  union {
    uint32_t index;       // local/global/func index, br depth
    int32_t i32;
    int64_t i64;
    float f32;
    double f64;
    MemArg mem;
    Ctrl ctrl;
    CallIndirect call_indirect;
    uint32_t br_table_index;  // index into Code::br_tables
  } imm = {};
};

static_assert(sizeof(Instr) == 16, "keep the instruction cell compact");

struct BrTable {
  std::vector<uint32_t> targets;  // label depths
  uint32_t default_target = 0;
};

/// A function body: declared locals (expanded) plus the instruction stream.
struct Code {
  std::vector<ValType> locals;  // does not include parameters
  std::vector<Instr> body;      // terminated by kEnd
  std::vector<BrTable> br_tables;
  /// Maximum operand-stack height this body can reach, recorded by the
  /// validator's type-checking pass. The translated interpreter reserves
  /// this once at frame entry and runs a raw stack pointer with no per-push
  /// capacity checks.
  uint32_t max_stack = 0;
};

enum class ImportKind : uint8_t { kFunc = 0, kTable = 1, kMemory = 2, kGlobal = 3 };

struct GlobalType {
  ValType type;
  bool mut = false;
  bool operator==(const GlobalType&) const = default;
};

struct TableType {
  Limits limits;  // funcref elements
  bool operator==(const TableType&) const = default;
};

struct Import {
  std::string module;
  std::string name;
  ImportKind kind;
  // One of, by kind:
  uint32_t type_index = 0;  // kFunc
  TableType table{};        // kTable
  Limits memory{};          // kMemory
  GlobalType global{};      // kGlobal
};

struct Export {
  std::string name;
  ImportKind kind;
  uint32_t index;
};

/// Constant initializer expression: a single const instruction (or
/// global.get of an imported immutable global).
struct ConstExpr {
  enum class Kind : uint8_t { kI32, kI64, kF32, kF64, kGlobalGet } kind = Kind::kI32;
  Value value{};
  uint32_t global_index = 0;
};

struct Global {
  GlobalType type;
  ConstExpr init;
};

struct ElemSegment {
  uint32_t table_index = 0;
  ConstExpr offset;
  std::vector<uint32_t> func_indices;
};

struct DataSegment {
  uint32_t memory_index = 0;
  ConstExpr offset;
  std::vector<uint8_t> bytes;
};

struct Module {
  std::vector<FuncType> types;
  std::vector<Import> imports;
  std::vector<uint32_t> func_type_indices;  // local functions only
  std::optional<TableType> table;           // defined table (at most 1 incl. imports)
  std::optional<Limits> memory;             // defined memory (at most 1 incl. imports)
  std::vector<Global> globals;              // defined globals
  std::vector<Export> exports;
  std::optional<uint32_t> start;
  std::vector<ElemSegment> elems;
  std::vector<Code> codes;
  std::vector<DataSegment> datas;

  /// Execution-oriented lowering of every function body (wasm/translate.h),
  /// attached by translate_module() after validation so all instances share
  /// one micro-op stream; Instance::instantiate translates on the fly when
  /// this is absent.
  std::shared_ptr<const TranslatedModule> translated;

  // --- Import index spaces, precomputed by the decoder (imports precede
  // definitions in every index space). ---
  std::vector<uint32_t> imported_func_types;      // type index per func import
  std::vector<GlobalType> imported_global_types;  // per global import
  std::optional<TableType> imported_table;
  std::optional<Limits> imported_memory;

  uint32_t num_imported_funcs = 0;
  uint32_t num_imported_globals = 0;
  bool has_imported_table = false;
  bool has_imported_memory = false;

  uint32_t num_funcs() const {
    return num_imported_funcs + static_cast<uint32_t>(func_type_indices.size());
  }
  uint32_t num_globals() const {
    return num_imported_globals + static_cast<uint32_t>(globals.size());
  }
  bool has_table() const { return has_imported_table || table.has_value(); }
  bool has_memory() const { return has_imported_memory || memory.has_value(); }

  /// Signature of function index `i` (import or definition). Precondition:
  /// i < num_funcs() and type indices validated.
  const FuncType& func_type(uint32_t i) const;
  /// Type of global index `i`.
  GlobalType global_type(uint32_t i) const;
  /// Limits of the single memory, whether imported or defined.
  const Limits* memory_limits() const;
  const TableType* table_type() const;
};

}  // namespace waran::wasm
