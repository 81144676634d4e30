#include "wasmbuilder/wat.h"

#include "wasm/opcode.h"
#include "wasm/types.h"

#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "wasmbuilder/builder.h"

namespace waran::wasmbuilder {
namespace {

using wasm::Op;
using wasm::OpImm;
using wasm::ValType;

// --- Tokenizer -------------------------------------------------------------

struct Token {
  enum class Kind : uint8_t { kLParen, kRParen, kString, kAtom, kEof } kind;
  std::string text;  // string contents (unescaped) or atom spelling
  uint32_t line = 1;
};

Result<std::vector<Token>> tokenize(std::string_view src) {
  std::vector<Token> out;
  uint32_t line = 1;
  size_t i = 0;
  auto err = [&](const std::string& msg) {
    return Error::decode("wat line " + std::to_string(line) + ": " + msg);
  };
  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == ';' && i + 1 < src.size() && src[i + 1] == ';') {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    if (c == '(') {
      out.push_back({Token::Kind::kLParen, "(", line});
      ++i;
      continue;
    }
    if (c == ')') {
      out.push_back({Token::Kind::kRParen, ")", line});
      ++i;
      continue;
    }
    if (c == '"') {
      ++i;
      std::string s;
      while (i < src.size() && src[i] != '"') {
        if (src[i] == '\\') {
          // WAT string escapes: two hex digits (the only form we emit).
          if (i + 2 >= src.size()) return err("truncated string escape");
          auto nib = [](char h) -> int {
            if (h >= '0' && h <= '9') return h - '0';
            if (h >= 'a' && h <= 'f') return h - 'a' + 10;
            if (h >= 'A' && h <= 'F') return h - 'A' + 10;
            return -1;
          };
          int hi = nib(src[i + 1]), lo = nib(src[i + 2]);
          if (hi < 0 || lo < 0) return err("bad \\hh escape in string");
          s.push_back(static_cast<char>((hi << 4) | lo));
          i += 3;
        } else {
          s.push_back(src[i++]);
        }
      }
      if (i >= src.size()) return err("unterminated string");
      ++i;  // closing quote
      out.push_back({Token::Kind::kString, std::move(s), line});
      continue;
    }
    size_t start = i;
    while (i < src.size() && src[i] != ' ' && src[i] != '\t' && src[i] != '\n' &&
           src[i] != '\r' && src[i] != '(' && src[i] != ')') {
      ++i;
    }
    out.push_back({Token::Kind::kAtom, std::string(src.substr(start, i - start)), line});
  }
  out.push_back({Token::Kind::kEof, "", line});
  return out;
}

// --- Opcode name table ------------------------------------------------------

const std::map<std::string, Op>& opcode_by_name() {
  static const std::map<std::string, Op> kMap = {
#define WARAN_WAT_NAME(name, code, text, ...) {text, Op::k##name},
      WARAN_OPCODES(WARAN_WAT_NAME)
#undef WARAN_WAT_NAME
  };
  return kMap;
}

// --- Parser ------------------------------------------------------------------

class WatParser {
 public:
  explicit WatParser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<std::vector<uint8_t>> run();

 private:
  std::vector<Token> toks_;
  size_t pos_ = 0;
  ModuleBuilder mb_;
  bool saw_func_ = false;

  const Token& peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  Token take() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool accept(Token::Kind k) {
    if (peek().kind == k) {
      take();
      return true;
    }
    return false;
  }
  bool accept_atom(const char* text) {
    if (peek().kind == Token::Kind::kAtom && peek().text == text) {
      take();
      return true;
    }
    return false;
  }

  Error err(const std::string& msg) const {
    return Error::decode("wat line " + std::to_string(peek().line) + ": " + msg +
                         " (got '" + peek().text + "')");
  }

  Status expect(Token::Kind k, const char* what) {
    if (!accept(k)) return err(std::string("expected ") + what);
    return {};
  }
  Status expect_atom(const char* text) {
    if (!accept_atom(text)) return err(std::string("expected '") + text + "'");
    return {};
  }

  Result<int64_t> integer_atom() {
    if (peek().kind != Token::Kind::kAtom) return err("expected an integer");
    const std::string& t = peek().text;
    int64_t v = 0;
    auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc() || p != t.data() + t.size()) return err("bad integer");
    take();
    return v;
  }

  Result<uint32_t> index_atom() {
    WARAN_TRY(v, integer_atom());
    if (v < 0 || v > UINT32_MAX) return err("index out of range");
    return static_cast<uint32_t>(v);
  }

  bool next_is_integer() const {
    if (peek().kind != Token::Kind::kAtom) return false;
    const std::string& t = peek().text;
    if (t.empty()) return false;
    size_t k = t[0] == '-' ? 1 : 0;
    if (k >= t.size()) return false;
    for (; k < t.size(); ++k) {
      if (t[k] < '0' || t[k] > '9') return false;
    }
    return true;
  }

  Result<double> float_atom() {
    if (peek().kind != Token::Kind::kAtom) return err("expected a number");
    std::string t = take().text;
    if (t == "nan" || t == "-nan" || t == "nan(canonical)") {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (t == "inf") return std::numeric_limits<double>::infinity();
    if (t == "-inf") return -std::numeric_limits<double>::infinity();
    double v = 0;
    auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc() || p != t.data() + t.size()) {
      return Error::decode("wat: bad float literal '" + t + "'");
    }
    return v;
  }

  Result<ValType> val_type_atom() {
    if (peek().kind != Token::Kind::kAtom) return err("expected a value type");
    const std::string& t = peek().text;
    ValType v;
    if (t == "i32") v = ValType::kI32;
    else if (t == "i64") v = ValType::kI64;
    else if (t == "f32") v = ValType::kF32;
    else if (t == "f64") v = ValType::kF64;
    else return err("unknown value type");
    take();
    return v;
  }

  /// Parses optional `(param t*)` and `(result t?)` groups.
  Result<FuncType> signature() {
    FuncType ft;
    while (peek().kind == Token::Kind::kLParen) {
      if (peek(1).text == "param") {
        take();
        take();
        while (!accept(Token::Kind::kRParen)) {
          WARAN_TRY(t, val_type_atom());
          ft.params.push_back(t);
        }
      } else if (peek(1).text == "result") {
        take();
        take();
        while (!accept(Token::Kind::kRParen)) {
          WARAN_TRY(t, val_type_atom());
          ft.results.push_back(t);
        }
      } else {
        break;
      }
    }
    return ft;
  }

  /// Parses `(limits...)`-style `min max?` immediately from atoms.
  Result<std::pair<uint32_t, std::optional<uint32_t>>> limits() {
    WARAN_TRY(min, index_atom());
    std::optional<uint32_t> max;
    if (next_is_integer()) {
      WARAN_TRY(m, index_atom());
      max = m;
    }
    return std::pair<uint32_t, std::optional<uint32_t>>{min, max};
  }

  Status item();
  Status parse_func();
  Status parse_instrs(FunctionBuilder& fb);
  Result<wasm::Value> const_value(ValType* type_out);
};

Result<wasm::Value> WatParser::const_value(ValType* type_out) {
  // "(t.const VALUE)" with the opening paren already consumed by caller?
  // Callers hand us the full group: ( t.const VALUE )
  WARAN_CHECK_OK(expect(Token::Kind::kLParen, "'('"));
  if (peek().kind != Token::Kind::kAtom) return err("expected t.const");
  std::string op = take().text;
  wasm::Value v{};
  if (op == "i32.const") {
    WARAN_TRY(x, integer_atom());
    v = wasm::Value::from_i32(static_cast<int32_t>(x));
    *type_out = ValType::kI32;
  } else if (op == "i64.const") {
    WARAN_TRY(x, integer_atom());
    v = wasm::Value::from_i64(x);
    *type_out = ValType::kI64;
  } else if (op == "f32.const") {
    WARAN_TRY(x, float_atom());
    v = wasm::Value::from_f32(static_cast<float>(x));
    *type_out = ValType::kF32;
  } else if (op == "f64.const") {
    WARAN_TRY(x, float_atom());
    v = wasm::Value::from_f64(x);
    *type_out = ValType::kF64;
  } else {
    return err("unsupported constant initializer");
  }
  WARAN_CHECK_OK(expect(Token::Kind::kRParen, "')'"));
  return v;
}

Status WatParser::parse_instrs(FunctionBuilder& fb) {
  // Flat instruction stream until the function's closing ')'. The body's
  // final `end` may be omitted (hand-written text); disassembler output
  // always includes it. Track nesting so we can auto-close.
  int depth = 1;
  while (peek().kind == Token::Kind::kAtom) {
    std::string name = take().text;
    auto oit = opcode_by_name().find(name);
    if (oit == opcode_by_name().end()) {
      return Error::decode("wat: unknown instruction '" + name + "'");
    }
    const Op op = oit->second;
    const wasm::OpInfo& info = wasm::op_info(op);
    switch (info.imm) {
      case OpImm::kNone:
        fb.op(op);
        if (op == Op::kEnd) --depth;
        break;
      case OpImm::kBlock: {
        BlockT bt;
        if (peek().kind == Token::Kind::kLParen && peek(1).text == "result") {
          take();
          take();
          WARAN_TRY(t, val_type_atom());
          bt.result = t;
          WARAN_CHECK_OK(expect(Token::Kind::kRParen, "')'"));
        }
        if (op == Op::kBlock) fb.block(bt);
        if (op == Op::kLoop) fb.loop(bt);
        if (op == Op::kIf) fb.if_(bt);
        ++depth;
        break;
      }
      case OpImm::kIndex: {
        WARAN_TRY(idx, index_atom());
        switch (op) {
          case Op::kBr: fb.br(idx); break;
          case Op::kBrIf: fb.br_if(idx); break;
          case Op::kCall: fb.call(idx); break;
          case Op::kLocalGet: fb.local_get(idx); break;
          case Op::kLocalSet: fb.local_set(idx); break;
          case Op::kLocalTee: fb.local_tee(idx); break;
          case Op::kGlobalGet: fb.global_get(idx); break;
          default: fb.global_set(idx); break;
        }
        break;
      }
      case OpImm::kBrTable: {
        std::vector<uint32_t> targets;
        while (next_is_integer()) {
          WARAN_TRY(t, index_atom());
          targets.push_back(t);
        }
        if (targets.empty()) return err("br_table needs targets");
        uint32_t def = targets.back();
        targets.pop_back();
        fb.br_table(targets, def);
        break;
      }
      case OpImm::kCallIndirect: {
        WARAN_CHECK_OK(expect(Token::Kind::kLParen, "'('"));
        WARAN_CHECK_OK(expect_atom("type"));
        WARAN_TRY(ti, index_atom());
        WARAN_CHECK_OK(expect(Token::Kind::kRParen, "')'"));
        fb.call_indirect(ti);
        break;
      }
      case OpImm::kI32: {
        WARAN_TRY(v, integer_atom());
        fb.i32_const(static_cast<int32_t>(v));
        break;
      }
      case OpImm::kI64: {
        WARAN_TRY(v, integer_atom());
        fb.i64_const(v);
        break;
      }
      case OpImm::kF32: {
        WARAN_TRY(v, float_atom());
        fb.f32_const(static_cast<float>(v));
        break;
      }
      case OpImm::kF64: {
        WARAN_TRY(v, float_atom());
        fb.f64_const(v);
        break;
      }
      case OpImm::kMem8:
      case OpImm::kMem16:
      case OpImm::kMem32:
      case OpImm::kMem64: {
        uint32_t offset = 0;
        uint32_t align_bytes = 1;
        while (peek().kind == Token::Kind::kAtom &&
               (peek().text.starts_with("offset=") || peek().text.starts_with("align="))) {
          std::string t = take().text;
          size_t eq = t.find('=');
          uint32_t v = 0;
          auto [p, ec] = std::from_chars(t.data() + eq + 1, t.data() + t.size(), v);
          if (ec != std::errc() || p != t.data() + t.size()) {
            return Error::decode("wat: bad memarg '" + t + "'");
          }
          if (t[0] == 'o') offset = v;
          else align_bytes = v;
        }
        uint32_t align_log2 = 0;
        while ((1u << align_log2) < align_bytes) ++align_log2;
        fb.mem(op, offset, align_log2);
        break;
      }
      case OpImm::kMemIdx:
      case OpImm::kMemIdx2:
        switch (op) {
          case Op::kMemorySize: fb.memory_size(); break;
          case Op::kMemoryGrow: fb.memory_grow(); break;
          case Op::kMemoryCopy: fb.memory_copy(); break;
          default: fb.memory_fill(); break;
        }
        break;
    }
    if (depth == 0) break;  // function body complete
  }
  // Auto-close any remaining frames (incl. the implicit function frame).
  for (; depth > 0; --depth) fb.end();
  return {};
}

Status WatParser::parse_func() {
  // `func` consumed. Optional $name atom.
  if (peek().kind == Token::Kind::kAtom && peek().text.starts_with("$")) take();
  WARAN_TRY(sig, signature());
  FunctionBuilder& fb = mb_.add_func(sig);
  saw_func_ = true;
  // Optional (local t*).
  if (peek().kind == Token::Kind::kLParen && peek(1).text == "local") {
    take();
    take();
    while (!accept(Token::Kind::kRParen)) {
      WARAN_TRY(t, val_type_atom());
      fb.add_local(t);
    }
  }
  WARAN_CHECK_OK(parse_instrs(fb));
  WARAN_CHECK_OK(expect(Token::Kind::kRParen, "')' closing func"));
  return {};
}

Status WatParser::item() {
  WARAN_CHECK_OK(expect(Token::Kind::kLParen, "'('"));
  if (peek().kind != Token::Kind::kAtom) return err("expected an item keyword");
  std::string kind = take().text;

  if (kind == "type") {
    // (type N (func ...)) — indices must match interning order.
    WARAN_TRY(declared, index_atom());
    WARAN_CHECK_OK(expect(Token::Kind::kLParen, "'('"));
    WARAN_CHECK_OK(expect_atom("func"));
    WARAN_TRY(sig, signature());
    WARAN_CHECK_OK(expect(Token::Kind::kRParen, "')'"));
    uint32_t got = mb_.add_type(sig);
    if (got != declared) {
      return Error::decode("wat: type index mismatch (duplicate type entries?)");
    }
  } else if (kind == "import") {
    if (saw_func_) return err("imports must precede function definitions");
    if (peek().kind != Token::Kind::kString) return err("expected module string");
    std::string module = take().text;
    if (peek().kind != Token::Kind::kString) return err("expected name string");
    std::string name = take().text;
    WARAN_CHECK_OK(expect(Token::Kind::kLParen, "'('"));
    if (!accept_atom("func")) return err("only function imports are supported");
    WARAN_TRY(sig, signature());
    WARAN_CHECK_OK(expect(Token::Kind::kRParen, "')'"));
    mb_.import_func(module, name, sig);
  } else if (kind == "memory") {
    WARAN_TRY(l, limits());
    mb_.add_memory(l.first, l.second);
  } else if (kind == "table") {
    WARAN_TRY(l, limits());
    WARAN_CHECK_OK(expect_atom("funcref"));
    mb_.add_table(l.first, l.second);
  } else if (kind == "global") {
    WARAN_TRY(index, index_atom());
    (void)index;
    WARAN_CHECK_OK(expect(Token::Kind::kLParen, "'('"));
    bool mut = accept_atom("mut");
    WARAN_TRY(type, val_type_atom());
    WARAN_CHECK_OK(expect(Token::Kind::kRParen, "')'"));
    ValType init_type;
    WARAN_TRY(init, const_value(&init_type));
    if (init_type != type) return err("global initializer type mismatch");
    mb_.add_global(type, mut, init);
  } else if (kind == "export") {
    if (peek().kind != Token::Kind::kString) return err("expected export name");
    std::string name = take().text;
    WARAN_CHECK_OK(expect(Token::Kind::kLParen, "'('"));
    if (peek().kind != Token::Kind::kAtom) return err("expected export kind");
    std::string what = take().text;
    WARAN_TRY(index, index_atom());
    WARAN_CHECK_OK(expect(Token::Kind::kRParen, "')'"));
    uint8_t code;
    if (what == "func") code = 0;
    else if (what == "table") code = 1;
    else if (what == "memory") code = 2;
    else if (what == "global") code = 3;
    else return err("unknown export kind");
    mb_.add_export(name, code, index);
  } else if (kind == "start") {
    WARAN_TRY(index, index_atom());
    mb_.set_start(index);
  } else if (kind == "elem") {
    ValType t;
    WARAN_TRY(off, const_value(&t));
    if (t != ValType::kI32) return err("elem offset must be i32.const");
    std::vector<uint32_t> funcs;
    while (next_is_integer()) {
      WARAN_TRY(fi, index_atom());
      funcs.push_back(fi);
    }
    mb_.add_elem(off.as_u32(), funcs);
  } else if (kind == "data") {
    ValType t;
    WARAN_TRY(off, const_value(&t));
    if (t != ValType::kI32) return err("data offset must be i32.const");
    if (peek().kind != Token::Kind::kString) return err("expected data string");
    std::string bytes = take().text;
    mb_.add_data(off.as_u32(),
                 std::span<const uint8_t>(
                     reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()));
  } else if (kind == "func") {
    return parse_func();  // consumes its own closing paren
  } else {
    return err("unknown module item '" + kind + "'");
  }
  WARAN_CHECK_OK(expect(Token::Kind::kRParen, "')' closing item"));
  return {};
}

Result<std::vector<uint8_t>> WatParser::run() {
  WARAN_CHECK_OK(expect(Token::Kind::kLParen, "'('"));
  WARAN_CHECK_OK(expect_atom("module"));
  while (!accept(Token::Kind::kRParen)) {
    if (peek().kind == Token::Kind::kEof) return err("unterminated module");
    WARAN_CHECK_OK(item());
  }
  if (peek().kind != Token::Kind::kEof) return err("trailing input after module");
  return mb_.build();
}

}  // namespace

Result<std::vector<uint8_t>> assemble_wat(std::string_view text) {
  WARAN_TRY(tokens, tokenize(text));
  WatParser parser(std::move(tokens));
  return parser.run();
}

}  // namespace waran::wasmbuilder
