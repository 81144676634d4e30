#include "wcc/lexer.h"

#include <cctype>
#include <charconv>
#include <map>

namespace waran::wcc {

const char* to_string(Tok t) {
  switch (t) {
    case Tok::kEof: return "<eof>";
    case Tok::kIdent: return "identifier";
    case Tok::kIntLit: return "integer literal";
    case Tok::kFloatLit: return "float literal";
    case Tok::kFn: return "fn";
    case Tok::kVar: return "var";
    case Tok::kGlobal: return "global";
    case Tok::kExport: return "export";
    case Tok::kExtern: return "extern";
    case Tok::kIf: return "if";
    case Tok::kElse: return "else";
    case Tok::kWhile: return "while";
    case Tok::kBreak: return "break";
    case Tok::kContinue: return "continue";
    case Tok::kReturn: return "return";
    case Tok::kI32: return "i32";
    case Tok::kI64: return "i64";
    case Tok::kF64: return "f64";
    case Tok::kLParen: return "(";
    case Tok::kRParen: return ")";
    case Tok::kLBrace: return "{";
    case Tok::kRBrace: return "}";
    case Tok::kComma: return ",";
    case Tok::kColon: return ":";
    case Tok::kSemi: return ";";
    case Tok::kArrow: return "->";
    case Tok::kAssign: return "=";
    case Tok::kPlus: return "+";
    case Tok::kMinus: return "-";
    case Tok::kStar: return "*";
    case Tok::kSlash: return "/";
    case Tok::kPercent: return "%";
    case Tok::kAmpAmp: return "&&";
    case Tok::kPipePipe: return "||";
    case Tok::kAmp: return "&";
    case Tok::kPipe: return "|";
    case Tok::kCaret: return "^";
    case Tok::kShl: return "<<";
    case Tok::kShr: return ">>";
    case Tok::kShrU: return ">>>";
    case Tok::kBang: return "!";
    case Tok::kEq: return "==";
    case Tok::kNe: return "!=";
    case Tok::kLt: return "<";
    case Tok::kGt: return ">";
    case Tok::kLe: return "<=";
    case Tok::kGe: return ">=";
  }
  return "?";
}

namespace {

const std::map<std::string_view, Tok>& keywords() {
  static const std::map<std::string_view, Tok> kw = {
      {"fn", Tok::kFn},         {"var", Tok::kVar},
      {"global", Tok::kGlobal}, {"export", Tok::kExport},
      {"extern", Tok::kExtern},
      {"if", Tok::kIf},         {"else", Tok::kElse},
      {"while", Tok::kWhile},   {"break", Tok::kBreak},
      {"continue", Tok::kContinue}, {"return", Tok::kReturn},
      {"i32", Tok::kI32},       {"i64", Tok::kI64},
      {"f64", Tok::kF64},
  };
  return kw;
}

}  // namespace

Result<std::vector<Token>> lex(std::string_view src) {
  std::vector<Token> out;
  size_t i = 0;
  uint32_t line = 1, col = 1;

  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (src[i + k] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    i += n;
  };

  auto err = [&](const std::string& msg) {
    return Error::decode("wcc lex error at " + std::to_string(line) + ":" +
                         std::to_string(col) + ": " + msg);
  };

  while (i < src.size()) {
    char c = src[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') advance(1);
      continue;
    }

    Token tok;
    tok.line = line;
    tok.col = col;

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[i])) || src[i] == '_')) {
        advance(1);
      }
      std::string_view word = src.substr(start, i - start);
      auto it = keywords().find(word);
      if (it != keywords().end()) {
        tok.kind = it->second;
      } else {
        tok.kind = Tok::kIdent;
        tok.text = std::string(word);
      }
      out.push_back(std::move(tok));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < src.size() &&
             (std::isdigit(static_cast<unsigned char>(src[i])) || src[i] == '.' ||
              src[i] == 'e' || src[i] == 'E' ||
              ((src[i] == '+' || src[i] == '-') && i > start &&
               (src[i - 1] == 'e' || src[i - 1] == 'E')))) {
        if (src[i] == '.' || src[i] == 'e' || src[i] == 'E') is_float = true;
        advance(1);
      }
      std::string_view num = src.substr(start, i - start);
      if (is_float) {
        tok.kind = Tok::kFloatLit;
        auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), tok.float_value);
        if (ec != std::errc() || p != num.data() + num.size()) return err("bad float literal");
      } else {
        tok.kind = Tok::kIntLit;
        auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), tok.int_value);
        if (ec != std::errc() || p != num.data() + num.size()) return err("bad integer literal");
      }
      out.push_back(std::move(tok));
      continue;
    }

    auto two = [&](char second) {
      return i + 1 < src.size() && src[i + 1] == second;
    };
    switch (c) {
      case '(': tok.kind = Tok::kLParen; advance(1); break;
      case ')': tok.kind = Tok::kRParen; advance(1); break;
      case '{': tok.kind = Tok::kLBrace; advance(1); break;
      case '}': tok.kind = Tok::kRBrace; advance(1); break;
      case ',': tok.kind = Tok::kComma; advance(1); break;
      case ':': tok.kind = Tok::kColon; advance(1); break;
      case ';': tok.kind = Tok::kSemi; advance(1); break;
      case '+': tok.kind = Tok::kPlus; advance(1); break;
      case '*': tok.kind = Tok::kStar; advance(1); break;
      case '/': tok.kind = Tok::kSlash; advance(1); break;
      case '%': tok.kind = Tok::kPercent; advance(1); break;
      case '-':
        if (two('>')) {
          tok.kind = Tok::kArrow;
          advance(2);
        } else {
          tok.kind = Tok::kMinus;
          advance(1);
        }
        break;
      case '&':
        if (two('&')) {
          tok.kind = Tok::kAmpAmp;
          advance(2);
        } else {
          tok.kind = Tok::kAmp;
          advance(1);
        }
        break;
      case '|':
        if (two('|')) {
          tok.kind = Tok::kPipePipe;
          advance(2);
        } else {
          tok.kind = Tok::kPipe;
          advance(1);
        }
        break;
      case '^': tok.kind = Tok::kCaret; advance(1); break;
      case '!':
        if (two('=')) {
          tok.kind = Tok::kNe;
          advance(2);
        } else {
          tok.kind = Tok::kBang;
          advance(1);
        }
        break;
      case '=':
        if (two('=')) {
          tok.kind = Tok::kEq;
          advance(2);
        } else {
          tok.kind = Tok::kAssign;
          advance(1);
        }
        break;
      case '<':
        if (two('=')) {
          tok.kind = Tok::kLe;
          advance(2);
        } else if (two('<')) {
          tok.kind = Tok::kShl;
          advance(2);
        } else {
          tok.kind = Tok::kLt;
          advance(1);
        }
        break;
      case '>':
        if (two('=')) {
          tok.kind = Tok::kGe;
          advance(2);
        } else if (two('>')) {
          bool logical = i + 2 < src.size() && src[i + 2] == '>';
          tok.kind = logical ? Tok::kShrU : Tok::kShr;
          advance(logical ? 3 : 2);
        } else {
          tok.kind = Tok::kGt;
          advance(1);
        }
        break;
      default:
        return err(std::string("unexpected character '") + c + "'");
    }
    out.push_back(std::move(tok));
  }

  Token eof;
  eof.kind = Tok::kEof;
  eof.line = line;
  eof.col = col;
  out.push_back(eof);
  return out;
}

}  // namespace waran::wcc
