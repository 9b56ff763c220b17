#include "lang/parser.hpp"

#include <cctype>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "lang/action.hpp"

namespace lr::lang {

namespace {

// --- Lexer ---------------------------------------------------------------------

enum class Tok {
  kEnd,
  kIdent,   // also keywords; text in `text`
  kNumber,  // value in `number`
  kLBrace,
  kRBrace,
  kLParen,
  kRParen,
  kSemicolon,
  kColon,
  kComma,
  kArrow,     // ->
  kAssign,    // :=
  kDotDot,    // ..
  kLCurlySet, // reuse kLBrace? sets use { } too; distinguished by context
  kOr,        // ||
  kAnd,       // &&
  kNot,       // !
  kEq,        // ==
  kNe,        // !=
  kLe,        // <=
  kLt,        // <
  kGe,        // >=
  kGt,        // >
  kPlus,      // +
  kMinus,     // -
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  std::uint32_t number = 0;
  std::size_t line = 1;
};

class Lexer {
 public:
  explicit Lexer(const std::string& source) : src_(source) { advance(); }

  [[nodiscard]] const Token& peek() const noexcept { return current_; }
  [[nodiscard]] std::size_t line() const noexcept { return current_.line; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

 private:
  void advance() {
    skip_space_and_comments();
    current_ = Token{};
    current_.line = line_;
    if (pos_ >= src_.size()) {
      current_.kind = Tok::kEnd;
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_' || src_[pos_] == '.')) {
        // A ".." ends the identifier (range syntax).
        if (src_[pos_] == '.' && pos_ + 1 < src_.size() &&
            src_[pos_ + 1] == '.') {
          break;
        }
        ++pos_;
      }
      current_.kind = Tok::kIdent;
      current_.text = src_.substr(start, pos_ - start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::uint64_t value = 0;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        value = value * 10 + static_cast<std::uint64_t>(src_[pos_] - '0');
        if (value > 0xffffffffull) throw ParseError(line_, "number too large");
        ++pos_;
      }
      current_.kind = Tok::kNumber;
      current_.number = static_cast<std::uint32_t>(value);
      return;
    }
    auto two = [&](char a, char b) {
      return c == a && pos_ + 1 < src_.size() && src_[pos_ + 1] == b;
    };
    if (two('-', '>')) { pos_ += 2; current_.kind = Tok::kArrow; return; }
    if (two(':', '=')) { pos_ += 2; current_.kind = Tok::kAssign; return; }
    if (two('.', '.')) { pos_ += 2; current_.kind = Tok::kDotDot; return; }
    if (two('|', '|')) { pos_ += 2; current_.kind = Tok::kOr; return; }
    if (two('&', '&')) { pos_ += 2; current_.kind = Tok::kAnd; return; }
    if (two('=', '=')) { pos_ += 2; current_.kind = Tok::kEq; return; }
    if (two('!', '=')) { pos_ += 2; current_.kind = Tok::kNe; return; }
    if (two('<', '=')) { pos_ += 2; current_.kind = Tok::kLe; return; }
    if (two('>', '=')) { pos_ += 2; current_.kind = Tok::kGe; return; }
    ++pos_;
    switch (c) {
      case '{': current_.kind = Tok::kLBrace; return;
      case '}': current_.kind = Tok::kRBrace; return;
      case '(': current_.kind = Tok::kLParen; return;
      case ')': current_.kind = Tok::kRParen; return;
      case ';': current_.kind = Tok::kSemicolon; return;
      case ':': current_.kind = Tok::kColon; return;
      case ',': current_.kind = Tok::kComma; return;
      case '!': current_.kind = Tok::kNot; return;
      case '<': current_.kind = Tok::kLt; return;
      case '>': current_.kind = Tok::kGt; return;
      case '+': current_.kind = Tok::kPlus; return;
      case '-': current_.kind = Tok::kMinus; return;
      default:
        throw ParseError(line_, std::string("unexpected character '") + c +
                                    "'");
    }
  }

  void skip_space_and_comments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  Token current_;
};

// --- Parser --------------------------------------------------------------------

/// Deepest expression nesting (parentheses, `!`, ite/next arguments) the
/// recursive-descent parser accepts. Each level costs a handful of stack
/// frames; 256 levels stay far inside the default stack even under
/// AddressSanitizer, and no hand-written or exported model comes close.
constexpr std::size_t kMaxNesting = 256;

/// Largest declarable upper bound: domains hold at most 2^31 values.
constexpr std::uint32_t kMaxVarHigh = (1u << 31) - 1;

class Parser {
 public:
  explicit Parser(const std::string& source) : lexer_(source) {}

  std::unique_ptr<prog::DistributedProgram> parse() {
    expect_keyword("program");
    const std::string name = expect_ident();
    expect(Tok::kSemicolon);
    program_ = std::make_unique<prog::DistributedProgram>(name);

    std::vector<Expr> invariants;
    std::vector<Expr> bad_states;
    std::vector<Expr> bad_transitions;

    while (lexer_.peek().kind != Tok::kEnd) {
      const std::string keyword = expect_ident();
      if (keyword == "var") {
        parse_var();
      } else if (keyword == "process") {
        parse_process();
      } else if (keyword == "fault") {
        program_->add_fault(parse_guarded_command());
        expect(Tok::kSemicolon);
      } else if (keyword == "invariant") {
        invariants.push_back(parse_expr());
        expect(Tok::kSemicolon);
      } else if (keyword == "bad_state") {
        bad_states.push_back(parse_expr());
        expect(Tok::kSemicolon);
      } else if (keyword == "bad_transition") {
        bad_transitions.push_back(parse_expr());
        expect(Tok::kSemicolon);
      } else {
        throw ParseError(lexer_.line(), "unexpected '" + keyword + "'");
      }
    }

    if (invariants.empty()) {
      throw ParseError(lexer_.line(), "model declares no invariant");
    }
    Expr invariant = invariants.front();
    for (std::size_t i = 1; i < invariants.size(); ++i) {
      invariant = invariant && invariants[i];
    }
    program_->set_invariant(invariant);
    for (const Expr& e : bad_states) program_->add_bad_states(e);
    for (const Expr& e : bad_transitions) program_->add_bad_transitions(e);
    return std::move(program_);
  }

 private:
  // --- declarations ---------------------------------------------------------
  void parse_var() {
    const std::size_t line = lexer_.line();
    const std::string name = expect_ident();
    expect(Tok::kColon);
    const std::uint32_t lo = expect_number();
    expect(Tok::kDotDot);
    const std::uint32_t hi = expect_number();
    expect(Tok::kSemicolon);
    if (lo != 0) throw ParseError(line, "variable ranges must start at 0");
    if (hi < lo) throw ParseError(line, "empty variable range");
    if (hi > kMaxVarHigh) {
      throw ParseError(line, "variable range too large (upper bound must be "
                             "below 2^31)");
    }
    if (vars_.count(name) != 0) {
      throw ParseError(line, "duplicate variable '" + name + "'");
    }
    vars_[name] = program_->add_variable(name, hi + 1);
  }

  void parse_process() {
    prog::Process process;
    process.name = expect_ident();
    expect(Tok::kLBrace);
    while (lexer_.peek().kind != Tok::kRBrace) {
      const std::string keyword = expect_ident();
      if (keyword == "reads") {
        parse_var_list(process.reads);
      } else if (keyword == "writes") {
        parse_var_list(process.writes);
      } else if (keyword == "action") {
        process.actions.push_back(parse_guarded_command());
        expect(Tok::kSemicolon);
      } else {
        throw ParseError(lexer_.line(),
                         "unexpected '" + keyword + "' in process");
      }
    }
    expect(Tok::kRBrace);
    program_->add_process(std::move(process));
  }

  void parse_var_list(std::vector<sym::VarId>& out) {
    out.push_back(lookup(expect_ident()));
    while (lexer_.peek().kind == Tok::kComma) {
      (void)lexer_.take();
      out.push_back(lookup(expect_ident()));
    }
    expect(Tok::kSemicolon);
  }

  Action parse_guarded_command() {
    Action a;
    a.name = expect_ident();
    expect(Tok::kColon);
    a.guard = parse_expr();
    expect(Tok::kArrow);
    // Assignment list: v := e | v := {e, e} | havoc v.
    while (true) {
      const std::size_t line = lexer_.line();
      const std::string first = expect_ident();
      if (first == "havoc") {
        a.havoc.push_back(lookup(expect_ident()));
      } else {
        const sym::VarId v = lookup_at(first, line);
        expect(Tok::kAssign);
        if (lexer_.peek().kind == Tok::kLBrace) {
          (void)lexer_.take();
          std::vector<Expr> alternatives{parse_assigned_value(v)};
          while (lexer_.peek().kind == Tok::kComma) {
            (void)lexer_.take();
            alternatives.push_back(parse_assigned_value(v));
          }
          expect(Tok::kRBrace);
          a.assigns.push_back({v, std::move(alternatives)});
        } else {
          a.assigns.push_back({v, {parse_assigned_value(v)}});
        }
      }
      if (lexer_.peek().kind != Tok::kComma) break;
      (void)lexer_.take();
    }
    return a;
  }

  /// One right-hand side of `v := ...`. A bare literal must lie inside the
  /// target's domain: assigning an impossible value is a model error, not a
  /// transition to silently drop.
  Expr parse_assigned_value(sym::VarId v) {
    const Token& next = lexer_.peek();
    const bool literal = next.kind == Tok::kNumber;
    const std::uint32_t value = next.number;
    const std::size_t line = next.line;
    Expr e = parse_expr();
    const sym::VariableInfo& info = program_->space().info(v);
    if (literal && e.kind() == Expr::Kind::kIntConst && value >= info.domain) {
      throw ParseError(line, "value " + std::to_string(value) +
                                 " is outside the domain of '" + info.name +
                                 "' (0.." + std::to_string(info.domain - 1) +
                                 ")");
    }
    return e;
  }

  // --- expressions (precedence climbing) --------------------------------------

  /// Bounds the parser's recursion: every nested sub-expression holds one.
  class NestingGuard {
   public:
    explicit NestingGuard(Parser& parser) : parser_(parser) {
      if (++parser_.nesting_ > kMaxNesting) {
        throw ParseError(parser_.lexer_.line(),
                         "expression nested too deeply (more than " +
                             std::to_string(kMaxNesting) + " levels)");
      }
    }
    ~NestingGuard() { --parser_.nesting_; }
    NestingGuard(const NestingGuard&) = delete;
    NestingGuard& operator=(const NestingGuard&) = delete;

   private:
    Parser& parser_;
  };

  Expr parse_expr() {
    const NestingGuard guard(*this);
    return parse_or();
  }

  Expr parse_or() {
    Expr left = parse_and();
    while (lexer_.peek().kind == Tok::kOr) {
      (void)lexer_.take();
      left = left || parse_and();
    }
    return left;
  }

  Expr parse_and() {
    Expr left = parse_not();
    while (lexer_.peek().kind == Tok::kAnd) {
      (void)lexer_.take();
      left = left && parse_not();
    }
    return left;
  }

  Expr parse_not() {
    if (lexer_.peek().kind == Tok::kNot) {
      (void)lexer_.take();
      const NestingGuard guard(*this);
      return !parse_not();
    }
    return parse_comparison();
  }

  Expr parse_comparison() {
    Expr left = parse_sum();
    switch (lexer_.peek().kind) {
      case Tok::kEq: (void)lexer_.take(); return left == parse_sum();
      case Tok::kNe: (void)lexer_.take(); return left != parse_sum();
      case Tok::kLt: (void)lexer_.take(); return left < parse_sum();
      case Tok::kLe: (void)lexer_.take(); return left <= parse_sum();
      case Tok::kGt: (void)lexer_.take(); return left > parse_sum();
      case Tok::kGe: (void)lexer_.take(); return left >= parse_sum();
      default: return left;
    }
  }

  Expr parse_sum() {
    Expr left = parse_atom();
    while (true) {
      if (lexer_.peek().kind == Tok::kPlus) {
        (void)lexer_.take();
        left = left + parse_atom();
      } else if (lexer_.peek().kind == Tok::kMinus) {
        (void)lexer_.take();
        left = left - parse_atom();
      } else {
        return left;
      }
    }
  }

  Expr parse_atom() {
    const Token t = lexer_.take();
    switch (t.kind) {
      case Tok::kNumber:
        return Expr::constant(t.number);
      case Tok::kLParen: {
        Expr inner = parse_expr();
        expect(Tok::kRParen);
        return inner;
      }
      case Tok::kIdent: {
        if (t.text == "true") return Expr::bool_const(true);
        if (t.text == "false") return Expr::bool_const(false);
        if (t.text == "next") {
          expect(Tok::kLParen);
          const std::string name = expect_ident();
          expect(Tok::kRParen);
          return Expr::next(lookup_at(name, t.line));
        }
        if (t.text == "ite") {
          expect(Tok::kLParen);
          Expr cond = parse_expr();
          expect(Tok::kComma);
          Expr then_e = parse_expr();
          expect(Tok::kComma);
          Expr else_e = parse_expr();
          expect(Tok::kRParen);
          return Expr::ite(cond, then_e, else_e);
        }
        return Expr::var(lookup_at(t.text, t.line));
      }
      default:
        throw ParseError(t.line, "expected an expression");
    }
  }

  // --- token helpers -----------------------------------------------------------
  void expect(Tok kind) {
    const Token t = lexer_.take();
    if (t.kind != kind) {
      throw ParseError(t.line, "unexpected token" +
                                   (t.text.empty() ? std::string()
                                                   : " '" + t.text + "'"));
    }
  }

  std::string expect_ident() {
    const Token t = lexer_.take();
    if (t.kind != Tok::kIdent) {
      throw ParseError(t.line, "expected an identifier");
    }
    return t.text;
  }

  void expect_keyword(const std::string& keyword) {
    const Token t = lexer_.take();
    if (t.kind != Tok::kIdent || t.text != keyword) {
      throw ParseError(t.line, "expected '" + keyword + "'");
    }
  }

  std::uint32_t expect_number() {
    const Token t = lexer_.take();
    if (t.kind != Tok::kNumber) throw ParseError(t.line, "expected a number");
    return t.number;
  }

  sym::VarId lookup(const std::string& name) {
    return lookup_at(name, lexer_.line());
  }

  sym::VarId lookup_at(const std::string& name, std::size_t line) {
    const auto it = vars_.find(name);
    if (it == vars_.end()) {
      throw ParseError(line, "unknown variable '" + name + "'");
    }
    return it->second;
  }

  Lexer lexer_;
  std::unique_ptr<prog::DistributedProgram> program_;
  std::map<std::string, sym::VarId> vars_;
  std::size_t nesting_ = 0;
};

}  // namespace

std::unique_ptr<prog::DistributedProgram> parse_program(
    const std::string& source) {
  Parser parser(source);
  return parser.parse();
}

std::unique_ptr<prog::DistributedProgram> parse_program_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open model file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_program(buffer.str());
}

double estimate_state_space(const std::string& source) {
  // One lexer pass over the declarations only: multiply the domain sizes
  // of every `var x : lo..hi;` without compiling anything. Malformed input
  // yields a partial estimate (or -1); the real parse reports the error.
  double states = 1.0;
  bool any = false;
  try {
    Lexer lex(source);
    while (lex.peek().kind != Tok::kEnd) {
      if (lex.peek().kind != Tok::kIdent || lex.peek().text != "var") {
        lex.take();
        continue;
      }
      lex.take();  // var
      if (lex.peek().kind != Tok::kIdent) continue;
      lex.take();  // name
      if (lex.peek().kind != Tok::kColon) continue;
      lex.take();
      if (lex.peek().kind != Tok::kNumber) continue;
      const double lo = lex.take().number;
      if (lex.peek().kind != Tok::kDotDot) continue;
      lex.take();
      if (lex.peek().kind != Tok::kNumber) continue;
      const double hi = lex.take().number;
      if (hi >= lo) {
        states *= hi - lo + 1.0;
        any = true;
      }
    }
  } catch (const ParseError&) {
    // Lexing stopped early; fall through with what was accumulated.
  }
  return any ? states : -1.0;
}

double estimate_state_space_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return -1.0;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return estimate_state_space(buffer.str());
}

}  // namespace lr::lang
