#include "lang/expr.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lr::lang {

namespace {

[[noreturn]] void type_error(const std::string& what) {
  throw std::invalid_argument("Expr: " + what);
}

bool additive(Expr::Kind kind) {
  return kind == Expr::Kind::kAdd || kind == Expr::Kind::kSub;
}

/// The infix operator of a chain link, as the parser reads it back.
const char* chain_op(Expr::Kind kind) {
  switch (kind) {
    case Expr::Kind::kAnd:
      return " && ";
    case Expr::Kind::kOr:
      return " || ";
    case Expr::Kind::kAdd:
      return " + ";
    default:
      return " - ";
  }
}

}  // namespace

// --- Construction ---------------------------------------------------------------

Expr::Node::~Node() {
  // Sole-owned children are moved onto an explicit stack and emptied there
  // before they die, so no destructor ever recurses into a child.
  std::vector<std::shared_ptr<const Node>> doomed;
  const auto detach = [&doomed](std::vector<Expr>& kids) {
    for (Expr& kid : kids) {
      if (kid.node_.use_count() == 1) doomed.push_back(std::move(kid.node_));
    }
  };
  detach(children);
  while (!doomed.empty()) {
    const std::shared_ptr<const Node> node = std::move(doomed.back());
    doomed.pop_back();
    // Every Node is created non-const (make_shared<Node>), and this is its
    // last owner.
    detach(const_cast<Node&>(*node).children);
  }
}

Expr Expr::make(Kind kind, std::vector<Expr> children) {
  for (const Expr& c : children) {
    if (c.empty()) type_error("operand is an empty expression");
  }
  auto node = std::make_shared<Node>();
  node->kind = kind;
  node->children = std::move(children);
  return Expr(std::move(node));
}

Expr Expr::constant(std::uint32_t value) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kIntConst;
  node->value = value;
  return Expr(std::move(node));
}

Expr Expr::bool_const(bool value) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kBoolConst;
  node->value = value ? 1 : 0;
  return Expr(std::move(node));
}

Expr Expr::var(sym::VarId v) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kVar;
  node->value = v;
  node->version = sym::Version::kCurrent;
  return Expr(std::move(node));
}

Expr Expr::next(sym::VarId v) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kVar;
  node->value = v;
  node->version = sym::Version::kNext;
  return Expr(std::move(node));
}

Expr Expr::ite(const Expr& cond, const Expr& then_e, const Expr& else_e) {
  return make(Kind::kIte, {cond, then_e, else_e});
}

const Expr::Node& Expr::node() const {
  if (node_ == nullptr) type_error("use of empty expression");
  return *node_;
}

Expr::Kind Expr::kind() const { return node().kind; }

bool Expr::is_boolean() const {
  switch (node().kind) {
    case Kind::kBoolConst:
    case Kind::kNot:
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
    case Kind::kIff:
    case Kind::kEq:
    case Kind::kNe:
    case Kind::kLt:
    case Kind::kLe:
    case Kind::kGt:
    case Kind::kGe:
      return true;
    default:
      return false;
  }
}

const Expr& Expr::left_spine(const Expr& e, Kind kind,
                             std::vector<const Node*>& spine) {
  const Expr* cur = &e;
  while (cur->kind() == kind || (additive(kind) && additive(cur->kind()))) {
    spine.push_back(cur->node_.get());
    cur = &cur->node_->children[0];
  }
  return *cur;
}

std::string Expr::to_string() const { return to_string_impl(node(), nullptr); }

std::string Expr::to_string(const sym::Space& space) const {
  return to_string_impl(node(), &space);
}

std::string Expr::to_string_impl(const Node& n, const sym::Space* space) {
  auto sub = [&](const Expr& child) {
    return to_string_impl(child.node(), space);
  };
  auto binary = [&](const char* op) {
    return "(" + sub(n.children[0]) + " " + op + " " + sub(n.children[1]) +
           ")";
  };
  switch (n.kind) {
    case Kind::kBoolConst:
      return n.value != 0 ? "true" : "false";
    case Kind::kIntConst:
      return std::to_string(n.value);
    case Kind::kVar: {
      const std::string name =
          space != nullptr ? space->info(n.value).name
                           : "v" + std::to_string(n.value);
      return n.version == sym::Version::kNext ? "next(" + name + ")" : name;
    }
    case Kind::kNot:
      return "!" + sub(n.children[0]);
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kAdd:
    case Kind::kSub: {
      // One group "(c0 op1 c1 ... opn cn)" from the spine, not by
      // recursion: the parser folds it back into the same left-deep tree,
      // and a long chain costs one nesting level, not one per term.
      std::vector<const Node*> spine{&n};
      const Expr& first = left_spine(n.children[0], n.kind, spine);
      std::string out = "(" + sub(first);
      for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
        out += chain_op((*it)->kind);
        out += sub((*it)->children[1]);
      }
      return out + ")";
    }
    case Kind::kImplies:
      return "(!" + sub(n.children[0]) + " || " + sub(n.children[1]) + ")";
    case Kind::kIff:
      return "(" + sub(n.children[0]) + " == " + sub(n.children[1]) + ")";
    case Kind::kEq:
      return binary("==");
    case Kind::kNe:
      return binary("!=");
    case Kind::kLt:
      return binary("<");
    case Kind::kLe:
      return binary("<=");
    case Kind::kGt:
      return binary(">");
    case Kind::kGe:
      return binary(">=");
    case Kind::kIte:
      return "ite(" + sub(n.children[0]) + ", " + sub(n.children[1]) + ", " +
             sub(n.children[2]) + ")";
  }
  return "?";
}

// --- Operator sugar -----------------------------------------------------------------

Expr Expr::operator==(const Expr& rhs) const { return make(Kind::kEq, {*this, rhs}); }
Expr Expr::operator!=(const Expr& rhs) const { return make(Kind::kNe, {*this, rhs}); }
Expr Expr::operator<(const Expr& rhs) const { return make(Kind::kLt, {*this, rhs}); }
Expr Expr::operator<=(const Expr& rhs) const { return make(Kind::kLe, {*this, rhs}); }
Expr Expr::operator>(const Expr& rhs) const { return make(Kind::kGt, {*this, rhs}); }
Expr Expr::operator>=(const Expr& rhs) const { return make(Kind::kGe, {*this, rhs}); }
Expr Expr::operator&&(const Expr& rhs) const { return make(Kind::kAnd, {*this, rhs}); }
Expr Expr::operator||(const Expr& rhs) const { return make(Kind::kOr, {*this, rhs}); }
Expr Expr::operator!() const { return make(Kind::kNot, {*this}); }
Expr Expr::implies(const Expr& rhs) const { return make(Kind::kImplies, {*this, rhs}); }
Expr Expr::iff(const Expr& rhs) const { return make(Kind::kIff, {*this, rhs}); }
Expr Expr::operator+(const Expr& rhs) const { return make(Kind::kAdd, {*this, rhs}); }
Expr Expr::operator-(const Expr& rhs) const { return make(Kind::kSub, {*this, rhs}); }

Expr Expr::operator==(std::uint32_t rhs) const { return *this == constant(rhs); }
Expr Expr::operator!=(std::uint32_t rhs) const { return *this != constant(rhs); }
Expr Expr::operator<(std::uint32_t rhs) const { return *this < constant(rhs); }
Expr Expr::operator<=(std::uint32_t rhs) const { return *this <= constant(rhs); }
Expr Expr::operator>(std::uint32_t rhs) const { return *this > constant(rhs); }
Expr Expr::operator>=(std::uint32_t rhs) const { return *this >= constant(rhs); }
Expr Expr::operator+(std::uint32_t rhs) const { return *this + constant(rhs); }
Expr Expr::operator-(std::uint32_t rhs) const { return *this - constant(rhs); }

// --- Compilation -----------------------------------------------------------------------

bdd::Bdd Compiler::compile_bool(const Expr& e) {
  const auto& n = e.node();
  bdd::Manager& mgr = space_.manager();
  switch (n.kind) {
    case Expr::Kind::kBoolConst:
      return n.value != 0 ? mgr.bdd_true() : mgr.bdd_false();
    case Expr::Kind::kNot:
      return ~compile_bool(n.children[0]);
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      // A left-deep chain is compiled without recursion but in the op
      // order (and with the handle lifetimes) of the recursive
      // `compile(lhs) & compile(rhs)` it replaces, whose operands g++
      // evaluated right first: cn ... c1, then c0, then the left fold
      // (c0 op c1) op c2 ..., each operand released once folded in.
      std::vector<const Expr::Node*> spine;
      const Expr& first = Expr::left_spine(e, n.kind, spine);
      std::vector<bdd::Bdd> operands;
      operands.reserve(spine.size());
      for (const Expr::Node* link : spine) {
        operands.push_back(compile_bool(link->children[1]));
      }
      bdd::Bdd acc = compile_bool(first);
      for (auto it = operands.rbegin(); it != operands.rend(); ++it) {
        acc = n.kind == Expr::Kind::kAnd ? acc & *it : acc | *it;
        *it = bdd::Bdd();
      }
      return acc;
    }
    case Expr::Kind::kImplies:
      return compile_bool(n.children[0]).implies(compile_bool(n.children[1]));
    case Expr::Kind::kIff:
      return compile_bool(n.children[0]).iff(compile_bool(n.children[1]));
    case Expr::Kind::kEq:
      return bits_eq(compile_num(n.children[0]).bits,
                     compile_num(n.children[1]).bits);
    case Expr::Kind::kNe:
      return ~bits_eq(compile_num(n.children[0]).bits,
                      compile_num(n.children[1]).bits);
    case Expr::Kind::kLt:
      return bits_lt(compile_num(n.children[0]).bits,
                     compile_num(n.children[1]).bits);
    case Expr::Kind::kLe:
      return ~bits_lt(compile_num(n.children[1]).bits,
                      compile_num(n.children[0]).bits);
    case Expr::Kind::kGt:
      return bits_lt(compile_num(n.children[1]).bits,
                     compile_num(n.children[0]).bits);
    case Expr::Kind::kGe:
      return ~bits_lt(compile_num(n.children[0]).bits,
                      compile_num(n.children[1]).bits);
    default:
      throw std::invalid_argument(
          "Compiler::compile_bool: numeric expression used as boolean: " +
          e.to_string());
  }
}

std::vector<bdd::Bdd> Compiler::compile_bits(const Expr& e) {
  Num num = compile_num(e);
  num.bits.resize(num.width, space_.manager().bdd_false());
  return std::move(num.bits);
}

namespace {

/// Drops trailing constant-false bits (they are implied by the width).
void trim(std::vector<bdd::Bdd>& bits) {
  while (!bits.empty() && bits.back().is_false()) bits.pop_back();
}

/// Bit i of `bits`, zero-extended.
bdd::Bdd bit(const std::vector<bdd::Bdd>& bits, std::size_t i,
             bdd::Manager& mgr) {
  return i < bits.size() ? bits[i] : mgr.bdd_false();
}

}  // namespace

Compiler::Num Compiler::compile_num(const Expr& e) {
  const auto& n = e.node();
  bdd::Manager& mgr = space_.manager();
  Num out;
  switch (n.kind) {
    case Expr::Kind::kIntConst: {
      std::uint32_t v = n.value;
      do {
        out.bits.push_back((v & 1u) != 0 ? mgr.bdd_true() : mgr.bdd_false());
        v >>= 1;
      } while (v != 0);
      out.width = out.bits.size();
      break;
    }
    case Expr::Kind::kVar: {
      const sym::VariableInfo& info = space_.info(n.value);
      const auto& vbits = n.version == sym::Version::kCurrent
                              ? info.cur_bits
                              : info.next_bits;
      out.bits.reserve(vbits.size());
      for (const bdd::VarIndex b : vbits) out.bits.push_back(mgr.bdd_var(b));
      out.width = out.bits.size();
      break;
    }
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub: {
      // A left-deep `+`/`-` chain is compiled without recursion but in the
      // op order (and with the handle lifetimes) of the recursive
      // `a = compile(lhs); b = compile(rhs); a op b` it replaces: c0, c1,
      // then op1, c2, op2, ..., each operand released once folded in.
      std::vector<const Expr::Node*> spine;
      const Expr& first = Expr::left_spine(e, n.kind, spine);
      out = compile_num(first);
      for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
        const Num rhs = compile_num((*it)->children[1]);
        out = (*it)->kind == Expr::Kind::kAdd ? add(out, rhs)
                                              : subtract(out, rhs);
      }
      return out;
    }
    case Expr::Kind::kIte: {
      const bdd::Bdd cond = compile_bool(n.children[0]);
      const Num a = compile_num(n.children[1]);
      const Num b = compile_num(n.children[2]);
      const std::size_t explicit_bits = std::max(a.bits.size(), b.bits.size());
      out.bits.reserve(explicit_bits);
      for (std::size_t i = 0; i < explicit_bits; ++i) {
        out.bits.push_back(cond.ite(bit(a.bits, i, mgr), bit(b.bits, i, mgr)));
      }
      out.width = std::max(a.width, b.width);
      break;
    }
    default:
      throw std::invalid_argument(
          "Compiler::compile_bits: boolean expression used as numeric: " +
          e.to_string());
  }
  trim(out.bits);
  return out;
}

Compiler::Num Compiler::add(const Num& a, const Num& b) {
  // Ripple-carry over the explicit bits. Above them both operands are 0,
  // so the carry lands in the next bit and everything higher is 0.
  bdd::Manager& mgr = space_.manager();
  const std::size_t explicit_bits = std::max(a.bits.size(), b.bits.size());
  Num sum;
  sum.bits.reserve(explicit_bits + 1);
  bdd::Bdd carry = mgr.bdd_false();
  for (std::size_t i = 0; i < explicit_bits; ++i) {
    const bdd::Bdd ai = bit(a.bits, i, mgr);
    const bdd::Bdd bi = bit(b.bits, i, mgr);
    sum.bits.push_back(ai ^ bi ^ carry);
    carry = (ai & bi) | (carry & (ai ^ bi));
  }
  sum.bits.push_back(carry);
  sum.width = std::max(a.width, b.width) + 1;  // extra bit: no wraparound
  trim(sum.bits);
  return sum;
}

Compiler::Num Compiler::subtract(const Num& a, const Num& b) {
  // a - b via two's complement within max(width)+1 bits; callers use it
  // for comparisons/decrements where the result is known non-negative.
  bdd::Manager& mgr = space_.manager();
  const std::size_t explicit_bits = std::max(a.bits.size(), b.bits.size());
  Num diff;
  diff.width = std::max(a.width, b.width) + 1;
  diff.bits.reserve(explicit_bits + 1);
  bdd::Bdd borrow = mgr.bdd_false();
  for (std::size_t i = 0; i < explicit_bits; ++i) {
    const bdd::Bdd ai = bit(a.bits, i, mgr);
    const bdd::Bdd bi = bit(b.bits, i, mgr);
    diff.bits.push_back(ai ^ bi ^ borrow);
    borrow = ((~ai) & (bi | borrow)) | (bi & borrow);
  }
  // Above the explicit bits both operands are 0: every remaining bit of
  // the width is the final borrow.
  if (!borrow.is_false()) diff.bits.resize(diff.width, borrow);
  trim(diff.bits);
  return diff;
}

bdd::Bdd Compiler::bits_eq(const std::vector<bdd::Bdd>& a,
                           const std::vector<bdd::Bdd>& b) {
  bdd::Manager& mgr = space_.manager();
  bdd::Bdd result = mgr.bdd_true();
  const std::size_t width = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < width; ++i) {
    const bdd::Bdd ai = i < a.size() ? a[i] : mgr.bdd_false();
    const bdd::Bdd bi = i < b.size() ? b[i] : mgr.bdd_false();
    result &= ai.iff(bi);
  }
  return result;
}

bdd::Bdd Compiler::bits_lt(const std::vector<bdd::Bdd>& a,
                           const std::vector<bdd::Bdd>& b) {
  bdd::Manager& mgr = space_.manager();
  // a < b: scan LSB to MSB, later (more significant) bits dominate.
  bdd::Bdd result = mgr.bdd_false();
  const std::size_t width = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < width; ++i) {
    const bdd::Bdd ai = i < a.size() ? a[i] : mgr.bdd_false();
    const bdd::Bdd bi = i < b.size() ? b[i] : mgr.bdd_false();
    result = ((~ai) & bi) | (ai.iff(bi) & result);
  }
  return result;
}

}  // namespace lr::lang
