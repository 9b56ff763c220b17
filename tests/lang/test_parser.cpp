// Tests for the textual model parser.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "lang/parser.hpp"
#include "repair/export.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"

namespace lr::lang {
namespace {

constexpr const char* kQuickstart = R"(
// comment
program quickstart;
var x : 0..2;
process worker {
  reads x;
  writes x;
  action reset: x == 1 -> x := 0;
}
fault glitch: x == 0 -> x := 1;
invariant x == 0;
bad_state x == 2;
)";

TEST(ParserTest, ParsesQuickstartModel) {
  auto p = parse_program(kQuickstart);
  EXPECT_EQ(p->name(), "quickstart");
  EXPECT_EQ(p->process_count(), 1u);
  EXPECT_EQ(p->process(0).name, "worker");
  EXPECT_DOUBLE_EQ(p->space().state_space_size(), 3.0);
  EXPECT_DOUBLE_EQ(p->space().count_states(p->invariant()), 1.0);
  EXPECT_DOUBLE_EQ(p->space().count_states(p->safety().bad_states), 1.0);
  // The parsed model repairs and verifies end to end.
  const auto result = repair::lazy_repair(*p);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(repair::verify_masking(*p, result).ok);
}

TEST(ParserTest, NondeterministicChoiceAndHavoc) {
  auto p = parse_program(R"(
program choices;
var a : 0..3;
var b : 0..1;
process p {
  reads a, b;
  writes a, b;
  action go: a == 0 -> a := {1, 2}, havoc b;
}
invariant true;
)");
  // From a=0: a' in {1,2} x b' in {0,1} = 4 transitions per b value = 8,
  // minus any accidental self-loops (none: a changes).
  EXPECT_DOUBLE_EQ(p->space().count_transitions(p->process_delta(0)), 8.0);
}

TEST(ParserTest, NextAndIteAndArithmetic) {
  auto p = parse_program(R"(
program rich;
var x : 0..4;
process p {
  reads x;
  writes x;
  action bump: x < 4 -> x := ite(x == 3, 0, x + 1);
}
fault jolt: true -> havoc x;
invariant x <= 3;
bad_transition x == 4 && next(x) != 4;
)");
  auto& sp = p->space();
  const std::uint32_t s3[1] = {3};
  const std::uint32_t s0[1] = {0};
  const std::uint32_t s1[1] = {1};
  EXPECT_TRUE(sp.transition(s3, s0).leq(p->process_delta(0)));
  EXPECT_TRUE(sp.transition(s0, s1).leq(p->process_delta(0)));
  // bad_transition mentions the post-state.
  const std::uint32_t s4[1] = {4};
  EXPECT_TRUE(sp.transition(s4, s0).leq(p->safety().bad_trans));
  EXPECT_FALSE(sp.transition(s3, s0).leq(p->safety().bad_trans));
}

TEST(ParserTest, MultipleInvariantsConjoinBadStatesDisjoin) {
  auto p = parse_program(R"(
program multi;
var a : 0..1;
var b : 0..1;
process p { reads a, b; writes a; action t: a == 0 -> a := 1; }
invariant a == 0;
invariant b == 0;
bad_state a == 1;
bad_state b == 1;
)");
  EXPECT_DOUBLE_EQ(p->space().count_states(p->invariant()), 1.0);
  EXPECT_DOUBLE_EQ(p->space().count_states(p->safety().bad_states), 3.0);
}

TEST(ParserTest, DottedIdentifiers) {
  auto p = parse_program(R"(
program dotted;
var d.g : 0..1;
var f.0 : 0..1;
process p { reads d.g, f.0; writes f.0; action t: f.0 == 0 -> f.0 := d.g; }
invariant true;
)");
  EXPECT_TRUE(p->space().find("d.g").has_value());
  EXPECT_TRUE(p->space().find("f.0").has_value());
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  try {
    (void)parse_program("program x;\nvar a : 0..1;\nbogus q;\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(ParserTest, RejectsBadInput) {
  EXPECT_THROW((void)parse_program(""), ParseError);
  EXPECT_THROW((void)parse_program("program x;"), ParseError);  // no invariant
  EXPECT_THROW((void)parse_program("program x; var a : 1..2; invariant true;"),
               ParseError);  // range must start at 0
  EXPECT_THROW(
      (void)parse_program("program x; var a : 0..1; var a : 0..1;"),
      ParseError);  // duplicate
  EXPECT_THROW(
      (void)parse_program(
          "program x; process p { reads zz; writes zz; } invariant true;"),
      ParseError);  // unknown variable
  EXPECT_THROW((void)parse_program("program x; var a : 0..1; invariant a @;"),
               ParseError);  // bad character
}

/// Parses `source`, expecting a ParseError on `line` whose message
/// contains `fragment`.
void expect_parse_error(const std::string& source, std::size_t line,
                        const std::string& fragment) {
  try {
    (void)parse_program(source);
    FAIL() << "expected ParseError containing '" << fragment << "'";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

TEST(ParserTest, DeepNestingIsAParseErrorNotACrash) {
  // Hostile nesting must end in a diagnostic, not a stack overflow.
  constexpr std::size_t kDepth = 200000;
  const std::string parens = "program deep;\nvar x : 0..1;\ninvariant " +
                             std::string(kDepth, '(') + "x == 0" +
                             std::string(kDepth, ')') + ";\n";
  expect_parse_error(parens, 3, "nested too deeply");
  // Negation chains recurse without parentheses.
  const std::string nots = "program deep;\nvar x : 0..1;\ninvariant " +
                           std::string(kDepth, '!') + "(x == 0);\n";
  expect_parse_error(nots, 3, "nested too deeply");
  // Realistic nesting is untouched.
  auto p = parse_program("program ok;\nvar x : 0..1;\ninvariant " +
                         std::string(100, '(') + "x == 0" +
                         std::string(100, ')') + ";\n");
  EXPECT_DOUBLE_EQ(p->space().count_states(p->invariant()), 1.0);
}

/// A quickstart model whose guard, invariant and bad-state predicate are
/// each a flat, unparenthesized chain of `terms` copies joined by `op`.
std::string flat_chain_model(const char* op, std::size_t terms) {
  const auto chain = [&](const std::string& term) {
    std::string out = term;
    for (std::size_t i = 1; i < terms; ++i) {
      out += std::string(" ") + op + " " + term;
    }
    return out;
  };
  return "program flat;\nvar x : 0..2;\nprocess worker {\n  reads x;\n"
         "  writes x;\n  action reset: " + chain("x == 1") +
         " -> x := 0;\n}\nfault glitch: x == 0 -> x := 1;\ninvariant " +
         chain("x == 0") + ";\nbad_state " + chain("x == 2") + ";\n";
}

/// Parses, repairs, verifies and exports a flat-chain model, then destroys
/// it: every pass over the left-deep chain must be iterative.
void expect_flat_chain_repairs(const char* op) {
  constexpr std::size_t kTerms = 200000;
  auto p = parse_program(flat_chain_model(op, kTerms));
  EXPECT_DOUBLE_EQ(p->space().count_states(p->invariant()), 1.0);
  const auto result = repair::lazy_repair(*p);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(repair::verify_masking(*p, result).ok);
  // The export prints the chain as one group, which the parser folds back
  // into the same left-deep tree.
  std::string group = "(x == 0)";
  for (std::size_t i = 1; i < kTerms; ++i) {
    group += std::string(" ") + op + " (x == 0)";
  }
  const std::string exported = repair::export_model(*p, result);
  EXPECT_NE(exported.find("invariant (" + group + ");"), std::string::npos);
}

TEST(ParserTest, FlatTwoHundredThousandTermOrChainRepairsWithoutCrashing) {
  expect_flat_chain_repairs("||");
}

TEST(ParserTest, FlatTwoHundredThousandTermAndChainRepairsWithoutCrashing) {
  expect_flat_chain_repairs("&&");
}

/// `first op 0 op 0 ...` with `terms` terms in all: a flat, left-deep
/// arithmetic chain whose value is `first` and whose compiled width grows
/// by one bit per term.
std::string arith_chain(std::uint32_t first, const char* op,
                        std::size_t terms) {
  std::string out = std::to_string(first);
  for (std::size_t i = 1; i < terms; ++i) out += std::string(" ") + op + " 0";
  return out;
}

/// Parses, repairs, verifies and exports a quickstart model whose guard,
/// invariant and bad-state predicate each compare x against a flat `op`
/// chain of 200,000 terms, re-parses the export and destroys both models:
/// every pass over the chain must be iterative, and compiling it linear.
void expect_arith_chain_round_trips(const char* op) {
  constexpr std::size_t kTerms = 200000;
  const std::string model =
      "program flat;\nvar x : 0..2;\nprocess worker {\n  reads x;\n"
      "  writes x;\n  action reset: x == " + arith_chain(1, op, kTerms) +
      " -> x := 0;\n}\nfault glitch: x == 0 -> x := 1;\ninvariant x == (" +
      arith_chain(0, op, kTerms) + ");\nbad_state x == " +
      arith_chain(2, op, kTerms) + ";\n";
  auto p = parse_program(model);
  EXPECT_DOUBLE_EQ(p->space().count_states(p->invariant()), 1.0);
  const auto result = repair::lazy_repair(*p);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(repair::verify_masking(*p, result).ok);
  // The export prints each chain as one group, which the parser folds back
  // into the same left-deep tree.
  const std::string exported = repair::export_model(*p, result);
  EXPECT_NE(exported.find("invariant (x == (" + arith_chain(0, op, kTerms) +
                          "));"),
            std::string::npos);
  auto again = parse_program(exported);
  EXPECT_DOUBLE_EQ(again->space().count_states(again->invariant()), 1.0);
  EXPECT_EQ(again->invariant_expression().to_string(again->space()),
            p->invariant_expression().to_string(p->space()));
}

TEST(ParserTest, FlatTwoHundredThousandTermPlusChainRoundTripsWithoutCrashing) {
  expect_arith_chain_round_trips("+");
}

TEST(ParserTest, FlatTwoHundredThousandTermMinusChainRoundTripsWithoutCrashing) {
  expect_arith_chain_round_trips("-");
}

TEST(ParserTest, UpperBoundOfTwoTo32MinusOneIsRejectedNotWrapped) {
  // hi + 1 must not wrap to 0 (which would misreport an empty domain).
  expect_parse_error("program big;\nvar x : 0..4294967295;\ninvariant true;\n",
                     2, "below 2^31");
}

TEST(ParserTest, UpperBoundAboveTwoTo31IsRejectedNotHung) {
  // Domains above 2^31 would overflow the bit-width computation.
  expect_parse_error("program big;\nvar x : 0..3000000000;\ninvariant true;\n",
                     2, "below 2^31");
  expect_parse_error("program big;\nvar x : 0..2147483648;\ninvariant true;\n",
                     2, "below 2^31");
}

TEST(ParserTest, LiteralAssignmentOutsideDomainIsRejected) {
  expect_parse_error(R"(program oob;
var x : 0..2;
process p {
  reads x;
  writes x;
  action t: x == 0 ->
    x := 9;
}
invariant x == 0;
)",
                     7, "outside the domain of 'x' (0..2)");
  // Every alternative of a nondeterministic choice is checked.
  expect_parse_error(R"(program oob;
var x : 0..2;
fault f: true -> x := {1, 3};
invariant x == 0;
)",
                     3, "value 3");
  // In-domain literals and computed values still parse.
  auto p = parse_program(R"(program ok;
var x : 0..2;
fault f: x < 2 -> x := {0, 2};
fault g: x < 2 -> x := x + 1;
invariant x == 0;
)");
  EXPECT_EQ(p->name(), "ok");
}

TEST(ParserTest, ModelFilesInRepositoryParseAndRepair) {
  for (const char* name : {"quickstart.lr", "mutex_ring.lr", "tmr.lr"}) {
    const std::string path = std::string(LR_SOURCE_DIR) + "/models/" + name;
    SCOPED_TRACE(path);
    auto p = parse_program_file(path);
    const auto result = repair::lazy_repair(*p);
    EXPECT_TRUE(result.success) << result.failure_reason;
    EXPECT_TRUE(repair::verify_masking(*p, result).ok);
  }
}

}  // namespace
}  // namespace lr::lang
