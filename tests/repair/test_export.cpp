// Round-trip tests for the .lr exporter: repair -> export -> parse ->
// verify, on several case studies.

#include <gtest/gtest.h>

#include "casestudies/chain.hpp"
#include "casestudies/tmr.hpp"
#include "casestudies/token_ring.hpp"
#include "lang/parser.hpp"
#include "repair/export.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"

namespace lr::repair {
namespace {

void round_trip(prog::DistributedProgram& program) {
  const RepairResult result = lazy_repair(program);
  ASSERT_TRUE(result.success) << result.failure_reason;
  const std::string exported = export_model(program, result);
  SCOPED_TRACE(exported);

  // The exported text parses.
  auto reparsed = lang::parse_program(exported);
  ASSERT_EQ(reparsed->process_count(), program.process_count());

  // The exported program is already masking fault-tolerant: repairing it
  // again succeeds and the verified result keeps all its behavior inside
  // the invariant (the re-repair has nothing to remove there).
  const RepairResult again = lazy_repair(*reparsed);
  ASSERT_TRUE(again.success) << again.failure_reason;
  const VerifyReport report = verify_masking(*reparsed, again);
  EXPECT_TRUE(report.ok);
  for (const auto& f : report.failures) ADD_FAILURE() << f;
}

TEST(ExportTest, QuickstartRoundTrip) {
  auto p = lang::parse_program(R"(
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
)");
  round_trip(*p);
}

TEST(ExportTest, LongFlatChainRoundTrips) {
  // One left-deep `&&` spine of 300 terms: exported as a single group, not
  // one parenthesis per term, so the re-parse stays under the parser's
  // 256-level nesting bound.
  std::string chain = "x != 2";
  for (int i = 1; i < 300; ++i) chain += " && x != 2";
  auto p = lang::parse_program(R"(
program quickstart;
var x : 0..2;
process worker {
  reads x;
  writes x;
  action reset: x == 1 -> x := 0;
}
fault glitch: x == 0 -> x := 1;
invariant x == 0 && ()" + chain + R"();
bad_state x == 2;
)");
  const RepairResult result = lazy_repair(*p);
  ASSERT_TRUE(result.success) << result.failure_reason;
  const std::string exported = export_model(*p, result);

  auto reparsed = lang::parse_program(exported);
  const RepairResult again = lazy_repair(*reparsed);
  ASSERT_TRUE(again.success) << again.failure_reason;
  EXPECT_EQ(reparsed->space().count_states(again.invariant),
            p->space().count_states(result.invariant));
  EXPECT_EQ(reparsed->space().count_states(again.fault_span),
            p->space().count_states(result.fault_span));
}

TEST(ExportTest, ChainRoundTrip) {
  auto p = cs::make_chain({.length = 3, .domain = 2});
  round_trip(*p);
}

TEST(ExportTest, TokenRingRoundTrip) {
  auto p = cs::make_token_ring({.processes = 3, .domain = 3});
  round_trip(*p);
}

TEST(ExportTest, TmrRoundTrip) {
  auto p = cs::make_tmr({});
  round_trip(*p);
}

TEST(ExportTest, ExportMentionsEveryDeclaredPiece) {
  auto p = cs::make_tmr({});
  const RepairResult result = lazy_repair(*p);
  ASSERT_TRUE(result.success);
  const std::string text = export_model(*p, result);
  EXPECT_NE(text.find("program tmr_3;"), std::string::npos);
  EXPECT_NE(text.find("var ref : 0..1;"), std::string::npos);
  EXPECT_NE(text.find("process voter"), std::string::npos);
  EXPECT_NE(text.find("fault corrupt_in0"), std::string::npos);
  EXPECT_NE(text.find("invariant"), std::string::npos);
  EXPECT_NE(text.find("bad_state"), std::string::npos);
  EXPECT_NE(text.find("bad_transition"), std::string::npos);
}

}  // namespace
}  // namespace lr::repair
