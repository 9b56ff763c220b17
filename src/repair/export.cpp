#include "repair/export.hpp"

#include <map>
#include <sstream>
#include <vector>

#include "support/fs.hpp"

namespace lr::repair {

namespace {

/// Values of `info`'s domain whose binary encoding is consistent with the
/// cube's (possibly partial) bit assignment in the given copy.
std::vector<std::uint32_t> matching_values(const sym::VariableInfo& info,
                                           std::span<const signed char> cube,
                                           bool next_copy) {
  const auto& bits = next_copy ? info.next_bits : info.cur_bits;
  std::vector<std::uint32_t> values;
  for (std::uint32_t v = 0; v < info.domain; ++v) {
    bool consistent = true;
    for (std::uint32_t k = 0; k < info.bits; ++k) {
      const signed char b = cube[bits[k]];
      if (b >= 0 && static_cast<std::uint32_t>(b) != ((v >> k) & 1u)) {
        consistent = false;
        break;
      }
    }
    if (consistent) values.push_back(v);
  }
  return values;
}

/// "v == a" or "(v == a || v == b)" for a subset of the domain; empty when
/// every value matches (no constraint).
std::string guard_term(const std::string& name,
                       const std::vector<std::uint32_t>& values,
                       std::uint32_t domain) {
  if (values.size() == domain) return "";
  std::string term;
  for (const std::uint32_t v : values) {
    if (!term.empty()) term += " || ";
    term += name + " == " + std::to_string(v);
  }
  return values.size() == 1 ? term : "(" + term + ")";
}

/// The lexer's identifier alphabet excludes '-' (it is subtraction);
/// generated names (case studies use hyphens) are sanitized on export.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (!ok) c = '_';
  }
  return out;
}

void render_action(std::ostringstream& out, const lang::Action& action,
                   const sym::Space& space) {
  out << sanitize(action.name) << ": "
      << action.guard.to_string(space) << " -> ";
  bool first = true;
  for (const auto& assign : action.assigns) {
    if (!first) out << ", ";
    first = false;
    out << space.info(assign.var).name << " := ";
    if (assign.alternatives.size() == 1) {
      out << assign.alternatives.front().to_string(space);
    } else {
      out << "{";
      for (std::size_t i = 0; i < assign.alternatives.size(); ++i) {
        if (i > 0) out << ", ";
        out << assign.alternatives[i].to_string(space);
      }
      out << "}";
    }
  }
  for (const sym::VarId v : action.havoc) {
    if (!first) out << ", ";
    first = false;
    out << "havoc " << space.info(v).name;
  }
  out << ";";
}

}  // namespace

std::string export_model(prog::DistributedProgram& program,
                         const RepairResult& result) {
  sym::Space& space = program.space();
  bdd::Manager& mgr = space.manager();
  std::ostringstream out;

  out << "// Synthesized by lazyrepair: masking fault-tolerant version of '"
      << program.name() << "'.\n";
  out << "program " << sanitize(program.name()) << ";\n\n";

  for (sym::VarId v = 0; v < space.variable_count(); ++v) {
    const auto& info = space.info(v);
    out << "var " << info.name << " : 0.." << (info.domain - 1) << ";\n";
  }

  for (std::size_t j = 0; j < program.process_count(); ++j) {
    const prog::Process& proc = program.process(j);
    out << "\nprocess " << sanitize(proc.name) << " {\n  reads ";
    for (std::size_t i = 0; i < proc.reads.size(); ++i) {
      if (i > 0) out << ", ";
      out << space.info(proc.reads[i]).name;
    }
    out << ";\n  writes ";
    for (std::size_t i = 0; i < proc.writes.size(); ++i) {
      if (i > 0) out << ", ";
      out << space.info(proc.writes[i]).name;
    }
    out << ";\n";

    // Project the synthesized delta to readable guards + written updates
    // (lossless thanks to the read restriction), restricted to the fault
    // span: everything else is an unreachable don't-care.
    bdd::Bdd shown = result.process_deltas[j] & result.fault_span;
    bdd::Bdd projected = mgr.exists(shown, program.unreadable_cube(j));
    std::vector<bdd::VarIndex> frame_bits;
    std::map<sym::VarId, bool> writes;
    for (const sym::VarId w : proc.writes) writes[w] = true;
    for (const sym::VarId r : proc.reads) {
      if (writes.count(r) != 0) continue;
      const auto& info = space.info(r);
      frame_bits.insert(frame_bits.end(), info.next_bits.begin(),
                        info.next_bits.end());
    }
    projected = mgr.exists(projected, mgr.make_cube(frame_bits));

    std::size_t counter = 0;
    mgr.foreach_cube(projected, [&](std::span<const signed char> cube) {
      std::string guard;
      for (const sym::VarId r : proc.reads) {
        const auto values = matching_values(space.info(r), cube, false);
        const std::string term =
            guard_term(space.info(r).name, values, space.info(r).domain);
        if (term.empty()) continue;
        if (!guard.empty()) guard += " && ";
        guard += term;
      }
      std::string update;
      for (const sym::VarId w : proc.writes) {
        const auto values = matching_values(space.info(w), cube, true);
        if (values.empty()) return;  // inconsistent encoding: skip
        if (!update.empty()) update += ", ";
        update += space.info(w).name + " := ";
        if (values.size() == 1) {
          update += std::to_string(values.front());
        } else {
          update += "{";
          for (std::size_t i = 0; i < values.size(); ++i) {
            if (i > 0) update += ", ";
            update += std::to_string(values[i]);
          }
          update += "}";
        }
      }
      if (update.empty()) return;
      if (guard.empty()) guard = "true";
      out << "  action a" << counter++ << ": " << guard << " -> " << update
          << ";\n";
    });
    out << "}\n";
  }

  out << "\n";
  for (const lang::Action& fault : program.fault_actions()) {
    out << "fault ";
    render_action(out, fault, space);
    out << "\n";
  }

  out << "\ninvariant "
      << program.invariant_expression().to_string(space) << ";\n";
  for (const lang::Expr& e : program.bad_state_expressions()) {
    out << "bad_state " << e.to_string(space) << ";\n";
  }
  for (const lang::Expr& e : program.bad_transition_expressions()) {
    out << "bad_transition " << e.to_string(space) << ";\n";
  }
  return out.str();
}

bool export_model_file(prog::DistributedProgram& program,
                       const RepairResult& result, const std::string& path) {
  return support::write_file_atomic(path, export_model(program, result));
}

}  // namespace lr::repair
