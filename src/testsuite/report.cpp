#include "testsuite/report.hpp"

#include <iomanip>
#include <sstream>

#include "util/table.hpp"

namespace accred::testsuite {

std::string cell_text(const CaseOutcome& o) {
  switch (o.status) {
    case acc::Robustness::kCompileError:
      return "CE";
    case acc::Robustness::kRuntimeFailure:
      return "F";
    case acc::Robustness::kOk:
      break;
  }
  if (!o.verified) return "F(*)";  // our own implementation failed: loud
  return util::TextTable::num(o.device_ms, 2);
}

void Report::print_table2(std::ostream& os,
                          const std::vector<acc::DataType>& types,
                          const std::vector<acc::CompilerId>& compilers) const {
  util::TextTable table;
  std::vector<std::string> header = {"Reduction Position", "Op"};
  for (acc::DataType t : types) {
    for (acc::CompilerId c : compilers) {
      header.push_back(std::string(to_string(t)) + "/" +
                       std::string(to_string(c)));
    }
  }
  table.header(std::move(header));

  // Discover the (position, op) rows actually present, in registry order.
  for (acc::Position pos : all_positions()) {
    for (acc::ReductionOp op :
         {acc::ReductionOp::kSum, acc::ReductionOp::kProd,
          acc::ReductionOp::kMax, acc::ReductionOp::kMin,
          acc::ReductionOp::kBitAnd, acc::ReductionOp::kBitOr,
          acc::ReductionOp::kBitXor, acc::ReductionOp::kLogAnd,
          acc::ReductionOp::kLogOr}) {
      std::vector<std::string> row = {std::string(to_string(pos)),
                                      std::string(to_string(op))};
      bool any = false;
      for (acc::DataType t : types) {
        for (acc::CompilerId c : compilers) {
          auto it = cells_.find(CellKey{pos, op, t, c});
          if (it == cells_.end()) {
            row.push_back("-");
          } else {
            row.push_back(cell_text(it->second));
            any = true;
          }
        }
      }
      if (any) table.row(std::move(row));
    }
  }
  os << "Performance results of the reduction testsuite. Time is modeled "
        "Kepler ms; F = failed, CE = compile error (modeled robustness of "
        "the closed compilers; F(*) would mean OUR verification failed).\n";
  table.print(os);
}

void Report::print_fig11(std::ostream& os,
                         const std::vector<acc::DataType>& types,
                         const std::vector<acc::CompilerId>& compilers) const {
  for (acc::Position pos : all_positions()) {
    for (acc::ReductionOp op :
         {acc::ReductionOp::kSum, acc::ReductionOp::kProd}) {
      bool any = false;
      for (const auto& [key, outcome] : cells_) {
        if (key.pos == pos && key.op == op) any = true;
      }
      if (!any) continue;
      os << "# fig11 series: " << to_string(pos) << " [" << to_string(op)
         << "]\n";
      util::TextTable table;
      std::vector<std::string> header = {"compiler"};
      for (acc::DataType t : types) header.emplace_back(to_string(t));
      table.header(std::move(header));
      for (acc::CompilerId c : compilers) {
        std::vector<std::string> row = {std::string(to_string(c))};
        for (acc::DataType t : types) {
          auto it = cells_.find(CellKey{pos, op, t, c});
          row.push_back(it == cells_.end() ? "-" : cell_text(it->second));
        }
        table.row(std::move(row));
      }
      table.print(os);
      os << '\n';
    }
  }
}

namespace {

struct Tally {
  int passed = 0;
  int failed = 0;
  int unsupported = 0;
};

/// Per-compiler verification totals over the Table 2 cells.
std::map<acc::CompilerId, Tally> tally_cells(
    const std::map<CellKey, CaseOutcome>& cells) {
  std::map<acc::CompilerId, Tally> tally;
  for (const auto& [key, outcome] : cells) {
    Tally& t = tally[key.compiler];
    if (outcome.status != acc::Robustness::kOk) {
      t.unsupported += 1;
    } else if (outcome.verified) {
      t.passed += 1;
    } else {
      t.failed += 1;
    }
  }
  return tally;
}

}  // namespace

void Report::print_verification(std::ostream& os) const {
  os << "Verification summary (vs sequential CPU fold):\n";
  for (const auto& [id, t] : tally_cells(cells_)) {
    os << "  " << std::left << std::setw(10) << to_string(id) << " passed "
       << t.passed << ", failed " << t.failed << ", modeled-unsupported "
       << t.unsupported << '\n';
  }
}

void record_cell(obs::RunRecord& rec, const std::string& name,
                 const CaseOutcome& o) {
  obs::BenchEntry& e = rec.entry(name);
  if (o.status != acc::Robustness::kOk) {
    e.attr("status",
           o.status == acc::Robustness::kCompileError ? "CE" : "F");
    return;
  }
  e.attr("status", "ok");
  e.attr("verified", o.verified ? "yes" : "NO");
  e.metric("device_ms", o.device_ms);
  e.metric("kernels", o.kernels);
  e.metric("wall_ms", o.wall_ms);
  e.stats(o.stats);
  if (!o.detail.empty()) e.attr("detail", o.detail);
  // Degradation history: all conditional, so clean baseline records stay
  // bit-identical to pre-fault-campaign ones.
  if (o.attempts > 1) e.metric("attempts", o.attempts);
  if (o.recovered) e.attr("recovered", "yes");
  if (o.degraded) e.attr("degraded", "yes");
  if (o.masked) e.attr("masked", "yes");
  if (!o.events.empty()) {
    std::string joined;
    for (const std::string& ev : o.events) {
      if (!joined.empty()) joined += " | ";
      joined += ev;
    }
    e.attr("events", joined);
  }
}

void Report::to_record(obs::RunRecord& rec) const {
  for (const auto& [key, outcome] : cells_) {
    std::string name = std::string(to_string(key.pos)) + "/" +
                       std::string(to_string(key.op)) + "/" +
                       std::string(to_string(key.type)) + "/" +
                       std::string(to_string(key.compiler));
    for (char& c : name) {
      if (c == ' ') c = '_';
    }
    record_cell(rec, name, outcome);
  }
  for (const auto& [id, t] : tally_cells(cells_)) {
    const std::string prefix = "verify_" + std::string(to_string(id));
    rec.meta(prefix + "_passed", static_cast<std::int64_t>(t.passed));
    rec.meta(prefix + "_failed", static_cast<std::int64_t>(t.failed));
    rec.meta(prefix + "_unsupported",
             static_cast<std::int64_t>(t.unsupported));
  }
}

}  // namespace accred::testsuite
