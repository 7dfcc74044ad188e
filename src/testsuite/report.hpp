// Table-2-shaped reporting for the reduction testsuite: one row per
// (position, operator), one column per (type, compiler), cells holding
// milliseconds or "F" / "CE" — plus a Fig. 11-style per-position series
// dump for plotting.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/record.hpp"
#include "testsuite/runner.hpp"

namespace accred::testsuite {

struct CellKey {
  acc::Position pos;
  acc::ReductionOp op;
  acc::DataType type;
  acc::CompilerId compiler;

  friend bool operator<(const CellKey& a, const CellKey& b) {
    return std::tie(a.pos, a.op, a.type, a.compiler) <
           std::tie(b.pos, b.op, b.type, b.compiler);
  }
};

class Report {
public:
  void add(const CellKey& key, const CaseOutcome& outcome) {
    cells_[key] = outcome;
  }

  /// Table 2: rows = position x operator, columns = type x compiler.
  void print_table2(std::ostream& os,
                    const std::vector<acc::DataType>& types,
                    const std::vector<acc::CompilerId>& compilers) const;

  /// Fig. 11: one block per (position, operator) with a bar value (ms) per
  /// compiler per type — the same data keyed for plotting.
  void print_fig11(std::ostream& os,
                   const std::vector<acc::DataType>& types,
                   const std::vector<acc::CompilerId>& compilers) const;

  /// Verification summary: pass/fail counts per compiler.
  void print_verification(std::ostream& os) const;

  /// Structured twin of print_table2: one record entry per cell, named
  /// "position/op/type/compiler" (spaces folded to '_'), carrying the
  /// modeled time, full LaunchStats, and the robustness / verification
  /// status — plus per-compiler verification totals in the record meta.
  void to_record(obs::RunRecord& rec) const;

  [[nodiscard]] const std::map<CellKey, CaseOutcome>& cells() const {
    return cells_;
  }

private:
  std::map<CellKey, CaseOutcome> cells_;
};

/// Write one cell's record entry under `name` — the one writer for Table 2
/// and extended cells alike: the robustness `status`, the `verified`
/// verdict, modeled time, kernels and full LaunchStats, plus the
/// degradation history (`attempts`, `recovered`, `degraded`, `events`) and
/// a proven `masked` fault only when there is one, so clean records keep
/// their shape.
void record_cell(obs::RunRecord& rec, const std::string& name,
                 const CaseOutcome& o);

/// Cell text: time in ms, or the paper's F / CE markers.
[[nodiscard]] std::string cell_text(const CaseOutcome& o);

}  // namespace accred::testsuite
