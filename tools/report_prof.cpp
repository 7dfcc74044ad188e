// accred_report prof — nvprof-style per-stage profile reporting over the
// "profile" sections of a record (schema v2, produced by running
// fig6_8_layout_ablation or fig7_tree_variants with --profile).
//
//   prof RECORD.json [--entry NAME]
//       Print the per-stage counter table (requests, segments, coalescing
//       efficiency, bank-conflict factor, ALU units, barriers, divergence)
//       for every profiled entry, or just NAME.
//
//   prof --compare A.json B.json [--entry NAME]
//       Side-by-side strategy diff: join entries by name, join stages by
//       name, and print A and B's derived metrics next to each other with
//       the B/A ratio on the dominant cost axis.
//
// Never gates (exit 0); a record without profile sections, or two with
// none in common, exits 2.
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "report.hpp"

namespace accred::report {

namespace {

struct ProfiledEntry {
  std::string name;
  obs::StageTable table;
};

/// Every entry of `record` that carries a profile section.
std::vector<ProfiledEntry> profiled_entries(const obs::Json& record) {
  std::vector<ProfiledEntry> out;
  for (const obs::Json& e : record.at("entries").elements()) {
    if (const obs::Json* p = e.find("profile")) {
      out.push_back({e.at("name").as_string(), obs::profile_from_json(*p)});
    }
  }
  return out;
}

std::string fmt(double v, int prec) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  return os.str();
}

/// Side-by-side derived metrics for one pair of tables, stages joined by
/// name (A's order first, then B-only stages).
void compare_tables(const obs::StageTable& a, const obs::StageTable& b) {
  struct Col {
    const char* head;
    int width;
  };
  static constexpr Col cols[] = {
      {"stage", 16},      {"gmem seg A", 11}, {"gmem seg B", 11},
      {"coal A", 8},      {"coal B", 8},      {"bank A", 8},
      {"bank B", 8},      {"alu A", 12},      {"alu B", 12},
      {"diverg%A", 9},    {"diverg%B", 9},    {"smem B/A", 9},
  };
  for (const Col& c : cols) {
    std::cout << std::left << std::setw(c.width) << c.head << ' ';
  }
  std::cout << '\n';

  std::vector<std::string> stages;
  for (const auto& r : a.rows()) stages.push_back(r.name);
  for (const auto& r : b.rows()) {
    if (a.find(r.name) == nullptr) stages.push_back(r.name);
  }
  for (const std::string& name : stages) {
    const obs::StageTable::Row* ra = a.find(name);
    const obs::StageTable::Row* rb = b.find(name);
    const obs::StageStats za{};
    const obs::StageStats& sa = ra ? ra->stats : za;
    const obs::StageStats& sb = rb ? rb->stats : za;
    // Serialized shared cycles are the axis the paper's layout arguments
    // turn on; requests fall back to segments for global-heavy stages.
    const double cyc_a = static_cast<double>(sa.smem_cycles);
    const double cyc_b = static_cast<double>(sb.smem_cycles);
    const std::string ratio =
        cyc_a > 0 ? fmt(cyc_b / cyc_a, 2) + "x" : std::string("-");
    std::cout << std::left << std::setw(cols[0].width) << name << ' '
              << std::setw(cols[1].width) << sa.gmem_segments << ' '
              << std::setw(cols[2].width) << sb.gmem_segments << ' '
              << std::setw(cols[3].width)
              << fmt(obs::stage_coalescing_efficiency(sa), 3) << ' '
              << std::setw(cols[4].width)
              << fmt(obs::stage_coalescing_efficiency(sb), 3) << ' '
              << std::setw(cols[5].width)
              << fmt(obs::stage_bank_conflict_factor(sa), 2) << ' '
              << std::setw(cols[6].width)
              << fmt(obs::stage_bank_conflict_factor(sb), 2) << ' '
              << std::setw(cols[7].width) << fmt(sa.alu_units, 0) << ' '
              << std::setw(cols[8].width) << fmt(sb.alu_units, 0) << ' '
              << std::setw(cols[9].width)
              << fmt(obs::stage_divergence(sa) * 100.0, 1) << ' '
              << std::setw(cols[10].width)
              << fmt(obs::stage_divergence(sb) * 100.0, 1) << ' '
              << std::setw(cols[11].width) << ratio << '\n';
  }
}

}  // namespace

int prof(const Invocation& inv) {
  const bool compare = inv.cli.has("compare");
  if (inv.files.size() != (compare ? 2u : 1u)) throw UsageError();
  const std::vector<ProfiledEntry> a = inv.read(inv.files[0], profiled_entries);
  if (!compare) {
    if (a.empty()) {
      throw obs::RecordError(inv.files[0] +
                             ": no profile sections (run "
                             "fig6_8_layout_ablation or fig7_tree_variants "
                             "with --profile)");
    }
    for (const ProfiledEntry& e : a) {
      std::cout << "== " << e.name << " ==\n";
      obs::print_profile(std::cout, e.table);
      std::cout << '\n';
    }
    return 0;
  }

  const std::vector<ProfiledEntry> b = inv.read(inv.files[1], profiled_entries);
  bool any = false;
  for (const ProfiledEntry& ea : a) {
    for (const ProfiledEntry& eb : b) {
      if (eb.name != ea.name) continue;
      std::cout << "== " << ea.name << "  (A = " << inv.files[0]
                << ", B = " << inv.files[1] << ") ==\n";
      compare_tables(ea.table, eb.table);
      std::cout << '\n';
      any = true;
      break;
    }
  }
  if (!any) {
    throw obs::RecordError(inv.files[0] + " and " + inv.files[1] +
                           ": no profiled entries in common");
  }
  return 0;
}

}  // namespace accred::report
