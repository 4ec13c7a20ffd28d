// An interactive shell over the full Skalla stack: load generated data
// into a distributed warehouse, type OLAP queries in the textual dialect
// (sql/olap_parser.h), inspect plans and cost metrics.
//
//   ./example_skalla_shell            # interactive
//   ./example_skalla_shell < script   # batch
//
// Commands:
//   \load tpcr <rows> <sites>    generate + load TPCR (NationKey-partitioned)
//   \load flow <rows> <sites>    generate + load Flow (SourceAS-partitioned)
//   \opt all|none                toggle the optimizer
//   \explain <query>             show the distributed plan only
//   \analyze <query>             run and show the full execution report
//   \profile <query>             run and show the per-round profile tree
//   \tables                      list loaded relations
//   \save <dir>                  persist the warehouse to a directory
//   \open <dir>                  restore a persisted warehouse
//   \quit
//   anything else: an OLAP query, e.g.
//     SELECT CustKey, COUNT(*) AS n, AVG(Quantity) AS aq
//     FROM TPCR GROUP BY CustKey
//     EXTEND COUNT(*) AS big WHERE Quantity > aq

#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "engine/operators.h"
#include "flow/flowgen.h"
#include "skalla/persistence.h"
#include "skalla/report.h"
#include "skalla/warehouse.h"
#include "sql/olap_parser.h"
#include "tpc/dbgen.h"

namespace {

using namespace skalla;

class Shell {
 public:
  int Run() {
    std::cout << "skalla shell — \\load tpcr 50000 8 to begin, \\quit to "
                 "exit\n";
    std::string line;
    std::string pending;
    while (true) {
      std::cout << (pending.empty() ? "skalla> " : "   ...> ")
                << std::flush;
      if (!std::getline(std::cin, line)) break;
      const std::string trimmed{StripWhitespace(line)};
      if (trimmed.empty()) continue;
      if (trimmed[0] == '\\') {
        if (!pending.empty()) {
          std::cout << "(discarded incomplete query)\n";
          pending.clear();
        }
        if (!Command(trimmed)) break;
        continue;
      }
      pending += (pending.empty() ? "" : " ") + trimmed;
      // A query is submitted once the line ends with ';' (or the dialect's
      // single-line form is complete — we just use ';').
      if (pending.back() == ';') {
        pending.pop_back();
        Query(pending, /*explain_only=*/false);
        pending.clear();
      }
    }
    return 0;
  }

 private:
  bool Command(const std::string& cmd) {
    std::istringstream in(cmd);
    std::string word;
    in >> word;
    if (word == "\\quit" || word == "\\q") return false;
    if (word == "\\tables") {
      if (warehouse_ == nullptr) {
        std::cout << "no warehouse loaded\n";
        return true;
      }
      // Each relation's rows, summed over its site fragments.
      std::map<std::string, int64_t> rows;
      for (int i = 0; i < warehouse_->num_sites(); ++i) {
        const Catalog& catalog = warehouse_->site(i).catalog();
        for (const std::string& name : catalog.TableNames()) {
          rows[name] += (*catalog.GetTable(name))->num_rows();
        }
      }
      for (const auto& [name, num_rows] : rows) {
        std::cout << "  " << name << " (" << num_rows << " rows, "
                  << warehouse_->num_sites() << " fragments)\n";
      }
      return true;
    }
    if (word == "\\opt") {
      std::string mode;
      in >> mode;
      optimize_ = (mode != "none");
      std::cout << "optimizer: " << (optimize_ ? "all" : "none") << "\n";
      return true;
    }
    if (word == "\\explain") {
      std::string rest;
      std::getline(in, rest);
      Query(rest, /*explain_only=*/true);
      return true;
    }
    if (word == "\\analyze") {
      std::string rest;
      std::getline(in, rest);
      Analyze(rest, /*profile=*/false);
      return true;
    }
    if (word == "\\profile") {
      std::string rest;
      std::getline(in, rest);
      Analyze(rest, /*profile=*/true);
      return true;
    }
    if (word == "\\save") {
      std::string dir;
      in >> dir;
      if (warehouse_ == nullptr || dir.empty()) {
        std::cout << "usage (with a loaded warehouse): \\save <dir>\n";
        return true;
      }
      const Status status = SaveWarehouse(*warehouse_, dir);
      std::cout << (status.ok() ? "saved to " + dir : status.ToString())
                << "\n";
      return true;
    }
    if (word == "\\open") {
      std::string dir;
      in >> dir;
      auto restored = LoadWarehouse(dir);
      if (!restored.ok()) {
        std::cout << restored.status() << "\n";
        return true;
      }
      warehouse_ = std::move(restored).ValueUnsafe();
      std::cout << "restored warehouse with " << warehouse_->num_sites()
                << " sites\n";
      return true;
    }
    if (word == "\\load") {
      std::string kind;
      int64_t rows = 50000;
      int sites = 8;
      in >> kind >> rows >> sites;
      if (sites <= 0 || rows < 0) {
        std::cout << "usage: \\load tpcr|flow <rows> <sites>\n";
        return true;
      }
      warehouse_ = std::make_unique<Warehouse>(sites);
      Status status;
      if (kind == "tpcr") {
        TpcConfig config;
        config.num_rows = rows;
        config.num_customers = std::max<int64_t>(1, rows / 12);
        status = warehouse_->LoadByRange("TPCR", GenerateTpcr(config),
                                         "NationKey", 0,
                                         config.num_nations - 1,
                                         {"CustKey", "ClerkKey"});
      } else if (kind == "flow") {
        FlowConfig config;
        config.num_rows = rows;
        config.num_routers = sites;
        status = warehouse_->LoadByRange("Flow", GenerateFlows(config),
                                         "SourceAS", 0, config.num_as - 1,
                                         {"SourceAS", "RouterId"});
      } else {
        std::cout << "unknown dataset '" << kind << "'\n";
        return true;
      }
      if (!status.ok()) {
        std::cout << status << "\n";
        warehouse_.reset();
        return true;
      }
      std::cout << "loaded " << rows << " rows across " << sites
                << " sites\n";
      return true;
    }
    std::cout << "unknown command " << word << "\n";
    return true;
  }

  void Analyze(const std::string& text, bool profile) {
    if (warehouse_ == nullptr) {
      std::cout << "load a dataset first (\\load tpcr 50000 8)\n";
      return;
    }
    auto parsed = ParseOlapQuery(text);
    if (!parsed.ok()) {
      std::cout << "parse error: " << parsed.status() << "\n";
      return;
    }
    auto result = warehouse_->Execute(
        *parsed, optimize_ ? OptimizerOptions::All() : OptimizerOptions::None());
    if (!result.ok()) {
      std::cout << "error: " << result.status() << "\n";
      return;
    }
    if (profile) {
      std::cout << FormatQueryProfile(&*result, QueryProfileInfo());
    } else {
      std::cout << FormatExecutionReport(*result);
    }
  }

  void Query(const std::string& text, bool explain_only) {
    if (warehouse_ == nullptr) {
      std::cout << "load a dataset first (\\load tpcr 50000 8)\n";
      return;
    }
    auto parsed = ParseOlapQuery(text);
    if (!parsed.ok()) {
      std::cout << "parse error: " << parsed.status() << "\n";
      return;
    }
    const OptimizerOptions options =
        optimize_ ? OptimizerOptions::All() : OptimizerOptions::None();
    if (explain_only) {
      auto plan = warehouse_->Plan(*parsed, options);
      if (!plan.ok()) {
        std::cout << plan.status() << "\n";
        return;
      }
      std::cout << plan->Explain();
      return;
    }
    auto result = warehouse_->Execute(*parsed, options);
    if (!result.ok()) {
      std::cout << "error: " << result.status() << "\n";
      return;
    }
    std::cout << result->table.ToString(20);
    std::cout << result->metrics.ToString();
  }

  std::unique_ptr<Warehouse> warehouse_;
  bool optimize_ = true;
};

}  // namespace

int main() { return Shell().Run(); }
