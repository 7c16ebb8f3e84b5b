/// CrowdFusion is initializer-agnostic (Section VII): any fusion method
/// producing probabilities can seed it. This example runs the same crowd
/// budget on top of four machine-only initializers — modified CRH (the
/// paper's choice), majority voting, TruthFinder, and ACCU — and shows the
/// crowd narrowing the gap between them. The web-link-analysis family
/// (Sums, Average-Log, Investment) is included as well.
///
///   ./compare_initializers

#include <cstdio>
#include <iostream>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "eval/experiment.h"
#include "fusion/registry.h"

using namespace crowdfusion;

int main() {
  eval::ExperimentOptions base;
  base.dataset.num_books = 30;
  base.dataset.num_sources = 20;
  base.dataset.seed = 11;
  base.budget_per_book = 20;
  base.tasks_per_round = 2;
  base.assumed_pc = 0.8;
  base.true_accuracy = 0.8;

  std::printf(
      "Initializer comparison: %d books, budget %d tasks/book, Pc = %.1f\n\n",
      base.dataset.num_books, base.budget_per_book, base.assumed_pc);

  common::TablePrinter table(
      {"Initializer", "F1 before crowd", "F1 after crowd", "Utility before",
       "Utility after"});
  const fusion::FuserRegistry fusers = fusion::BuiltinFuserRegistry();
  for (const char* key : {"crh", "majority_vote", "truthfinder", "accu",
                          "sums", "averagelog", "investment"}) {
    eval::ExperimentOptions options = base;
    options.fuser.kind = key;
    // The row label is the fuser's own display name.
    auto fuser = fusers.Create(key, options.fuser);
    if (!fuser.ok()) {
      std::fprintf(stderr, "%s\n", fuser.status().ToString().c_str());
      return 1;
    }
    auto result = eval::RunExperiment(options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", key,
                   result.status().ToString().c_str());
      return 1;
    }
    table.AddRow({(*fuser)->name(),
                  common::StrFormat("%.4f", result->initial_quality.f1),
                  common::StrFormat("%.4f", result->final_quality.f1),
                  common::StrFormat("%.2f", result->initial_utility_bits),
                  common::StrFormat("%.2f", result->final_utility_bits)});
  }
  table.Print(std::cout);
  std::printf(
      "\nThe crowd budget lifts every initializer; weaker machine-only "
      "starts benefit most.\n");
  return 0;
}
