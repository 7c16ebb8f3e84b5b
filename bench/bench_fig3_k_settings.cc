/// Figure 3 reproduction: quality-vs-cost for k = 1..6, Approx vs Random,
/// Pc in {0.7, 0.8, 0.9}, budget B = 60 per book over the full synthetic
/// Book dataset (100 books). Panels (a)/(c) are F1 for k=1..3 / k=4..6,
/// (b)/(d) the corresponding utilities; here each Pc prints one table with
/// all k series and everything is dumped to CSV.
///
///   ./bench_fig3_k_settings [num_books] [budget]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <utility>

#include "common/string_util.h"

#include "eval/experiment.h"
#include "eval/reporting.h"

using namespace crowdfusion;

int main(int argc, char** argv) {
  const int num_books = argc > 1 ? std::atoi(argv[1]) : 100;
  const int budget = argc > 2 ? std::atoi(argv[2]) : 60;
  std::filesystem::create_directories("bench_results");

  for (const double pc : {0.7, 0.8, 0.9}) {
    std::vector<eval::ExperimentResult> series;
    // Selector key -> the paper's legend.
    for (const auto& [kind, legend] :
         {std::pair{"greedy", "Approx."}, std::pair{"random", "Random"}}) {
      for (int k = 1; k <= 6; ++k) {
        eval::ExperimentOptions options;
        options.dataset.num_books = num_books;
        options.dataset.num_sources = 24;
        options.dataset.seed = 3;
        options.budget_per_book = budget;
        options.tasks_per_round = k;
        options.assumed_pc = pc;
        options.true_accuracy = pc;
        options.selector.kind = kind;
        auto result = eval::RunExperiment(options);
        if (!result.ok()) {
          std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
          return 1;
        }
        result->label = common::StrFormat("%s k=%d", legend, k);
        series.push_back(std::move(*result));
      }
    }
    eval::PrintCurves(
        std::cout,
        common::StrFormat("Figure 3, Pc = %.1f (B=%d/book, %d books)", pc,
                          budget, num_books),
        series, /*max_rows=*/10);
    eval::PrintSummary(std::cout, series);
    const std::string csv = common::StrFormat(
        "bench_results/fig3_pc%02d.csv", static_cast<int>(pc * 100));
    if (auto status = eval::WriteCurvesCsv(csv, series); status.ok()) {
      std::printf("series written to %s\n\n", csv.c_str());
    }
  }
  std::printf(
      "Expected shape (paper Fig. 3): Approx beats Random at every k; for "
      "Approx smaller k\nis better per unit cost (strongest at Pc=0.7); for "
      "Random *larger* k is better.\n");
  return 0;
}
