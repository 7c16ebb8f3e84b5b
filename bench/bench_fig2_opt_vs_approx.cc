/// Figure 2 reproduction: OPT vs Approx vs Random quality-vs-cost curves
/// on small books (the paper scales down to 40 books with the fewest
/// statements so OPT stays feasible), k = 2, budget B = 10 per book,
/// Pc in {0.7, 0.8, 0.9}. Panels (a)-(c) are F1, (d)-(f) utility; here
/// both metrics print as one table per Pc and all series dump to CSV.
///
///   ./bench_fig2_opt_vs_approx [num_books]

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
  const int num_books = argc > 1 ? std::atoi(argv[1]) : 40;
  std::filesystem::create_directories("bench_results");

  for (const double pc : {0.7, 0.8, 0.9}) {
    eval::ExperimentOptions base;
    base.dataset.num_books = num_books;
    base.dataset.num_sources = 15;
    // The fewest-statement books: tiny variant pools keep n <= 5 so the
    // brute-force OPT stays feasible.
    base.dataset.true_variants = 2;
    base.dataset.false_variants = 3;
    base.dataset.seed = 2;
    base.budget_per_book = 10;
    base.tasks_per_round = 2;
    base.assumed_pc = pc;
    base.true_accuracy = pc;

    std::vector<eval::ExperimentResult> series;
    // Selector key -> the paper's legend.
    for (const auto& [kind, legend] :
         {std::pair{"opt", "OPT"}, std::pair{"greedy", "Approx."},
          std::pair{"random", "Random"}}) {
      eval::ExperimentOptions options = base;
      options.selector.kind = kind;
      auto result = eval::RunExperiment(options);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      result->label = legend;
      series.push_back(std::move(*result));
    }
    eval::PrintCurves(std::cout,
                      common::StrFormat("Figure 2, Pc = %.1f (k=2, B=10)",
                                        pc),
                      series, /*max_rows=*/12);
    eval::PrintSummary(std::cout, series);
    std::printf("\n");
    const std::string csv = common::StrFormat(
        "bench_results/fig2_pc%02d.csv", static_cast<int>(pc * 100));
    if (auto status = eval::WriteCurvesCsv(csv, series); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
    } else {
      std::printf("series written to %s\n\n", csv.c_str());
    }
  }
  std::printf(
      "Expected shape (paper Fig. 2): Approx tracks OPT closely; both beat "
      "Random;\nquality is not strictly monotone because crowd answers can "
      "be wrong.\n");
  return 0;
}
