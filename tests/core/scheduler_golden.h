#ifndef CROWDFUSION_TESTS_CORE_SCHEDULER_GOLDEN_H_
#define CROWDFUSION_TESTS_CORE_SCHEDULER_GOLDEN_H_

/// Reader for text goldens of serving runs: per seed, every step record
/// (or service step outcome) and the final per-instance state. The
/// blocking goldens were produced by the one-ticket-at-a-time blocking
/// loop the scheduler used to carry; the engine goldens by the per-book
/// engine loop engine mode used to run on. They pin today's scheduler
/// against those loops' exact output, and are frozen: regenerating them
/// from the code under test would turn the pin into a tautology. Doubles
/// are written at %.17g, which round-trips.
///
/// Line format (one `run` line, then its `step`/`outcome` and `instance`
/// lines):
///   run <seed> <total_cost_spent>
///   step <step> <instance> <cumulative_cost> <expected_gain_bits>
///        <total_utility_bits> <k> <task>... <answers as 0/1 string or ->
///   outcome <step> <instance> <round> <cumulative_cost>
///        <selected_entropy_bits> <expected_gain_bits> <utility_bits>
///        <k> <task>... <answers as 0/1 string or ->
///   instance <cost_spent> <num_facts> <support> (<mask> <prob>)...

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/joint_distribution.h"
#include "core/scheduler.h"

namespace crowdfusion::core::golden {

struct Step {
  int step = 0;
  int instance = -1;
  int cumulative_cost = 0;
  double expected_gain_bits = 0.0;
  double total_utility_bits = 0.0;
  std::vector<int> tasks;
  std::vector<bool> answers;
};

/// One service StepOutcome, latency_seconds aside.
struct Outcome {
  int step = 0;
  int instance = -1;
  int round = -1;
  int cumulative_cost = 0;
  double selected_entropy_bits = 0.0;
  double expected_gain_bits = 0.0;
  double utility_bits = 0.0;
  std::vector<int> tasks;
  std::vector<bool> answers;
};

struct Instance {
  int cost_spent = 0;
  JointDistribution joint;
};

struct Run {
  uint64_t seed = 0;
  int total_cost_spent = 0;
  std::vector<Step> steps;
  std::vector<Outcome> outcomes;
  std::vector<Instance> instances;
};

/// Snapshot of a finished scheduler run.
inline Run Capture(uint64_t seed,
                   const std::vector<BudgetScheduler::StepRecord>& records,
                   const BudgetScheduler& scheduler) {
  Run run;
  run.seed = seed;
  run.total_cost_spent = scheduler.total_cost_spent();
  for (const BudgetScheduler::StepRecord& record : records) {
    run.steps.push_back({record.step, record.instance, record.cumulative_cost,
                         record.expected_gain_bits, record.total_utility_bits,
                         record.tasks, record.answers});
  }
  for (int i = 0; i < scheduler.num_instances(); ++i) {
    run.instances.push_back({scheduler.cost_spent(i), scheduler.joint(i)});
  }
  return run;
}

/// Reads a golden file in the line format above. An empty result means
/// the file is missing or malformed.
inline std::vector<Run> Load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::vector<Run> runs;
  std::string line;
  while (std::getline(file, line)) {
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    // Doubles go through strtod: it round-trips %.17g exactly.
    const auto read_double = [&in](double* value) {
      std::string token;
      if (!(in >> token)) return false;
      char* end = nullptr;
      *value = std::strtod(token.c_str(), &end);
      return *end == '\0';
    };
    const auto read_tasks_and_answers = [&in](std::vector<int>* tasks,
                                              std::vector<bool>* answers) {
      size_t k = 0;
      if (!(in >> k)) return false;
      tasks->resize(k);
      for (int& task : *tasks) {
        if (!(in >> task)) return false;
      }
      std::string bits;
      if (!(in >> bits)) return false;
      if (bits != "-") {
        for (char c : bits) answers->push_back(c == '1');
      }
      return true;
    };
    if (kind == "run") {
      Run run;
      if (!(in >> run.seed >> run.total_cost_spent)) return {};
      runs.push_back(std::move(run));
    } else if (kind == "step" && !runs.empty()) {
      Step step;
      if (!(in >> step.step >> step.instance >> step.cumulative_cost) ||
          !read_double(&step.expected_gain_bits) ||
          !read_double(&step.total_utility_bits) ||
          !read_tasks_and_answers(&step.tasks, &step.answers)) {
        return {};
      }
      runs.back().steps.push_back(std::move(step));
    } else if (kind == "outcome" && !runs.empty()) {
      Outcome outcome;
      if (!(in >> outcome.step >> outcome.instance >> outcome.round >>
            outcome.cumulative_cost) ||
          !read_double(&outcome.selected_entropy_bits) ||
          !read_double(&outcome.expected_gain_bits) ||
          !read_double(&outcome.utility_bits) ||
          !read_tasks_and_answers(&outcome.tasks, &outcome.answers)) {
        return {};
      }
      runs.back().outcomes.push_back(std::move(outcome));
    } else if (kind == "instance" && !runs.empty()) {
      Instance instance;
      int num_facts = 0;
      size_t support = 0;
      if (!(in >> instance.cost_spent >> num_facts >> support)) return {};
      std::vector<JointDistribution::Entry> entries(support);
      for (JointDistribution::Entry& entry : entries) {
        if (!(in >> entry.mask) || !read_double(&entry.prob)) return {};
      }
      auto joint = JointDistribution::FromEntries(num_facts, entries);
      if (!joint.ok()) return {};
      instance.joint = std::move(joint).value();
      runs.back().instances.push_back(std::move(instance));
    } else if (!kind.empty()) {
      return {};
    }
  }
  return runs;
}

}  // namespace crowdfusion::core::golden

#endif  // CROWDFUSION_TESTS_CORE_SCHEDULER_GOLDEN_H_