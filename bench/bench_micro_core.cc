/// Google-benchmark micro benchmarks of the core primitives: entropy,
/// marginalization, the BSC butterfly, answer-joint preprocessing,
/// partition refinement (dense and sparse), Bayesian updates, one-round
/// selection, and the JSON codec's dump and parse of fusion:run requests
/// and replies. The custom main additionally times the sparse greedy at
/// paper scale (n = 64, |O| = 10^5) and the codec, and merges the
/// measurements into the BENCH_greedy.json baseline.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "common/bench_report.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/answer_model.h"
#include "core/bayes.h"
#include "core/greedy_selector.h"
#include "core/opt_selector.h"
#include "core/random_selector.h"
#include "core/sparse_refiner.h"
#include "core/utility.h"
#include "service/fusion_service.h"
#include "service/request_json.h"

namespace crowdfusion {
namespace {

core::CrowdModel Crowd() {
  auto crowd = core::CrowdModel::Create(0.8);
  CF_CHECK(crowd.ok());
  return std::move(crowd).value();
}

void BM_Entropy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint =
      bench::MakeCorrelatedJoint(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(joint.EntropyBits());
  }
  state.SetComplexityN(joint.support_size());
}
BENCHMARK(BM_Entropy)->Arg(8)->Arg(12)->Arg(16)->Complexity(benchmark::oN);

void BM_MarginalizeOnto(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 2);
  const std::vector<int> tasks = {0, 2, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(joint.MarginalizeOnto(tasks));
  }
}
BENCHMARK(BM_MarginalizeOnto)->Arg(8)->Arg(12)->Arg(16);

void BM_ChannelButterfly(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const core::CrowdModel crowd = Crowd();
  std::vector<double> dist(1ULL << k, 1.0 / static_cast<double>(1ULL << k));
  for (auto _ : state) {
    std::vector<double> copy = dist;
    crowd.PushThroughChannel(copy, k);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ChannelButterfly)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_AnswerDistributionFast(benchmark::State& state) {
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(12, 3);
  const core::CrowdModel crowd = Crowd();
  const std::vector<int> tasks = {0, 3, 5, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AnswerDistribution(joint, tasks, crowd));
  }
}
BENCHMARK(BM_AnswerDistributionFast);

void BM_AnswerDistributionBruteForce(benchmark::State& state) {
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(12, 3);
  const core::CrowdModel crowd = Crowd();
  const std::vector<int> tasks = {0, 3, 5, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::AnswerDistributionBruteForce(joint, tasks, crowd));
  }
}
BENCHMARK(BM_AnswerDistributionBruteForce);

void BM_AnswerJointBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 4);
  const core::CrowdModel crowd = Crowd();
  for (auto _ : state) {
    auto table = core::AnswerJointTable::Build(joint, crowd);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_AnswerJointBuild)->Arg(8)->Arg(12)->Arg(16);

void BM_AnswerJointBuildByScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 4);
  const core::CrowdModel crowd = Crowd();
  for (auto _ : state) {
    auto table = core::AnswerJointTable::BuildByScan(joint, crowd);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_AnswerJointBuildByScan)->Arg(8)->Arg(10)->Arg(12);

void BM_PartitionRefinerCandidate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 5);
  const core::CrowdModel crowd = Crowd();
  auto table = core::AnswerJointTable::Build(joint, crowd);
  CF_CHECK(table.ok());
  core::PartitionRefiner refiner(&table.value());
  refiner.Commit(0);
  refiner.Commit(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(refiner.EntropyWithCandidate(3));
  }
}
BENCHMARK(BM_PartitionRefinerCandidate)->Arg(8)->Arg(12)->Arg(16);

void BM_SparseRefinerCandidate(benchmark::State& state) {
  const int n = 64;
  const int support = static_cast<int>(state.range(0));
  const core::JointDistribution joint =
      bench::MakeSparseCorrelatedJoint(n, support, 5);
  const core::CrowdModel crowd = Crowd();
  core::SparsePartitionRefiner refiner(joint, crowd);
  refiner.Commit(0);
  refiner.Commit(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(refiner.EntropyWithCandidate(3));
  }
  state.SetComplexityN(joint.support_size());
}
BENCHMARK(BM_SparseRefinerCandidate)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Complexity(benchmark::oN);

/// The batched selection kernel: one pass over the support evaluating a
/// whole candidate set, forced to each tile kernel so scalar and AVX2
/// stay individually comparable across runs whatever kAuto would pick.
void BM_SparseRefinerBatchedSweep(benchmark::State& state) {
  const int support = static_cast<int>(state.range(0));
  const bool use_avx2 = state.range(1) != 0;
  if (use_avx2 && !common::CpuSupportsAvx2()) {
    state.SkipWithError("host cannot run the AVX2 kernel");
    return;
  }
  const int n = 64;
  const core::JointDistribution joint =
      bench::MakeSparseCorrelatedJoint(n, support, 5);
  const core::CrowdModel crowd = Crowd();
  core::SparsePartitionRefiner::Options options;
  options.simd = use_avx2 ? common::SimdPolicy::kForceAvx2
                          : common::SimdPolicy::kForceScalar;
  core::SparsePartitionRefiner refiner(joint, crowd, options);
  refiner.Commit(0);
  refiner.Commit(1);
  std::vector<int> candidates;
  for (int f = 2; f < n; ++f) candidates.push_back(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(refiner.EntropiesWithCandidates(candidates));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_SparseRefinerBatchedSweep)
    ->ArgNames({"support", "avx2"})
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}});

void BM_SparseRefinerCommit(benchmark::State& state) {
  const core::JointDistribution joint =
      bench::MakeSparseCorrelatedJoint(64, static_cast<int>(state.range(0)),
                                       6);
  const core::CrowdModel crowd = Crowd();
  for (auto _ : state) {
    core::SparsePartitionRefiner refiner(joint, crowd);
    refiner.Commit(0);
    refiner.Commit(7);
    benchmark::DoNotOptimize(refiner.CommittedEntropyBits());
  }
}
BENCHMARK(BM_SparseRefinerCommit)->Arg(1000)->Arg(10000);

void BM_MarginalGainProfile(benchmark::State& state) {
  const int n = 64;
  const core::JointDistribution joint =
      bench::MakeSparseCorrelatedJoint(n, static_cast<int>(state.range(0)),
                                       7);
  const core::CrowdModel crowd = Crowd();
  const std::vector<int> selected = {0, 5, 9};
  std::vector<int> candidates;
  for (int f = 0; f < n; ++f) {
    if (f != 0 && f != 5 && f != 9) candidates.push_back(f);
  }
  for (auto _ : state) {
    auto gains = core::MarginalGainProfile(joint, selected, candidates,
                                           crowd);
    benchmark::DoNotOptimize(gains);
  }
}
BENCHMARK(BM_MarginalGainProfile)->Arg(1000)->Arg(10000);

void BM_SparseGreedySelect(benchmark::State& state) {
  const core::JointDistribution joint = bench::MakeSparseCorrelatedJoint(
      64, static_cast<int>(state.range(0)), 8);
  const core::CrowdModel crowd = Crowd();
  core::GreedySelector::Options options;
  options.use_pruning = true;
  options.use_preprocessing = true;
  options.preprocessing_mode =
      core::GreedySelector::PreprocessingMode::kSparse;
  core::GreedySelector selector(options);
  for (auto _ : state) {
    core::SelectionRequest request;
    request.joint = &joint;
    request.crowd = &crowd;
    request.k = 8;
    benchmark::DoNotOptimize(selector.Select(request));
  }
}
BENCHMARK(BM_SparseGreedySelect)->Arg(1000)->Arg(10000);

void BM_BayesUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 6);
  const core::CrowdModel crowd = Crowd();
  const core::AnswerSet answers{{0, 2, 4}, {true, false, true}};
  for (auto _ : state) {
    auto posterior = core::PosteriorGivenAnswers(joint, answers, crowd);
    benchmark::DoNotOptimize(posterior);
  }
}
BENCHMARK(BM_BayesUpdate)->Arg(8)->Arg(12)->Arg(16);

void BM_GreedySelectPreprocessed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 7);
  const core::CrowdModel crowd = Crowd();
  core::GreedySelector::Options options;
  options.use_pruning = true;
  options.use_preprocessing = true;
  core::GreedySelector selector(options);
  for (auto _ : state) {
    core::SelectionRequest request;
    request.joint = &joint;
    request.crowd = &crowd;
    request.k = 3;
    benchmark::DoNotOptimize(selector.Select(request));
  }
}
BENCHMARK(BM_GreedySelectPreprocessed)->Arg(8)->Arg(12)->Arg(16);

void BM_GreedySelectBruteForce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(n, 7);
  const core::CrowdModel crowd = Crowd();
  core::GreedySelector selector;
  for (auto _ : state) {
    core::SelectionRequest request;
    request.joint = &joint;
    request.crowd = &crowd;
    request.k = 3;
    benchmark::DoNotOptimize(selector.Select(request));
  }
}
BENCHMARK(BM_GreedySelectBruteForce)->Arg(8)->Arg(12);

void BM_OptSelect(benchmark::State& state) {
  const core::JointDistribution joint = bench::MakeCorrelatedJoint(10, 8);
  const core::CrowdModel crowd = Crowd();
  core::OptSelector selector;
  for (auto _ : state) {
    core::SelectionRequest request;
    request.joint = &joint;
    request.crowd = &crowd;
    request.k = static_cast<int>(state.range(0));
    benchmark::DoNotOptimize(selector.Select(request));
  }
}
BENCHMARK(BM_OptSelect)->Arg(1)->Arg(2)->Arg(3);

/// The JSON codec's wire documents: the request and reply of a
/// fusion:run shaped like perfbench's online_small (2 books x 4 facts,
/// scripted crowd, budget 4) and like its bulk_select (1 book, n = 64,
/// support 500, k = 8 per step, simulated crowd, budget 64).
struct WireDoc {
  const char* name;
  bool bulk;
  bool reply;
};
constexpr WireDoc kSmallRequest{"small_request", false, false};
constexpr WireDoc kSmallReply{"small_reply", false, true};
constexpr WireDoc kBulkRequest{"bulk_request", true, false};
constexpr WireDoc kBulkReply{"bulk_reply", true, true};
constexpr WireDoc kWireDocs[] = {kSmallRequest, kSmallReply, kBulkRequest,
                                 kBulkReply};

service::FusionRequest CodecRequest(bool bulk) {
  service::FusionRequest request;
  request.mode = service::RunMode::kEngine;
  request.label = bulk ? "select-0" : "small-0";
  const int books = bulk ? 1 : 2;
  const int facts = bulk ? 64 : 4;
  for (int b = 0; b < books; ++b) {
    service::InstanceSpec instance;
    instance.name = "b";
    instance.name += std::to_string(b);
    if (bulk) {
      instance.joint = bench::MakeSparseCorrelatedJoint(facts, 500, 7);
    } else {
      const std::vector<double> marginals = {0.3 + 0.1 * b, 0.55, 0.7, 0.25};
      auto joint = core::JointDistribution::FromIndependentMarginals(marginals);
      CF_CHECK(joint.ok());
      instance.joint = std::move(joint).value();
    }
    for (int f = 0; f < facts; ++f) instance.truths.push_back(f % 3 == 0);
    request.instances.push_back(std::move(instance));
  }
  if (bulk) {
    request.selector.kind = "greedy";
    request.selector.preprocessing_threads = 1;
    request.provider.kind = "simulated_crowd";
    request.provider.accuracy = 0.8;
    request.provider.seed = 11;
    request.assumed_pc = 0.8;
    request.budget.budget_per_instance = 64;
    request.budget.tasks_per_step = 8;
  } else {
    request.provider.kind = "scripted";
    request.provider.script = {true, false, true, true};
    request.budget.budget_per_instance = 4;
  }
  return request;
}

common::JsonValue CodecDocument(const WireDoc& doc) {
  const service::FusionRequest request = CodecRequest(doc.bulk);
  if (!doc.reply) return service::FusionRequestToJson(request);
  auto response = service::FusionService().Run(request);
  CF_CHECK(response.ok()) << response.status().ToString();
  return service::FusionResponseToJson(*response);
}

void BM_JsonDump(benchmark::State& state, const WireDoc& doc) {
  const common::JsonValue json = CodecDocument(doc);
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = json.Dump();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK_CAPTURE(BM_JsonDump, small_request, kSmallRequest);
BENCHMARK_CAPTURE(BM_JsonDump, small_reply, kSmallReply);
BENCHMARK_CAPTURE(BM_JsonDump, bulk_request, kBulkRequest);
BENCHMARK_CAPTURE(BM_JsonDump, bulk_reply, kBulkReply);

void BM_JsonParse(benchmark::State& state, const WireDoc& doc) {
  const std::string text = CodecDocument(doc).Dump();
  for (auto _ : state) {
    auto parsed = common::JsonValue::Parse(text);
    CF_CHECK(parsed.ok());
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK_CAPTURE(BM_JsonParse, small_request, kSmallRequest);
BENCHMARK_CAPTURE(BM_JsonParse, small_reply, kSmallReply);
BENCHMARK_CAPTURE(BM_JsonParse, bulk_request, kBulkRequest);
BENCHMARK_CAPTURE(BM_JsonParse, bulk_reply, kBulkReply);

/// Best-of-5 mean time of one `op` call, in ms, over batches of `batch`.
template <typename Op>
double BestMeanMs(int batch, const Op& op) {
  double best_seconds = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const common::Stopwatch timer;
    for (int i = 0; i < batch; ++i) op();
    const double seconds = timer.ElapsedSeconds() / batch;
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
  }
  return best_seconds * 1e3;
}

/// Ledger rows for the codec: common.json_dump[<doc>] and
/// common.json_parse[<doc>], keyed by facts per book (n), support per book
/// and books (k).
void AddCodecRows(common::BenchReport& report) {
  for (const WireDoc& doc : kWireDocs) {
    const common::JsonValue json = CodecDocument(doc);
    const std::string text = json.Dump();
    const int batch = doc.bulk ? 200 : 2000;
    const double dump_ms = BestMeanMs(batch, [&] {
      benchmark::DoNotOptimize(json.Dump().size());
    });
    const double parse_ms = BestMeanMs(batch, [&] {
      CF_CHECK(common::JsonValue::Parse(text).ok());
    });
    for (const bool dump : {true, false}) {
      common::BenchRecord record;
      record.config =
          std::string(dump ? "common.json_dump[" : "common.json_parse[") +
          doc.name + "]";
      record.n = doc.bulk ? 64 : 4;
      record.support = doc.bulk ? 500 : 16;
      record.k = doc.bulk ? 1 : 2;
      record.wall_ms = dump ? dump_ms : parse_ms;
      report.Add(std::move(record));
    }
    std::printf("json codec [%s, %zu bytes]: dump %.1f us, parse %.1f us\n",
                doc.name, text.size(), dump_ms * 1e3, parse_ms * 1e3);
  }
}

/// Times one full sparse greedy selection at paper scale and merges it
/// into the shared baseline file next to bench_table5_runtime's rows.
int EmitBaseline(const std::string& report_path) {
  const int n = 64;
  const int support = 100000;
  const int k = 8;
  const core::JointDistribution joint =
      bench::MakeSparseCorrelatedJoint(n, support, 42);
  const core::CrowdModel crowd = Crowd();
  core::GreedySelector::Options options;
  options.use_pruning = true;
  options.use_preprocessing = true;
  core::GreedySelector selector(options);
  core::SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = k;
  const common::Stopwatch timer;
  auto selection = selector.Select(request);
  const double seconds = timer.ElapsedSeconds();
  CF_CHECK(selection.ok()) << selection.status().ToString();
  CF_CHECK(selection->stats.sparse_preprocessing);

  common::BenchReport report("bench_micro_core");
  common::BenchRecord record;
  record.config = selector.name() + "[sparse]";
  record.n = n;
  record.support = joint.support_size();
  record.k = k;
  record.wall_ms = seconds * 1e3;
  record.entropy_bits = selection->entropy_bits;
  report.Add(std::move(record));

  // Per-kernel rows for the batched candidate sweep itself, so a kernel
  // regression is caught even where the end-to-end greedy would hide it.
  core::SparsePartitionRefiner::Options base_options;
  for (const bool use_avx2 : {false, true}) {
    if (use_avx2 && !common::CpuSupportsAvx2()) continue;
    core::SparsePartitionRefiner::Options refiner_options = base_options;
    refiner_options.simd = use_avx2 ? common::SimdPolicy::kForceAvx2
                                    : common::SimdPolicy::kForceScalar;
    core::SparsePartitionRefiner refiner(joint, crowd, refiner_options);
    refiner.Commit(0);
    refiner.Commit(1);
    std::vector<int> candidates;
    for (int f = 2; f < n; ++f) candidates.push_back(f);
    std::vector<double> entropies = refiner.EntropiesWithCandidates(
        candidates);  // warm-up: scratch reaches its high-water mark
    double best_seconds = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const common::Stopwatch sweep_timer;
      entropies = refiner.EntropiesWithCandidates(candidates);
      const double sweep_seconds = sweep_timer.ElapsedSeconds();
      if (rep == 0 || sweep_seconds < best_seconds) {
        best_seconds = sweep_seconds;
      }
    }
    common::BenchRecord kernel_record;
    kernel_record.config =
        use_avx2 ? "BatchedSweep[avx2]" : "BatchedSweep[scalar]";
    kernel_record.n = n;
    kernel_record.support = joint.support_size();
    kernel_record.k = static_cast<int>(candidates.size());
    kernel_record.wall_ms = best_seconds * 1e3;
    kernel_record.entropy_bits = entropies.front();
    report.Add(kernel_record);
    std::printf("batched sweep [%s]: %d candidates over |O|=%d: %.2f ms\n",
                use_avx2 ? "avx2" : "scalar",
                static_cast<int>(candidates.size()), joint.support_size(),
                best_seconds * 1e3);
  }
  AddCodecRows(report);
  const common::Status written = report.MergeToFile(report_path);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", report_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("sparse greedy baseline: n=%d |O|=%d k=%d %.1f ms -> %s\n", n,
              joint.support_size(), k, seconds * 1e3, report_path.c_str());
  return 0;
}

}  // namespace
}  // namespace crowdfusion

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Baseline emission is opt-in so interactive runs (--benchmark_filter,
  // --benchmark_list_tests) have no side effects; CI sets the variable.
  const char* path = std::getenv("CROWDFUSION_BENCH_REPORT");
  if (path == nullptr || path[0] == '\0') return 0;
  return crowdfusion::EmitBaseline(path);
}
