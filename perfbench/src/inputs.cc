#include "inputs.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <set>
#include <thread>
#include <utility>

#include "common/json.h"
#include "core/joint_distribution.h"
#include "service/request_json.h"

namespace perfbench {

namespace cf = crowdfusion;
using cf::core::JointDistribution;
using cf::service::FusionRequest;
using cf::service::FusionResponse;
using cf::service::InstanceSpec;

uint64_t SeedRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SeedRng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

namespace {

JointDistribution IndependentJoint(SeedRng& rng, int facts) {
  std::vector<double> marginals(static_cast<size_t>(facts));
  for (double& m : marginals) m = rng.Uniform(0.2, 0.8);
  auto joint = JointDistribution::FromIndependentMarginals(marginals);
  if (!joint.ok()) std::abort();
  return std::move(joint).value();
}

/// Correlated sparse joint: `support` distinct worlds clustered around a
/// few anchor worlds (each bit flipped w.p. 0.1), exponential weights.
/// Returns the joint and its first anchor, used as the gold truth.
std::pair<JointDistribution, uint64_t> SparseJoint(SeedRng& rng, int facts,
                                                   int support) {
  const uint64_t valid = facts >= 64 ? ~0ULL : ((1ULL << facts) - 1);
  const int num_anchors = std::max(2, std::min(8, support / 4 + 1));
  std::vector<uint64_t> anchors(static_cast<size_t>(num_anchors));
  for (uint64_t& anchor : anchors) anchor = rng.Next() & valid;
  std::set<uint64_t> masks;
  while (static_cast<int>(masks.size()) < support) {
    uint64_t mask = anchors[rng.Below(anchors.size())];
    for (int bit = 0; bit < facts; ++bit) {
      if (rng.Coin(0.1)) mask ^= 1ULL << bit;
    }
    masks.insert(mask & valid);
  }
  std::vector<JointDistribution::Entry> entries;
  entries.reserve(masks.size());
  for (const uint64_t mask : masks) {
    entries.push_back({mask, -std::log(1.0 - rng.Uniform()) + 1e-9});
  }
  auto joint = JointDistribution::FromEntries(facts, std::move(entries),
                                              /*normalize=*/true);
  if (!joint.ok()) std::abort();
  return {std::move(joint).value(), anchors.front()};
}

std::vector<bool> Bits(uint64_t mask, int facts) {
  std::vector<bool> bits(static_cast<size_t>(facts));
  for (int f = 0; f < facts; ++f) {
    bits[static_cast<size_t>(f)] = ((mask >> f) & 1) != 0;
  }
  return bits;
}

void ZeroWallClock(FusionResponse& response) {
  response.stats = {};
  for (auto& step : response.steps) step.latency_seconds = 0.0;
}

size_t SkipValue(std::string_view s, size_t at) {
  if (at >= s.size()) return at;
  if (s[at] == '"') {
    ++at;
    while (at < s.size() && s[at] != '"') at += s[at] == '\\' ? 2 : 1;
    return std::min(at + 1, s.size());
  }
  if (s[at] == '{' || s[at] == '[') {
    int depth = 0;
    while (at < s.size()) {
      const char c = s[at];
      if (c == '"') {
        at = SkipValue(s, at);
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
      ++at;
      if (depth == 0) return at;
    }
    return at;
  }
  while (at < s.size() && s[at] != ',' && s[at] != '}' && s[at] != ']' &&
         !std::isspace(static_cast<unsigned char>(s[at]))) {
    ++at;
  }
  return at;
}

size_t SkipSpace(std::string_view s, size_t at) {
  while (at < s.size() && std::isspace(static_cast<unsigned char>(s[at]))) {
    ++at;
  }
  return at;
}

}  // namespace

FusionRequest MakeSmallRequest(SeedRng& rng, int index) {
  constexpr int kFacts = 4;
  FusionRequest request;
  request.mode = cf::service::RunMode::kEngine;
  request.label = "small-";
  request.label += std::to_string(index);
  for (int b = 0; b < 2; ++b) {
    InstanceSpec instance;
    instance.name = "b";
    instance.name += std::to_string(b);
    instance.joint = IndependentJoint(rng, kFacts);
    instance.truths = Bits(rng.Next(), kFacts);
    request.instances.push_back(std::move(instance));
  }
  request.provider.kind = "scripted";
  request.provider.script = Bits(rng.Next(), kFacts);
  request.budget.budget_per_instance = 4;
  return request;
}

FusionRequest MakeSelectRequest(SeedRng& rng, int index, int support) {
  constexpr int kFacts = 64;
  FusionRequest request;
  request.mode = cf::service::RunMode::kEngine;
  request.label = "select-";
  request.label += std::to_string(index);
  auto [joint, truth] = SparseJoint(rng, kFacts, support);
  InstanceSpec instance;
  instance.name = "book";
  instance.joint = std::move(joint);
  instance.truths = Bits(truth, kFacts);
  request.instances.push_back(std::move(instance));
  request.selector.kind = "greedy";
  request.selector.preprocessing_threads = 1;
  request.provider.kind = "simulated_crowd";
  request.provider.accuracy = 0.8;
  request.provider.seed = rng.Next() >> 1;
  request.assumed_pc = 0.8;
  request.budget.budget_per_instance = 64;
  request.budget.tasks_per_step = 8;
  return request;
}

FusionRequest MakeRemoteCrowdRequest(
    SeedRng& rng, int index, const std::vector<std::string>& endpoints) {
  constexpr int kFacts = 8;
  FusionRequest request;
  request.mode = cf::service::RunMode::kPipelined;
  request.label = "remote-";
  request.label += std::to_string(index);
  for (int b = 0; b < 2; ++b) {
    auto [joint, truth] = SparseJoint(rng, kFacts, 32);
    InstanceSpec instance;
    instance.name = "b";
    instance.name += std::to_string(b);
    instance.joint = std::move(joint);
    instance.truths = Bits(truth, kFacts);
    request.instances.push_back(std::move(instance));
  }
  request.selector.kind = "greedy";
  request.selector.preprocessing_threads = 1;
  request.provider.kind = "http_pool";
  request.provider.endpoints = endpoints;
  request.provider.accuracy = 0.8;
  request.provider.seed = rng.Next() >> 1;
  request.assumed_pc = 0.8;
  request.budget.budget_per_instance = 4;
  request.budget.tasks_per_step = 1;
  request.pipeline.max_in_flight = 4;
  return request;
}

RequestPool BuildPool(const std::vector<FusionRequest>& requests,
                      int threads) {
  RequestPool pool;
  const size_t n = requests.size();
  pool.bodies.resize(n);
  pool.masked_reference.resize(n);
  pool.reference.resize(n);
  pool.utility_gain_bits.resize(n);
  pool.books.resize(n);
  std::vector<std::thread> workers;
  std::vector<char> ok(n, 0);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const cf::service::FusionService service;
      for (size_t i = static_cast<size_t>(t); i < n;
           i += static_cast<size_t>(threads)) {
        pool.bodies[i] = cf::service::FusionRequestToJson(requests[i]).Dump();
        // The reference runs what the server will parse, not the struct.
        auto parsed = cf::service::ParseFusionRequest(pool.bodies[i]);
        if (!parsed.ok()) continue;
        FusionRequest local = std::move(parsed).value();
        if (local.provider.kind == "http_pool") {
          local.provider.kind = "simulated_crowd";
          local.provider.endpoints.clear();
        }
        double initial_q = 0.0;
        for (const InstanceSpec& instance : local.instances) {
          initial_q += instance.joint.Quality();
        }
        pool.books[i] = static_cast<int>(local.instances.size());
        auto response = service.Run(std::move(local));
        if (!response.ok()) continue;
        FusionResponse reference = std::move(response).value();
        ZeroWallClock(reference);
        pool.utility_gain_bits[i] = reference.total_utility_bits - initial_q;
        pool.masked_reference[i] = MaskWallClock(
            cf::service::FusionResponseToJson(reference).Dump());
        pool.reference[i] = std::move(reference);
        ok[i] = 1;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (size_t i = 0; i < n; ++i) {
    if (!ok[i]) {
      std::fprintf(stderr, "perfbench: reference run %zu failed\n", i);
      std::exit(3);
    }
  }
  return pool;
}

void TamperReference(RequestPool* pool, int request) {
  const auto index = static_cast<size_t>(request);
  FusionResponse& reference = pool->reference[index];
  reference.total_utility_bits += 1.0;
  pool->masked_reference[index] = MaskWallClock(
      cf::service::FusionResponseToJson(reference).Dump());
}

std::string MaskWallClock(std::string_view json) {
  std::string out;
  out.reserve(json.size());
  size_t copied = 0;
  size_t at = 0;
  // Only the two keys matter; find each key token and replace its value.
  while ((at = json.find('"', at)) != std::string_view::npos) {
    const size_t end = SkipValue(json, at);
    const std::string_view token =
        json.substr(at + 1, end >= at + 2 ? end - at - 2 : 0);
    at = end;
    if (token != "stats" && token != "latency_seconds") continue;
    const size_t colon = SkipSpace(json, at);
    if (colon >= json.size() || json[colon] != ':') continue;
    out.append(json.substr(copied, at - copied));
    out.append(":null");
    at = SkipValue(json, SkipSpace(json, colon + 1));
    copied = at;
  }
  out.append(json.substr(copied));
  return out;
}

bool ReplyMatches(const RequestPool& pool, int request,
                  std::string_view reply) {
  const size_t index = static_cast<size_t>(request);
  if (MaskWallClock(reply) == pool.masked_reference[index]) return true;
  auto parsed = cf::service::ParseFusionResponse(std::string(reply));
  if (!parsed.ok()) return false;
  FusionResponse response = std::move(parsed).value();
  ZeroWallClock(response);
  return response == pool.reference[index];
}

}  // namespace perfbench
