#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded inputs and the in-process reference every reply is checked
// against. Inputs come from the benchmark's own generator, so the program
// sees only the generated request documents.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/fusion_service.h"

namespace perfbench {

/// SplitMix64: the benchmark's own stream, independent of the program's
/// RNG so a change there cannot change the inputs.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  bool Coin(double p) { return Uniform() < p; }

 private:
  uint64_t state_;
};

/// 2 books x 4 facts, scripted provider, budget 4, engine mode.
crowdfusion::service::FusionRequest MakeSmallRequest(SeedRng& rng, int index);

/// One book, n=64 facts over a sparse support of `support` worlds, k=8 per
/// round, budget 64, greedy with one preprocessing thread, zero-latency
/// simulated crowd, engine mode.
crowdfusion::service::FusionRequest MakeSelectRequest(SeedRng& rng,
                                                      int index, int support);

/// 2 books x 8 facts, pipelined (max_in_flight 4), one task per step, over
/// the "http_pool" provider on `endpoints` hosting zero-latency simulated
/// crowds. The in-process reference is the same request on the local
/// simulated_crowd (the pool differential is bit-for-bit).
crowdfusion::service::FusionRequest MakeRemoteCrowdRequest(
    SeedRng& rng, int index, const std::vector<std::string>& endpoints);

/// A pool of distinct requests with their in-process references.
struct RequestPool {
  std::vector<std::string> bodies;
  /// Reference reply with wall-clock fields masked (see MaskWallClock).
  std::vector<std::string> masked_reference;
  std::vector<crowdfusion::service::FusionResponse> reference;
  /// Total Q after minus total Q before, bits, per request.
  std::vector<double> utility_gain_bits;
  /// Books per request.
  std::vector<int> books;
};

/// Serializes every request and runs it in-process through a fresh
/// FusionService (on `threads` threads) to build the references. For
/// "http_pool" requests the reference runs on the local simulated crowd.
RequestPool BuildPool(
    const std::vector<crowdfusion::service::FusionRequest>& requests,
    int threads);

/// Replaces the reference of one request with a wrong one (self-test
/// hook: every reply to it must then count as failed).
void TamperReference(RequestPool* pool, int request);

/// Copy of a reply document with the wall-clock fields removed: the
/// "stats" member and every step's "latency_seconds" value.
std::string MaskWallClock(std::string_view json);

/// True when `reply` (a crowdfusion-response-v1 document) equals the
/// reference of `request` outside the wall-clock fields. The cheap path
/// compares masked bytes; a byte mismatch falls back to a typed
/// comparison, so an encoder change that keeps values stays correct.
bool ReplyMatches(const RequestPool& pool, int request,
                  std::string_view reply);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
