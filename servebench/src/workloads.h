// The benchmark's workloads: the scheme each serves, the engine settings,
// the load shape, and the seeded request stream. The engine only ever sees
// the Requests a RequestStream generates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "llm/model_config.h"
#include "llm/prepared_model.h"
#include "llm/serving_engine.h"

namespace servebench {

/// Scaled LLaMA-2-7B: d_model 256, 4 layers, vocab 512. Its prepared fp32
/// weights (~10 MB) exceed a core's L2, so every decode streams weights.
[[nodiscard]] opal::ModelConfig bench_model();
inline constexpr std::uint64_t kModelSeed = 7;
inline constexpr std::size_t kMaxSeqLen = 512;

enum class Kind : std::uint8_t { kDecode, kPrefix };

/// Settings every workload shares. Each is a closed loop of kClients
/// callers on as many batch slots, each caller sending its next request the
/// moment its previous one finished; every run serves whole rounds of
/// kClients requests.
inline constexpr std::size_t kClients = 8;
/// ServingConfig::n_threads: none, so the load thread runs every model pass
/// and the process CPU clock the latency runs on is also its wall clock.
inline constexpr std::size_t kDecodeWorkers = 0;
inline constexpr std::size_t kPrefillChunk = 32;
/// Reported ITL tail: p99 leaves more than ten samples beyond it on every
/// workload in a run of BENCHMARK.json's length (README, "Tail percentiles").
inline constexpr double kItlTailPct = 99.0;

struct Workload {
  std::string name;
  Kind kind = Kind::kDecode;
  opal::EngineConfig engine;  // scheme + KV layout
  bool prefix_cache = false;
  /// KV pool size in full-length sequences; 0 = one per batch slot.
  double pool_sequences = 0.0;
  /// Reported TTFT tail: the highest of 90/95/99 that leaves at least ten
  /// samples beyond it in a run of BENCHMARK.json's length.
  double ttft_tail_pct = 95.0;

  [[nodiscard]] opal::ServingConfig serving_config() const;
};

/// The workload named `name`; throws std::invalid_argument when unknown.
[[nodiscard]] const Workload& find_workload(std::string_view name);

/// Seeded request stream: the k-th call to next() returns a request that
/// depends only on (workload, seed, k).
class RequestStream {
 public:
  RequestStream(const Workload& workload, std::uint64_t seed);
  [[nodiscard]] opal::Request next();
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  /// prefix workload: the document request k asks about.
  [[nodiscard]] static std::size_t round_documents(std::uint64_t k);

  Kind kind_;
  std::uint64_t seed_;
  std::uint64_t count_ = 0;
  std::vector<std::vector<std::size_t>> documents_;  // prefix workload
};

/// A draw-independent sub-stream of `seed`, keyed by `key`.
[[nodiscard]] inline opal::CounterRng substream(std::uint64_t seed,
                                                std::uint64_t key) {
  return opal::CounterRng(opal::CounterRng::at(seed, key));
}

}  // namespace servebench
