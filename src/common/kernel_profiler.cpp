#include "common/kernel_profiler.h"

#include <chrono>
#include <cstdlib>
#include <tuple>

namespace opal {

namespace {

// The table enable() captured and the wrapper delegates to. Read on every
// wrapped kernel call; written only on the serial phase (enable/disable).
const KernelOps* g_underlying = nullptr;
int g_enable_depth = 0;

thread_local KernelProfile* t_slot = nullptr;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Records one kernel call on this thread's bound slot, timed from
// construction to destruction.
class Timed {
 public:
  Timed(KernelKind kind, std::uint64_t elems) : kind_(kind), elems_(elems) {}
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() {
    KernelStat& stat = t_slot->kernels[static_cast<std::size_t>(kind_)];
    stat.calls += 1;
    stat.elems += elems_;
    stat.ns += now_ns() - t0_;
  }

 private:
  KernelKind kind_;
  std::uint64_t elems_;
  std::uint64_t t0_ = now_ns();
};

// --- wrapper table ----------------------------------------------------------
// Every entry delegates to g_underlying->*Entry with unchanged arguments (so
// the arithmetic — and therefore the output bits — is exactly the underlying
// table's). With no slot bound on this thread it calls straight through and
// never reads the clock; otherwise it times the call and records it under
// `Kind`, counting the product of the size arguments at positions `Sizes`
// as the call's elements.

template <auto Entry, KernelKind Kind, std::size_t... Sizes, class R,
          class... Args>
constexpr auto wrapper_for(R (*KernelOps::*)(Args...)) -> R (*)(Args...) {
  return [](Args... args) -> R {
    if (t_slot == nullptr) return (g_underlying->*Entry)(args...);
    const auto arg = std::tie(args...);
    const Timed timed(Kind, (std::uint64_t{1} * ... * std::get<Sizes>(arg)));
    return (g_underlying->*Entry)(args...);
  };
}

template <auto Entry, KernelKind Kind, std::size_t... Sizes>
constexpr auto profiled() {
  return wrapper_for<Entry, Kind, Sizes...>(Entry);
}

constexpr KernelOps kProfiledOps = {
    "profiled",
    profiled<&KernelOps::dot, KernelKind::kDot, 2>(),
    profiled<&KernelOps::matvec, KernelKind::kMatvec, 1, 2>(),
    profiled<&KernelOps::matvec_transposed, KernelKind::kMatvecTransposed, 1,
             2>(),
    profiled<&KernelOps::axpy, KernelKind::kAxpy, 3>(),
    profiled<&KernelOps::scale, KernelKind::kScale, 2>(),
    profiled<&KernelOps::attend_scores, KernelKind::kAttendScores, 2, 4>(),
    profiled<&KernelOps::attend_accum, KernelKind::kAttendAccum, 2, 4>(),
    profiled<&KernelOps::dequant_dot_int8, KernelKind::kDequantDotInt8, 2>(),
    profiled<&KernelOps::dequant_dot_log2, KernelKind::kDequantDotLog2, 2>(),
    profiled<&KernelOps::dequant_scores_int8, KernelKind::kDequantScoresInt8, 2,
             4>(),
    profiled<&KernelOps::dequant_scores_log2, KernelKind::kDequantScoresLog2, 2,
             4>(),
    profiled<&KernelOps::dequant_accum_int8, KernelKind::kDequantAccumInt8, 2,
             4>(),
    profiled<&KernelOps::dequant_accum_log2, KernelKind::kDequantAccumLog2, 2,
             4>(),
};

}  // namespace

std::string to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::kDot: return "dot";
    case KernelKind::kMatvec: return "matvec";
    case KernelKind::kMatvecTransposed: return "matvec_transposed";
    case KernelKind::kAxpy: return "axpy";
    case KernelKind::kScale: return "scale";
    case KernelKind::kAttendScores: return "attend_scores";
    case KernelKind::kAttendAccum: return "attend_accum";
    case KernelKind::kDequantDotInt8: return "dequant_dot_int8";
    case KernelKind::kDequantDotLog2: return "dequant_dot_log2";
    case KernelKind::kDequantScoresInt8: return "dequant_scores_int8";
    case KernelKind::kDequantScoresLog2: return "dequant_scores_log2";
    case KernelKind::kDequantAccumInt8: return "dequant_accum_int8";
    case KernelKind::kDequantAccumLog2: return "dequant_accum_log2";
  }
  return "unknown";
}

std::string to_string(LayerPhase phase) {
  switch (phase) {
    case LayerPhase::kNorm: return "norm";
    case LayerPhase::kQkv: return "qkv";
    case LayerPhase::kAttend: return "attend";
    case LayerPhase::kFfn: return "ffn";
    case LayerPhase::kLogits: return "logits";
  }
  return "unknown";
}

void KernelProfile::merge(const KernelProfile& other) {
  for (std::size_t i = 0; i < kKernelKindCount; ++i) {
    kernels[i].merge(other.kernels[i]);
  }
  for (std::size_t i = 0; i < kLayerPhaseCount; ++i) {
    phases[i].merge(other.phases[i]);
  }
  if (layers.size() < other.layers.size()) layers.resize(other.layers.size());
  for (std::size_t l = 0; l < other.layers.size(); ++l) {
    for (std::size_t i = 0; i < kLayerPhaseCount; ++i) {
      layers[l][i].merge(other.layers[l][i]);
    }
  }
}

void KernelProfile::clear() {
  kernels = {};
  phases = {};
  layers.clear();
}

std::uint64_t KernelProfile::total_kernel_calls() const {
  std::uint64_t total = 0;
  for (const KernelStat& stat : kernels) total += stat.calls;
  return total;
}

std::uint64_t KernelProfile::total_kernel_ns() const {
  std::uint64_t total = 0;
  for (const KernelStat& stat : kernels) total += stat.ns;
  return total;
}

std::uint64_t profile_now_ns() { return now_ns(); }

bool KernelProfiler::enabled() { return g_enable_depth > 0; }

void KernelProfiler::enable() {
  if (g_enable_depth++ == 0) {
    g_underlying = &kernels();
    set_active_kernels(&kProfiledOps);
  }
}

void KernelProfiler::disable() {
  if (g_enable_depth == 0) return;
  if (--g_enable_depth == 0) {
    set_active_kernels(g_underlying);
    g_underlying = nullptr;
  }
}

bool KernelProfiler::env_enabled() {
  const char* v = std::getenv("OPAL_PROFILE");
  if (v == nullptr) return false;
  return v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

void KernelProfiler::bind_slot(KernelProfile* slot) { t_slot = slot; }

KernelProfile* KernelProfiler::slot() { return t_slot; }

const KernelOps* KernelProfiler::underlying() { return g_underlying; }

}  // namespace opal
