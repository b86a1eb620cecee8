// SIMD kernel layer for the serving hot path: vectorized GEMV / dot / axpy
// and the attention score / weighted-sum primitives, including fused
// dequantize-dot kernels that consume quantized KV block codes directly.
//
// ## Dispatch rules
//
// All kernels are reached through a function-pointer table (`KernelOps`)
// resolved once at first use:
//
//   1. If the environment variable OPAL_FORCE_SCALAR_KERNELS is set to
//      anything but "0"/"", the scalar reference table is pinned.
//   2. Otherwise the best table the *running* CPU supports wins: AVX2+FMA on
//      x86-64 (checked with __builtin_cpu_supports at runtime, so a binary
//      built on a newer machine still runs on an older one), NEON on
//      AArch64.
//   3. Otherwise the scalar reference table is used.
//
// Tests and benches can override the resolution at runtime with
// set_force_scalar_kernels(); the scalar table is always compiled, on every
// architecture, and is the behavioral reference for everything else.
//
// ## Numerical contract (the bitwise-reference guarantee)
//
// * Every table is built by make_table<Isa>() in kernel_shapes.h from two
//   loop shapes written once: a dot shape (dot, matvec, attend_scores,
//   dequant dot and scores) and an axpy shape (axpy, matvec_transposed,
//   attend_accum, dequant accum), each templated over an element decoder
//   (fp32 load, int8 code * s, log2 kv_decode_log2). scale is a plain
//   elementwise multiply next to them.
// * The scalar table is the reference. Its shapes are the sequential loops,
//   and kernels.cpp is compiled with -ffp-contract=off, so its arithmetic is
//   exactly that source-order IEEE sequence — same pattern as the
//   forced-gather vs zero-copy attend reference in sequence_state.h.
// * SIMD tables run an 8-wide body and then the same sequential loop over
//   the n % 8 tail. They are *tolerance*-equal to scalar (vector lanes change
//   the reduction order of dot products, and the axpy body fuses its
//   multiply-add), and every table is deterministic: the same inputs through
//   the same table give the same bits, every time.
// * Dot products accumulate in double (both scalar and SIMD), preserving the
//   precision contract of opal::dot.
// * Fused dequantize kernels decode quantized codes to *exactly* the floats
//   KvBlockPool::read_row produces (int8: float(code) * (scale/127); log2:
//   kv_decode_log2 below) and run the very shape their plain twin runs. So
//   within ANY single table the fused quantized attend path is bitwise
//   identical to gather-into-scratch-then-plain by construction — fusion
//   removes the fp32 scratch materialization, never a bit of the result.
// * Scalar and AVX2 output bits are pinned by golden hashes in
//   tests/test_kernels.cpp. NEON's fp32 axpy, matvec_transposed and
//   attend_accum once ran a 4-wide body beside the 8-wide fused accum
//   kernels; on the shared 8-wide body their bits changed where n % 8 is 4
//   to 7, and fused == plain now holds there too.
//
// ## Adding an ISA variant
//
// 1. Add src/common/kernels_<isa>.cpp, guarded by the architecture's
//    predefine (e.g. #if defined(__riscv_vector)), holding one shim struct
//    in an anonymous namespace: kName, kSimd = true, and the primitives
//    listed in kernel_shapes.h (8-float load/store/broadcast/fma/mul, the
//    double-accumulating dacc8 + hsum, and decode8 for each element
//    decoder). `make_table<Shim>()` builds every KernelOps entry from it.
// 2. Add a probe `const KernelOps* opal_<isa>_kernels()` returning the table
//    (nullptr when the running CPU lacks the extension) and declare it in
//    kernels.cpp's resolve chain.
// 3. Give the TU its ISA flags + -ffp-contract=off in CMakeLists.txt (and
//    servebench/CMakeLists.txt), keyed by file name and CMAKE_SYSTEM_PROCESSOR.
// 4. tests/test_kernels.cpp and bench/bench_kernels.cpp pick the new table
//    up automatically through kernels(); record its golden hashes in
//    tests/test_kernels.cpp once its bits are settled.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace opal {

/// The kernel function table one CPU dispatch target provides. All pointers
/// are always non-null. Spans are passed as raw pointer + length because the
/// hot path has already validated sizes once at its entry (see
/// common/tensor.cpp) — kernels do no per-row checking.
struct KernelOps {
  /// Dispatch target name: "scalar", "avx2", "neon".
  const char* name;

  /// Dot product, accumulated in double: sum_i a[i] * b[i].
  float (*dot)(const float* a, const float* b, std::size_t n);

  /// y[r] = dot(w_row_r, x) for a row-major [rows x cols] matrix.
  void (*matvec)(const float* w, std::size_t rows, std::size_t cols,
                 const float* x, float* y);

  /// y[c] = sum_r w[r, c] * x[r] for a row-major [rows x cols] matrix
  /// (axpy-accumulated in float, row-major streaming order).
  void (*matvec_transposed)(const float* w, std::size_t rows,
                            std::size_t cols, const float* x, float* y);

  /// y[i] += a * x[i].
  void (*axpy)(float a, const float* x, float* y, std::size_t n);

  /// x[i] *= s.
  void (*scale)(float s, float* x, std::size_t n);

  /// Attention scores over one row-major KV segment:
  ///   out[r] = dot(q, k + r*stride, d_head) * scale       for r in [0, rows)
  /// (dot accumulated in double, the product with `scale` in float).
  void (*attend_scores)(const float* q, const float* k, std::size_t rows,
                        std::size_t stride, std::size_t d_head, float scale,
                        float* out);

  /// Attention weighted value sum over one row-major KV segment:
  ///   z[c] += w[r] * v[r*stride + c]    for r in [0, rows), c in [0, d_head)
  /// rows outer, c inner — the order attention has always accumulated in.
  void (*attend_accum)(const float* w, const float* v, std::size_t rows,
                       std::size_t stride, std::size_t d_head, float* z);

  // --- fused dequantize-dot kernels (quantized KV blocks, no fp32 scratch) -

  /// Dot against int8 codes dequantized in-register: each code decodes to
  /// float(code) * s (s = block amax / 127, pre-divided by the caller, the
  /// exact value KvBlockPool::read_row multiplies by).
  float (*dequant_dot_int8)(const float* a, const std::int8_t* codes,
                            std::size_t n, float s);

  /// Dot against log2-7bit codes (sign | 7-bit code, block scale 2^exponent)
  /// dequantized in-register via kv_decode_log2 — shift-based scaling, no
  /// multiply needed to form the magnitude.
  float (*dequant_dot_log2)(const float* a, const std::int8_t* codes,
                            std::size_t n, int exponent);

  /// attend_scores against int8 K codes: out[r] =
  /// dequant_dot_int8(q, k_codes + r*stride, d_head, s) * scale.
  void (*dequant_scores_int8)(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, float s, float scale,
                              float* out);

  /// attend_scores against log2 K codes.
  void (*dequant_scores_log2)(const float* q, const std::int8_t* k_codes,
                              std::size_t rows, std::size_t stride,
                              std::size_t d_head, int exponent, float scale,
                              float* out);

  /// attend_accum against int8 V codes: z[c] += w[r] * decode(v_codes[...]).
  void (*dequant_accum_int8)(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, float s, float* z);

  /// attend_accum against log2 V codes.
  void (*dequant_accum_log2)(const float* w, const std::int8_t* v_codes,
                             std::size_t rows, std::size_t stride,
                             std::size_t d_head, int exponent, float* z);
};

/// The active kernel table (resolved once per the dispatch rules above).
[[nodiscard]] const KernelOps& kernels();

/// The always-available scalar reference table.
[[nodiscard]] const KernelOps& scalar_kernels();

/// The best SIMD table the running CPU supports, or nullptr when only the
/// scalar reference is available (bench/tests compare it against scalar
/// without flipping the global dispatch).
[[nodiscard]] const KernelOps* simd_kernels();

/// Pins (true) or releases (false) the scalar reference table, overriding
/// both the CPU probe and the OPAL_FORCE_SCALAR_KERNELS environment switch.
/// Intended for tests and benches; not thread-safe against concurrent
/// kernel use (flip it between runs, not during one).
void set_force_scalar_kernels(bool force);

/// Installs `table` as the active dispatch target, bypassing the resolve
/// chain entirely — the interposition hook KernelProfiler uses to swap in
/// its timing wrapper. Passing nullptr drops back to lazy re-resolution
/// (env switch, CPU probe, scalar fallback) on the next kernels() call.
/// Same thread-safety contract as set_force_scalar_kernels.
void set_active_kernels(const KernelOps* table);

/// True when the attend path should read quantized KV through the gather
/// scratch (the pre-fusion reference) instead of the fused dequantize
/// kernels. Default off; tests/benches flip it with
/// set_force_gather_attend() to compare the fused path against its bitwise
/// reference engine-wide (SequenceState::set_force_gather is the
/// per-sequence equivalent).
[[nodiscard]] bool force_gather_attend();
void set_force_gather_attend(bool force);

// --- log2-7bit KV code layout -----------------------------------------------
// Shared between KvBlockPool (encode/rescale/read_row) and the fused kernels
// (in-register decode): one definition, so "fused == gather" stays bitwise.

inline constexpr int kKvLog2CodeBits = 7;
inline constexpr int kKvLog2CodeMax = (1 << kKvLog2CodeBits) - 1;  // 127
inline constexpr std::uint8_t kKvLog2SignBit = 0x80;

/// Decodes one stored log2 KV byte (sign | 7-bit code) under block scale
/// 2^exponent: |v| = 2^(exponent - code); code 127 decodes to exactly +0.
[[nodiscard]] inline float kv_decode_log2(std::int8_t stored,
                                          int exponent) noexcept {
  const auto byte = static_cast<std::uint8_t>(stored);
  const int code = byte & kKvLog2CodeMax;
  if (code == kKvLog2CodeMax) return 0.0f;
  const float mag = std::exp2(static_cast<float>(exponent - code));
  return (byte & kKvLog2SignBit) ? -mag : mag;
}

}  // namespace opal
