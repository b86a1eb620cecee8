// AVX2+FMA kernel table (x86-64): the primitives kernel_shapes.h builds the
// table from. Compiled with -mavx2 -mfma -ffp-contract=off on x86 hosts
// regardless of the build machine's CPU; the probe at the bottom checks the
// *running* CPU before the table is ever dispatched to, so a generic build
// stays safe on pre-AVX2 hardware.

#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)

#include <immintrin.h>

#include "common/kernel_shapes.h"
#include "common/kernels.h"

namespace opal {

namespace {

struct Avx2 {
  static constexpr const char* kName = "avx2";
  static constexpr bool kSimd = true;
  using F8 = __m256;
  struct Acc {
    __m256d lo, hi;
  };

  static F8 load8(const float* p) { return _mm256_loadu_ps(p); }
  static void store8(float* p, F8 v) { _mm256_storeu_ps(p, v); }
  static F8 set1(float v) { return _mm256_set1_ps(v); }
  static F8 fma8(F8 x, F8 w, F8 y) { return _mm256_fmadd_ps(x, w, y); }
  static F8 mul8(F8 x, F8 s) { return _mm256_mul_ps(x, s); }

  // acc += a[0..7] * b[0..7] in double lanes.
  static void dacc8(const float* a, F8 b, Acc& acc) {
    const __m256 av = _mm256_loadu_ps(a);
    acc.lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(av)),
                             _mm256_cvtps_pd(_mm256_castps256_ps128(b)),
                             acc.lo);
    acc.hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)),
                             _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1)),
                             acc.hi);
  }

  static double hsum(Acc acc) {
    const __m256d s = _mm256_add_pd(acc.lo, acc.hi);
    const __m128d pair =
        _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd(s, 1));
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }

  static F8 decode8(const float* p, F32Elems) { return load8(p); }

  // Eight int8 codes dequantized to read_row's exact floats: float(code) * s.
  static F8 decode8(const std::int8_t* c, Int8Elems d) {
    const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c));
    return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes)),
                         _mm256_set1_ps(d.s));
  }

  // Eight log2-7bit codes dequantized via integer exponent assembly: for
  // biased exponent be = (exponent+127) - code, a normal value is be << 23,
  // a denormal (be <= 0, down to 2^-149) is a mantissa bit 1 << (22 + be),
  // and code 127 is exactly +0 — bit-identical to kv_decode_log2's exp2f.
  static F8 decode8(const std::int8_t* c, Log2Elems d) {
    const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c));
    const __m256i b32 = _mm256_cvtepu8_epi32(bytes);
    const __m256i code =
        _mm256_and_si256(b32, _mm256_set1_epi32(kKvLog2CodeMax));
    const __m256i sign =
        _mm256_slli_epi32(_mm256_and_si256(b32, _mm256_set1_epi32(0x80)), 24);
    const __m256i be =
        _mm256_sub_epi32(_mm256_set1_epi32(d.exponent + 127), code);
    const __m256i normal = _mm256_slli_epi32(be, 23);
    const __m256i denorm = _mm256_sllv_epi32(
        _mm256_set1_epi32(1), _mm256_add_epi32(be, _mm256_set1_epi32(22)));
    __m256i bits = _mm256_blendv_epi8(
        denorm, normal, _mm256_cmpgt_epi32(be, _mm256_setzero_si256()));
    bits = _mm256_blendv_epi8(bits, _mm256_set1_epi32(0x7f800000),
                              _mm256_cmpgt_epi32(be, _mm256_set1_epi32(255)));
    bits = _mm256_or_si256(bits, sign);
    return _mm256_castsi256_ps(_mm256_andnot_si256(
        _mm256_cmpeq_epi32(code, _mm256_set1_epi32(kKvLog2CodeMax)), bits));
  }
};

constexpr KernelOps kAvx2Ops = make_table<Avx2>();

}  // namespace

// Probe for kernels.cpp's resolve chain: table only when the running CPU has
// both AVX2 and FMA.
const KernelOps* opal_avx2_kernels() {
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &kAvx2Ops;
  }
  return nullptr;
}

}  // namespace opal

#endif  // x86
