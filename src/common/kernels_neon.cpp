// NEON kernel table (AArch64, where Advanced SIMD is baseline — no runtime
// probe needed beyond compiling for the architecture): the primitives
// kernel_shapes.h builds the table from. An 8-float step is a pair of 4-wide
// registers, so the table runs the same 8-wide bodies and n % 8 tails as the
// AVX2 table. Compiled with -ffp-contract=off like the others.

#if defined(__aarch64__)

#include <arm_neon.h>

#include "common/kernel_shapes.h"
#include "common/kernels.h"

namespace opal {

namespace {

// Four log2-7bit codes dequantized by integer exponent assembly (see the
// AVX2 twin for the bit-level derivation): be = (exponent+127) - code,
// normal = be << 23, denormal = 1 << (22 + be), code 127 = exactly +0.
inline float32x4_t decode4_log2(int32x4_t b32, int32x4_t ebias) {
  const int32x4_t code = vandq_s32(b32, vdupq_n_s32(kKvLog2CodeMax));
  const int32x4_t sign =
      vshlq_n_s32(vandq_s32(b32, vdupq_n_s32(0x80)), 24);
  const int32x4_t be = vsubq_s32(ebias, code);
  const int32x4_t normal = vshlq_n_s32(be, 23);
  // vshlq_s32 with a negative per-lane count shifts right, so 1 << (22+be)
  // correctly flushes to 0 once be drops below -22 (under the denormal min).
  const int32x4_t denorm =
      vshlq_s32(vdupq_n_s32(1), vaddq_s32(be, vdupq_n_s32(22)));
  int32x4_t bits =
      vbslq_s32(vcgtq_s32(be, vdupq_n_s32(0)), normal, denorm);
  bits = vbslq_s32(vcgtq_s32(be, vdupq_n_s32(255)),
                   vdupq_n_s32(0x7f800000), bits);
  bits = vorrq_s32(bits, sign);
  bits = vbicq_s32(
      bits, vreinterpretq_s32_u32(vceqq_s32(code, vdupq_n_s32(kKvLog2CodeMax))));
  return vreinterpretq_f32_s32(bits);
}

struct Neon {
  static constexpr const char* kName = "neon";
  static constexpr bool kSimd = true;
  struct F8 {
    float32x4_t lo, hi;
  };
  struct Acc {
    float64x2_t lo, hi;
  };

  static F8 load8(const float* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
  static void store8(float* p, F8 v) {
    vst1q_f32(p, v.lo);
    vst1q_f32(p + 4, v.hi);
  }
  static F8 set1(float v) { return {vdupq_n_f32(v), vdupq_n_f32(v)}; }
  static F8 fma8(F8 x, F8 w, F8 y) {
    return {vfmaq_f32(y.lo, x.lo, w.lo), vfmaq_f32(y.hi, x.hi, w.hi)};
  }
  static F8 mul8(F8 x, F8 s) {
    return {vmulq_f32(x.lo, s.lo), vmulq_f32(x.hi, s.hi)};
  }

  // acc += a[0..3] * b[0..3] in double lanes.
  static void dacc4(const float* a, float32x4_t b, Acc& acc) {
    const float32x4_t av = vld1q_f32(a);
    acc.lo = vfmaq_f64(acc.lo, vcvt_f64_f32(vget_low_f32(av)),
                       vcvt_f64_f32(vget_low_f32(b)));
    acc.hi = vfmaq_f64(acc.hi, vcvt_high_f64_f32(av), vcvt_high_f64_f32(b));
  }
  static void dacc8(const float* a, F8 b, Acc& acc) {
    dacc4(a, b.lo, acc);
    dacc4(a + 4, b.hi, acc);
  }

  static double hsum(Acc acc) { return vaddvq_f64(vaddq_f64(acc.lo, acc.hi)); }

  static F8 decode8(const float* p, F32Elems) { return load8(p); }

  // Eight int8 codes dequantized to read_row's exact floats: float(code) * s.
  static F8 decode8(const std::int8_t* c, Int8Elems d) {
    const int16x8_t w = vmovl_s8(vld1_s8(c));
    const float32x4_t sv = vdupq_n_f32(d.s);
    return {vmulq_f32(vcvtq_f32_s32(vmovl_s16(vget_low_s16(w))), sv),
            vmulq_f32(vcvtq_f32_s32(vmovl_s16(vget_high_s16(w))), sv)};
  }

  static F8 decode8(const std::int8_t* c, Log2Elems d) {
    const uint16x8_t w =
        vmovl_u8(vld1_u8(reinterpret_cast<const uint8_t*>(c)));
    const int32x4_t ebias = vdupq_n_s32(d.exponent + 127);
    return {decode4_log2(vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(w))),
                         ebias),
            decode4_log2(vreinterpretq_s32_u32(vmovl_u16(vget_high_u16(w))),
                         ebias)};
  }
};

constexpr KernelOps kNeonOps = make_table<Neon>();

}  // namespace

const KernelOps* opal_neon_kernels() { return &kNeonOps; }

}  // namespace opal

#endif  // __aarch64__
