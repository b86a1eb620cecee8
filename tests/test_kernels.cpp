// Kernel-layer contract tests (common/kernels.h):
//  * dispatch honors the runtime switches and always yields usable tables;
//  * the dispatched SIMD table matches the scalar reference within
//    reduction-reorder tolerance across odd lengths, unaligned spans, and
//    tails;
//  * fused dequantize-dot kernels are BITWISE equal to decode-into-scratch
//    then plain-kernel, within each table — the guarantee the quantized
//    attend path builds on — swept over every n % 8 and strided rows;
//  * every entry of the scalar and AVX2 tables reproduces recorded golden
//    output bits;
//  * the in-register log2/int8 decodes match KvBlockPool's scalar decode
//    exactly for every byte value;
//  * end-to-end: ServingEngine token streams agree between SIMD and
//    forced-scalar kernels, and the fused attend path matches the
//    forced-gather reference bitwise in every kv_mode without ever
//    materializing fp32 gather scratch.
#include "common/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/kernel_profiler.h"
#include "eval/schemes.h"
#include "llm/serving_engine.h"

namespace opal {
namespace {

// Deterministic LCG so test data is identical across runs and platforms.
std::uint64_t lcg_state = 0x9e3779b97f4a7c15ull;
float frand() {
  lcg_state = lcg_state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<float>((lcg_state >> 33) & 0xffffff) / 0x1000000p0f *
             4.0f -
         2.0f;
}

std::vector<float> rand_vec(std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = frand();
  return v;
}

std::vector<std::int8_t> rand_codes(std::size_t n, bool log2_mode) {
  std::vector<std::int8_t> v(n);
  for (auto& c : v) {
    lcg_state = lcg_state * 6364136223846793005ull + 1442695040888963407ull;
    const auto byte = static_cast<std::uint8_t>(lcg_state >> 40);
    if (log2_mode) {
      c = static_cast<std::int8_t>(byte);  // any sign|code byte is valid
    } else {
      const int q = static_cast<int>(byte) - 128;
      c = static_cast<std::int8_t>(q == -128 ? -127 : q);  // int8 uses ±127
    }
  }
  return v;
}

// Lengths exercising the 8-wide vector body, the scalar tail (1..7), and
// both at once, including every n % 8 from 4 to 7 (where an 8-wide body and
// a 4-wide body would split the same elements differently).
const std::size_t kLengths[] = {1,  2,  3,  4,  5,  7,  8,  9,  12, 13, 16,
                                17, 19, 20, 24, 28, 31, 33, 64, 100, 257};

class KernelDispatch : public ::testing::Test {
 protected:
  void TearDown() override { set_force_scalar_kernels(false); }
};

TEST_F(KernelDispatch, ForceScalarSwitchPinsAndReleases) {
  set_force_scalar_kernels(true);
  EXPECT_STREQ(kernels().name, "scalar");
  set_force_scalar_kernels(false);
  if (simd_kernels() != nullptr) {
    EXPECT_STREQ(kernels().name, simd_kernels()->name);
  } else {
    EXPECT_STREQ(kernels().name, "scalar");
  }
}

TEST(Kernels, ScalarTableAlwaysAvailable) {
  const KernelOps& ops = scalar_kernels();
  EXPECT_STREQ(ops.name, "scalar");
  const auto a = rand_vec(16), b = rand_vec(16);
  double ref = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    ref += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  EXPECT_EQ(ops.dot(a.data(), b.data(), 16), static_cast<float>(ref));
}

// --- dispatched vs scalar: tolerance across lengths / alignments ------------

void expect_near_rel(float got, float want, const char* what, std::size_t n) {
  const float tol = 1e-5f * (1.0f + std::fabs(want));
  EXPECT_NEAR(got, want, tol) << what << " n=" << n;
}

TEST(KernelsSimd, DotMatchesScalarAcrossLengthsAndAlignment) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  for (const std::size_t n : kLengths) {
    // +3 slack so the same data can be re-read at unaligned offsets.
    const auto a = rand_vec(n + 3), b = rand_vec(n + 3);
    for (const std::size_t off : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}}) {
      expect_near_rel(simd->dot(a.data() + off, b.data() + off, n),
                      ref.dot(a.data() + off, b.data() + off, n), "dot", n);
    }
  }
}

TEST(KernelsSimd, MatvecBothOrientationsMatchScalar) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  for (const std::size_t cols : {3u, 8u, 17u, 33u}) {
    for (const std::size_t rows : {1u, 5u, 16u}) {
      const auto w = rand_vec(rows * cols);
      const auto x = rand_vec(cols), xt = rand_vec(rows);
      std::vector<float> y_simd(rows), y_ref(rows);
      simd->matvec(w.data(), rows, cols, x.data(), y_simd.data());
      ref.matvec(w.data(), rows, cols, x.data(), y_ref.data());
      for (std::size_t r = 0; r < rows; ++r) {
        expect_near_rel(y_simd[r], y_ref[r], "matvec", cols);
      }
      std::vector<float> t_simd(cols), t_ref(cols);
      simd->matvec_transposed(w.data(), rows, cols, xt.data(), t_simd.data());
      ref.matvec_transposed(w.data(), rows, cols, xt.data(), t_ref.data());
      for (std::size_t c = 0; c < cols; ++c) {
        expect_near_rel(t_simd[c], t_ref[c], "matvec_transposed", cols);
      }
    }
  }
}

TEST(KernelsSimd, AxpyAndScaleMatchScalar) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  for (const std::size_t n : kLengths) {
    const auto x = rand_vec(n);
    auto y_simd = rand_vec(n);
    auto y_ref = y_simd;
    auto y1_simd = y_simd;
    auto y1_ref = y_simd;
    // General a: SIMD fuses the multiply-add (one rounding) where the
    // scalar reference rounds twice, so the match is tolerance-level...
    simd->axpy(0.37f, x.data(), y_simd.data(), n);
    ref.axpy(0.37f, x.data(), y_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_near_rel(y_simd[i], y_ref[i], "axpy", n);
    }
    // ...but a == 1.0 (the residual-add case the model layers use) and
    // scale (a single multiply per lane) are exact in every table.
    simd->axpy(1.0f, x.data(), y1_simd.data(), n);
    ref.axpy(1.0f, x.data(), y1_ref.data(), n);
    EXPECT_EQ(y1_simd, y1_ref) << "axpy(1.0) n=" << n;
    simd->scale(1.73f, y1_simd.data(), n);
    ref.scale(1.73f, y1_ref.data(), n);
    EXPECT_EQ(y1_simd, y1_ref) << "scale n=" << n;
  }
}

TEST(KernelsSimd, AttendPrimitivesMatchScalar) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  const KernelOps& ref = scalar_kernels();
  const std::size_t rows = 9, stride = 24, d_head = 20;  // d_head % 8 != 0
  const auto q = rand_vec(d_head);
  const auto kv = rand_vec(rows * stride);
  const auto w = rand_vec(rows);
  std::vector<float> s_simd(rows), s_ref(rows);
  simd->attend_scores(q.data(), kv.data(), rows, stride, d_head, 0.25f,
                      s_simd.data());
  ref.attend_scores(q.data(), kv.data(), rows, stride, d_head, 0.25f,
                    s_ref.data());
  for (std::size_t r = 0; r < rows; ++r) {
    expect_near_rel(s_simd[r], s_ref[r], "attend_scores", d_head);
  }
  std::vector<float> z_simd(d_head, 0.0f), z_ref(d_head, 0.0f);
  simd->attend_accum(w.data(), kv.data(), rows, stride, d_head,
                     z_simd.data());
  ref.attend_accum(w.data(), kv.data(), rows, stride, d_head, z_ref.data());
  for (std::size_t c = 0; c < d_head; ++c) {
    expect_near_rel(z_simd[c], z_ref[c], "attend_accum", rows);
  }
}

// --- fused == decode-then-plain, bitwise, per table -------------------------

// Head sizes for the strided sweep: every n % 8 from 4 to 7, plus short,
// exact-multiple and tail-only shapes.
const std::size_t kHeadSizes[] = {3, 4, 8, 12, 13, 19, 20, 28, 64};

void check_fused_bitwise(const KernelOps& ops) {
  for (const std::size_t n : kLengths) {
    const auto a = rand_vec(n);
    const auto i8 = rand_codes(n, false);
    const auto lg = rand_codes(n, true);
    const float s = 0.0123f;
    const int exponent = 3;

    std::vector<float> dec(n);
    for (std::size_t i = 0; i < n; ++i) {
      dec[i] = static_cast<float>(i8[i]) * s;
    }
    EXPECT_EQ(ops.dequant_dot_int8(a.data(), i8.data(), n, s),
              ops.dot(a.data(), dec.data(), n))
        << ops.name << " int8 n=" << n;

    for (std::size_t i = 0; i < n; ++i) {
      dec[i] = kv_decode_log2(lg[i], exponent);
    }
    EXPECT_EQ(ops.dequant_dot_log2(a.data(), lg.data(), n, exponent),
              ops.dot(a.data(), dec.data(), n))
        << ops.name << " log2 n=" << n;
  }

  // Strided score/accum forms over rows 0, 1 and 7 with stride > d_head.
  for (const std::size_t d_head : kHeadSizes) {
    for (const std::size_t rows : {0u, 1u, 7u}) {
      const std::size_t stride = d_head + 5;
      const std::size_t len = rows * stride;
      const auto q = rand_vec(d_head);
      const auto w = rand_vec(rows);
      const auto k8 = rand_codes(len, false);
      const auto klg = rand_codes(len, true);
      const auto z0 = rand_vec(d_head);
      const float s = 0.004f;
      const int exponent = -2;
      const std::string where = std::string(ops.name) +
                                " d_head=" + std::to_string(d_head) +
                                " rows=" + std::to_string(rows);
      std::vector<float> kdec(len), got(rows), want(rows);

      for (std::size_t i = 0; i < len; ++i) {
        kdec[i] = static_cast<float>(k8[i]) * s;
      }
      ops.dequant_scores_int8(q.data(), k8.data(), rows, stride, d_head, s,
                              0.5f, got.data());
      ops.attend_scores(q.data(), kdec.data(), rows, stride, d_head, 0.5f,
                        want.data());
      EXPECT_EQ(got, want) << where << " dequant_scores_int8";

      auto z_got = z0, z_want = z0;
      ops.dequant_accum_int8(w.data(), k8.data(), rows, stride, d_head, s,
                             z_got.data());
      ops.attend_accum(w.data(), kdec.data(), rows, stride, d_head,
                       z_want.data());
      EXPECT_EQ(z_got, z_want) << where << " dequant_accum_int8";

      for (std::size_t i = 0; i < len; ++i) {
        kdec[i] = kv_decode_log2(klg[i], exponent);
      }
      ops.dequant_scores_log2(q.data(), klg.data(), rows, stride, d_head,
                              exponent, 0.5f, got.data());
      ops.attend_scores(q.data(), kdec.data(), rows, stride, d_head, 0.5f,
                        want.data());
      EXPECT_EQ(got, want) << where << " dequant_scores_log2";

      z_got = z0;
      z_want = z0;
      ops.dequant_accum_log2(w.data(), klg.data(), rows, stride, d_head,
                             exponent, z_got.data());
      ops.attend_accum(w.data(), kdec.data(), rows, stride, d_head,
                       z_want.data());
      EXPECT_EQ(z_got, z_want) << where << " dequant_accum_log2";
    }
  }
}

TEST(KernelsFused, ScalarFusedEqualsGatherThenDotBitwise) {
  check_fused_bitwise(scalar_kernels());
}

TEST(KernelsFused, SimdFusedEqualsGatherThenDotBitwise) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  check_fused_bitwise(*simd);
}

// --- in-register decodes vs the scalar decode, every byte value -------------

TEST(KernelsFused, SimdLog2DecodeExactForAllByteValues) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  // One-hot probes through the fused dot: with a = e_i the dot returns
  // decode(codes[i]) exactly (single product in double, cast once).
  // Exponents cover normals, deep denormals (exponent - 127 down to -137),
  // and the flush-to-zero region.
  for (const int exponent : {-10, -3, 0, 7, 40}) {
    for (int b = 0; b < 256; ++b) {
      std::vector<std::int8_t> codes(8, static_cast<std::int8_t>(b));
      std::vector<float> a(8, 0.0f);
      a[3] = 1.0f;  // lands in the 8-wide vector body, not the tail
      const float got =
          simd->dequant_dot_log2(a.data(), codes.data(), 8, exponent);
      const float want = kv_decode_log2(static_cast<std::int8_t>(b), exponent);
      EXPECT_EQ(got, want) << "byte=" << b << " exponent=" << exponent;
    }
  }
}

TEST(KernelsFused, SimdInt8DecodeExactForAllCodes) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  for (const float s : {1.0f, 0.0371f, 3.25e-4f}) {
    for (int c = -127; c <= 127; ++c) {
      std::vector<std::int8_t> codes(8, static_cast<std::int8_t>(c));
      std::vector<float> a(8, 0.0f);
      a[5] = 1.0f;
      const float got = simd->dequant_dot_int8(a.data(), codes.data(), 8, s);
      const float want = static_cast<float>(c) * s;
      EXPECT_EQ(got, want) << "code=" << c << " s=" << s;
    }
  }
}

// --- golden bits: every entry of the x86 tables -----------------------------
// Fixed seeded inputs run through every kernel entry of a table (indexed by
// KernelKind, which lists them in KernelOps order); each entry's
// output bits are hashed with FNV-1a and compared against hashes recorded
// before the kernel bodies were shared between tables. Tolerance tests cannot
// show that a rewrite left every bit as it was; these hashes can.

struct GoldenTable {
  const char* table;
  std::uint64_t hash[kKernelKindCount];
};

// Recorded per table; a table without a row here (neon) is skipped.
constexpr GoldenTable kGolden[] = {
    {"scalar",
     {0x86615d0f0ddbbd4aull, 0xa0bb7a284f40833full, 0x218bbb0985710135ull,
      0xaf7a18bd3e0c33c7ull, 0x111e3168e9e972e4ull, 0x51b9b597910f443bull,
      0xd3d44ef98c7cfc88ull, 0xa52921902818ef41ull, 0xab485373dac6c925ull,
      0x918a37d79cd7f29eull, 0x98d542803df0c36dull, 0x7c47aa56b5a47498ull,
      0x5a3fd79a6de0b361ull}},
    {"avx2",
     {0x62a7e9de0922511aull, 0x578affe45b30fc91ull, 0x170919b9e32eff88ull,
      0x181c38d3d768e46eull, 0x3401c7ec23f7b327ull, 0x8dbb8070ae0e0a74ull,
      0xab2598beb26e6a15ull, 0xee08380a374f0b39ull, 0x032e464d899ba499ull,
      0x10cb710115669639ull, 0xc74953c32bbf4dcdull, 0x6478623bc343afe7ull,
      0x5a3fd79a6de0b361ull}},
};

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 4; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
    }
  }
  void add(const std::vector<float>& v) {
    for (const float x : v) add(x);
  }
};

using Hashes = std::array<std::uint64_t, kKernelKindCount>;

Hashes golden_hashes(const KernelOps& ops) {
  // A private generator: the hashes must not depend on test order.
  std::uint64_t state = 0x0123456789abcdefull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  // Magnitudes spread over 2^-24..2^24, so double sums round.
  const auto floats = [&](std::size_t n) {
    std::vector<float> v(n);
    for (auto& x : v) {
      const float m =
          static_cast<float>(next() & 0xffffff) / 0x1000000p0f * 2.0f - 1.0f;
      x = std::ldexp(m, static_cast<int>(next() % 49) - 24);
    }
    return v;
  };
  const auto codes = [&](std::size_t n, bool log2_mode) {
    std::vector<std::int8_t> v(n);
    for (auto& c : v) {
      const int byte = static_cast<int>(next() & 0xff);
      c = static_cast<std::int8_t>(log2_mode ? byte
                                             : std::max(byte - 128, -127));
    }
    return v;
  };
  // Mirrored halves, v[n-1-i] = flip(v[i]), against a symmetric operand make
  // each dot nearly cancel: what is left is rounding that depends on the
  // summation order, so a changed reduction shows in the float result.
  const auto mirror = [](auto* v, std::size_t n, auto flip) {
    for (std::size_t i = 0; i < n / 2; ++i) v[n - 1 - i] = flip(v[i]);
  };
  const auto same = [](float v) { return v; };
  const auto neg = [](float v) { return -v; };
  const auto neg_i8 = [](std::int8_t c) {
    return static_cast<std::int8_t>(-c);
  };
  const auto neg_log2 = [](std::int8_t c) {
    return static_cast<std::int8_t>(c ^ kKvLog2SignBit);
  };
  std::array<Fnv1a, kKernelKindCount> h{};
  const auto of = [&h](KernelKind kind) -> Fnv1a& {
    return h[static_cast<std::size_t>(kind)];
  };
  using K = KernelKind;
  const float s = 0.0173f;

  for (const std::size_t n : {1u, 7u, 8u, 13u, 20u, 37u, 64u, 100u}) {
    auto a = floats(n), b = floats(n);
    auto i8 = codes(n, false), lg = codes(n, true);
    mirror(a.data(), n, same);
    mirror(b.data(), n, neg);
    mirror(i8.data(), n, neg_i8);
    mirror(lg.data(), n, neg_log2);
    of(K::kDot).add(ops.dot(a.data(), b.data(), n));
    of(K::kDequantDotInt8).add(ops.dequant_dot_int8(a.data(), i8.data(), n, s));
    for (const int e : {-20, 4}) {
      of(K::kDequantDotLog2)
          .add(ops.dequant_dot_log2(a.data(), lg.data(), n, e));
    }
    auto y = b;
    ops.axpy(0.37f, a.data(), y.data(), n);
    of(K::kAxpy).add(y);
    ops.scale(1.73f, y.data(), n);
    of(K::kScale).add(y);
  }
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{5, 13},
                                  {16, 37}, {3, 64}, {9, 20}}) {
    auto w = floats(rows * cols), x = floats(cols);
    const auto xt = floats(rows);
    mirror(x.data(), cols, same);
    for (std::size_t r = 0; r < rows; r += 2) mirror(&w[r * cols], cols, neg);
    std::vector<float> y(rows), yt(cols);
    ops.matvec(w.data(), rows, cols, x.data(), y.data());
    ops.matvec_transposed(w.data(), rows, cols, xt.data(), yt.data());
    of(K::kMatvec).add(y);
    of(K::kMatvecTransposed).add(yt);
  }
  for (const std::size_t d_head : {13u, 20u, 64u}) {
    for (const std::size_t rows : {1u, 7u}) {
      const std::size_t stride = d_head + 3, len = rows * stride;
      auto q = floats(d_head), kv = floats(len);
      const auto w = floats(rows), z0 = floats(d_head);
      auto k8 = codes(len, false), klg = codes(len, true);
      mirror(q.data(), d_head, same);
      for (std::size_t r = 0; r < rows; r += 2) {
        mirror(&kv[r * stride], d_head, neg);
        mirror(&k8[r * stride], d_head, neg_i8);
        mirror(&klg[r * stride], d_head, neg_log2);
      }
      std::vector<float> out(rows);
      ops.attend_scores(q.data(), kv.data(), rows, stride, d_head, 0.125f,
                        out.data());
      of(K::kAttendScores).add(out);
      ops.dequant_scores_int8(q.data(), k8.data(), rows, stride, d_head, s,
                              0.125f, out.data());
      of(K::kDequantScoresInt8).add(out);
      auto z = z0;
      ops.attend_accum(w.data(), kv.data(), rows, stride, d_head, z.data());
      of(K::kAttendAccum).add(z);
      z = z0;
      ops.dequant_accum_int8(w.data(), k8.data(), rows, stride, d_head, s,
                             z.data());
      of(K::kDequantAccumInt8).add(z);
      for (const int e : {-20, 4}) {
        ops.dequant_scores_log2(q.data(), klg.data(), rows, stride, d_head, e,
                                0.125f, out.data());
        of(K::kDequantScoresLog2).add(out);
        z = z0;
        ops.dequant_accum_log2(w.data(), klg.data(), rows, stride, d_head, e,
                               z.data());
        of(K::kDequantAccumLog2).add(z);
      }
    }
  }
  Hashes out{};
  for (std::size_t i = 0; i < kKernelKindCount; ++i) out[i] = h[i].h;
  return out;
}

void check_golden_bits(const KernelOps& ops) {
  const GoldenTable* golden = nullptr;
  for (const GoldenTable& g : kGolden) {
    if (std::string(g.table) == ops.name) golden = &g;
  }
  if (golden == nullptr) GTEST_SKIP() << "no golden hashes for " << ops.name;
  const auto got = golden_hashes(ops);
  for (std::size_t i = 0; i < kKernelKindCount; ++i) {
    EXPECT_EQ(got[i], golden->hash[i])
        << ops.name << "." << to_string(static_cast<KernelKind>(i))
        << " hash 0x" << std::hex << got[i];
  }
}

TEST(KernelsGolden, ScalarBitsUnchanged) {
  check_golden_bits(scalar_kernels());
}

TEST(KernelsGolden, SimdBitsUnchanged) {
  const KernelOps* simd = simd_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD table on this CPU";
  check_golden_bits(*simd);
}

// --- end-to-end -------------------------------------------------------------

class KernelsEndToEnd : public ::testing::Test {
 protected:
  void TearDown() override {
    set_force_scalar_kernels(false);
    set_force_gather_attend(false);
  }

  static const SyntheticModel& tiny_model() {
    static const SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 2, 64),
                                      42);
    return model;
  }

  static std::vector<Request> requests() {
    return {
        Request{{3, 1, 4, 1, 5}, 8},
        Request{{2, 7}, 10},
        Request{{9, 2, 6, 5, 3, 5, 8}, 5},
    };
  }

  static std::vector<std::vector<std::size_t>> serve_tokens(
      const std::shared_ptr<const PreparedModel>& model) {
    ServingConfig scfg;
    scfg.max_batch = 3;
    ServingEngine engine(model, scfg);
    std::vector<RequestId> ids;
    for (const auto& req : requests()) ids.push_back(engine.submit(req));
    engine.run();
    std::vector<std::vector<std::size_t>> out;
    for (const auto id : ids) out.push_back(engine.result(id).tokens);
    return out;
  }
};

TEST_F(KernelsEndToEnd, ServingTokensMatchForcedScalarInEveryKvMode) {
  if (simd_kernels() == nullptr) {
    GTEST_SKIP() << "no SIMD table on this CPU";
  }
  for (const KvQuantMode mode :
       {KvQuantMode::kFp32, KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    EngineConfig cfg;
    cfg.max_seq_len = 32;
    cfg.kv_block_size = 4;
    cfg.kv_mode = mode;
    auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
    set_force_scalar_kernels(false);
    const auto simd_tokens = serve_tokens(model);
    set_force_scalar_kernels(true);
    const auto scalar_tokens = serve_tokens(model);
    EXPECT_EQ(simd_tokens, scalar_tokens) << to_string(mode);
  }
}

TEST_F(KernelsEndToEnd, FusedAttendMatchesForcedGatherBitwise) {
  // The engine-wide hook pins the pre-fusion reference; within one kernel
  // table the fused path must reproduce it bit for bit, in and out of
  // chunked prefill, while never materializing the fp32 gather scratch.
  for (const KvQuantMode mode : {KvQuantMode::kInt8, KvQuantMode::kLog2}) {
    EngineConfig cfg;
    cfg.max_seq_len = 48;
    cfg.kv_block_size = 4;
    cfg.kv_mode = mode;
    auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
    auto pool = model->make_kv_pool(2.0);
    SequenceState fused = model->make_sequence(pool);
    SequenceState gathered = model->make_sequence(pool);

    std::vector<std::size_t> prompt;
    for (std::size_t i = 0; i < 11; ++i) prompt.push_back((i * 29 + 5) % 64);

    model->prefill_chunk(fused, prompt);
    for (std::size_t i = 0; i < 9; ++i) model->step(fused, (i * 7) % 64);
    EXPECT_EQ(fused.gather_count(), 0u) << to_string(mode);

    set_force_gather_attend(true);
    model->prefill_chunk(gathered, prompt);
    for (std::size_t i = 0; i < 9; ++i) model->step(gathered, (i * 7) % 64);
    set_force_gather_attend(false);
    EXPECT_GT(gathered.gather_count(), 0u) << to_string(mode);

    const auto a = fused.logits();
    const auto b = gathered.logits();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << to_string(mode) << " logit " << i;
    }
  }
}

TEST_F(KernelsEndToEnd, PerSequenceForceGatherAlsoMatchesFused) {
  EngineConfig cfg;
  cfg.max_seq_len = 32;
  cfg.kv_block_size = 8;
  cfg.kv_mode = KvQuantMode::kInt8;
  auto model = std::make_shared<const PreparedModel>(tiny_model(), cfg);
  auto pool = model->make_kv_pool(2.0);
  SequenceState fused = model->make_sequence(pool);
  SequenceState gathered = model->make_sequence(pool);
  gathered.set_force_gather(true);
  for (std::size_t i = 0; i < 13; ++i) {
    model->step(fused, (i * 11 + 2) % 64);
    model->step(gathered, (i * 11 + 2) % 64);
  }
  EXPECT_EQ(fused.gather_count(), 0u);
  EXPECT_GT(gathered.gather_count(), 0u);
  const auto a = fused.logits();
  const auto b = gathered.logits();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "logit " << i;
  }
}

}  // namespace
}  // namespace opal
