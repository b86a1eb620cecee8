// The two loop shapes the KernelOps entries are built from, and
// make_table<Isa>(), which assembles a whole table out of them (scale, an
// elementwise multiply, is the one entry outside both). Internal to the
// kernel TUs (kernels.cpp, kernels_avx2.cpp, kernels_neon.cpp).
//
// * dot shape:  float(sum_i a[i] * decode(b[i])), summed in double. Backs dot,
//   matvec, attend_scores and the dequant dot / scores kernels.
// * axpy shape: y[i] += w * decode(x[i]), in float. Backs axpy,
//   matvec_transposed, attend_accum and the dequant accum kernels.
//
// Each shape is templated over an element decoder (fp32 load, int8 code * s,
// log2 kv_decode_log2), so a fused dequant kernel runs the very loop its
// plain twin runs, on the very floats KvBlockPool::read_row gathers: within a
// table, fused == gather-then-plain holds by construction.
//
// An ISA shim is a struct with `kName` and `kSimd`. With kSimd false (the
// scalar reference) each shape is its sequential, source-order loop. With
// kSimd true each shape runs an 8-wide body and then that same sequential
// loop over the n % 8 tail, through these static primitives:
//
//   F8, Acc                          eight floats; the double accumulators
//   F8 load8(const float*)           unaligned load
//   void store8(float*, F8)          unaligned store
//   F8 set1(float)                   broadcast
//   F8 fma8(F8 x, F8 w, F8 y)        y + x * w, one rounding per lane
//   F8 mul8(F8, F8)
//   void dacc8(const float* a, F8 b, Acc&)   acc += a[0..7] * b in double
//   double hsum(Acc)
//   F8 decode8(const float*, F32Elems)       = load8
//   F8 decode8(const std::int8_t*, Int8Elems)
//   F8 decode8(const std::int8_t*, Log2Elems)
//
// Linkage: everything below sits in an anonymous namespace, so each kernel
// TU keeps its own copies compiled with its own ISA flags, and the linker
// can never hand an AVX2-compiled inline body to a caller on a CPU without
// AVX2.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/kernels.h"

namespace opal {
namespace {

// --- element decoders: one stored element -> the float read_row produces --

struct F32Elems {
  using Elem = float;
  float operator()(float v) const { return v; }
};

struct Int8Elems {
  using Elem = std::int8_t;
  float s;  // block amax / 127
  float operator()(std::int8_t c) const { return static_cast<float>(c) * s; }
};

struct Log2Elems {
  using Elem = std::int8_t;
  int exponent;  // block scale 2^exponent
  float operator()(std::int8_t c) const { return kv_decode_log2(c, exponent); }
};

// --- the shapes -------------------------------------------------------------

template <class Isa, class Dec>
float dot_shape(const float* a, const typename Dec::Elem* b, std::size_t n,
                Dec dec) {
  std::size_t i = 0;
  double acc = 0.0;
  if constexpr (Isa::kSimd) {
    typename Isa::Acc vacc{};
    for (; i + 8 <= n; i += 8) {
      Isa::dacc8(a + i, Isa::decode8(b + i, dec), vacc);
    }
    acc = Isa::hsum(vacc);
  }
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(dec(b[i]));
  }
  return static_cast<float>(acc);
}

template <class Isa, class Dec>
void axpy_shape(float w, const typename Dec::Elem* x, float* y, std::size_t n,
                Dec dec) {
  std::size_t i = 0;
  if constexpr (Isa::kSimd) {
    const typename Isa::F8 wv = Isa::set1(w);
    for (; i + 8 <= n; i += 8) {
      Isa::store8(y + i, Isa::fma8(Isa::decode8(x + i, dec), wv,
                                   Isa::load8(y + i)));
    }
  }
  for (; i < n; ++i) y[i] += w * dec(x[i]);
}

// --- KernelOps entries ------------------------------------------------------
// `Param...` is the decoder's block parameter (none, float s, int exponent),
// passed where KernelOps puts it and forwarded into Dec{Param...}.

template <class Isa, class Dec, class... Param>
float dot(const float* a, const typename Dec::Elem* b, std::size_t n,
          Param... p) {
  return dot_shape<Isa>(a, b, n, Dec{p...});
}

template <class Isa>
void matvec(const float* w, std::size_t rows, std::size_t cols, const float* x,
            float* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    y[r] = dot_shape<Isa>(w + r * cols, x, cols, F32Elems{});
  }
}

template <class Isa>
void matvec_transposed(const float* w, std::size_t rows, std::size_t cols,
                       const float* x, float* y) {
  for (std::size_t c = 0; c < cols; ++c) y[c] = 0.0f;
  for (std::size_t r = 0; r < rows; ++r) {
    axpy_shape<Isa>(x[r], w + r * cols, y, cols, F32Elems{});
  }
}

template <class Isa>
void axpy(float a, const float* x, float* y, std::size_t n) {
  axpy_shape<Isa>(a, x, y, n, F32Elems{});
}

template <class Isa>
void scale(float s, float* x, std::size_t n) {
  std::size_t i = 0;
  if constexpr (Isa::kSimd) {
    const typename Isa::F8 sv = Isa::set1(s);
    for (; i + 8 <= n; i += 8) {
      Isa::store8(x + i, Isa::mul8(Isa::load8(x + i), sv));
    }
  }
  for (; i < n; ++i) x[i] *= s;
}

template <class Isa, class Dec, class... Param>
void scores(const float* q, const typename Dec::Elem* k, std::size_t rows,
            std::size_t stride, std::size_t d_head, Param... p, float scale,
            float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = dot_shape<Isa>(q, k + r * stride, d_head, Dec{p...}) * scale;
  }
}

template <class Isa, class Dec, class... Param>
void accum(const float* w, const typename Dec::Elem* v, std::size_t rows,
           std::size_t stride, std::size_t d_head, Param... p, float* z) {
  for (std::size_t r = 0; r < rows; ++r) {
    axpy_shape<Isa>(w[r], v + r * stride, z, d_head, Dec{p...});
  }
}

template <class Isa>
constexpr KernelOps make_table() {
  return {
      Isa::kName,
      dot<Isa, F32Elems>,
      matvec<Isa>,
      matvec_transposed<Isa>,
      axpy<Isa>,
      scale<Isa>,
      scores<Isa, F32Elems>,
      accum<Isa, F32Elems>,
      dot<Isa, Int8Elems, float>,
      dot<Isa, Log2Elems, int>,
      scores<Isa, Int8Elems, float>,
      scores<Isa, Log2Elems, int>,
      accum<Isa, Int8Elems, float>,
      accum<Isa, Log2Elems, int>,
  };
}

}  // namespace
}  // namespace opal
