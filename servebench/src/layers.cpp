#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "common/kernels.h"
#include "llm/sequence_state.h"
#include "quant/mx_opal.h"
#include "softmax/softmax.h"

namespace servebench {

using namespace opal;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kReps = 7;  // repetitions per timing; the median is reported

/// Median wall time of `reps` calls of fn(), in seconds.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return percentile(t, 50.0);
}

/// Keeps a value observable so a timed loop is not optimized away.
volatile float g_sink = 0.0f;

/// Records every activation row the model produces, up to a cap.
class RowRecorder final : public ActivationRecorder {
 public:
  void record(std::size_t, RecordSite, std::span<const float> values) override {
    if (rows.size() < kMaxRows) rows.emplace_back(values.begin(), values.end());
  }
  static constexpr std::size_t kMaxRows = 4096;
  std::vector<std::vector<float>> rows;
};

/// Decode-pass KV depths (positions attended) seen in the traced schedule.
std::vector<double> decode_depths(const StepTrace& trace) {
  std::vector<double> depths;
  for (const TraceStep& s : trace.steps) {
    for (const TracePass& p : s.passes) {
      if (p.kind == TraceEventKind::kDecode) {
        depths.push_back(static_cast<double>(p.pos + 1));
      }
    }
  }
  if (depths.empty()) throw std::logic_error("traced serve ran no decodes");
  return depths;
}

/// A token sequence of length n from the traced requests' streams.
std::vector<std::size_t> sample_tokens(const ServeResult& traced,
                                       std::size_t n) {
  std::vector<std::size_t> out;
  for (const RequestRecord& r : traced.requests) {
    for (const std::size_t t : r.tokens) {
      if (out.size() == n) return out;
      out.push_back(t);
    }
  }
  if (out.empty()) throw std::logic_error("traced serve produced no tokens");
  for (std::size_t i = 0; out.size() < n; ++i) {
    const std::size_t t = out[i];
    out.push_back(t);
  }
  return out;
}

void prefill_to(const PreparedModel& model, SequenceState& seq,
                std::span<const std::size_t> tokens, std::size_t chunk) {
  for (std::size_t i = 0; i < tokens.size(); i += chunk) {
    const std::size_t n = std::min(chunk, tokens.size() - i);
    (void)model.prefill_chunk(seq, tokens.subspan(i, n));
  }
}

void measure_model(const PreparedModel& model, const ServeResult& traced,
                   Metrics& out) {
  const std::size_t depth = static_cast<std::size_t>(
      percentile(decode_depths(traced.trace), 50.0));
  constexpr std::size_t kSteps = 16;
  const std::vector<std::size_t> tokens =
      sample_tokens(traced, depth + std::max(kSteps, kPrefillChunk));
  KvBlockPool pool = model.make_kv_pool(1.0);
  SequenceState seq = model.make_sequence(pool);
  const std::span<const std::size_t> toks(tokens);
  prefill_to(model, seq, toks.first(depth), kPrefillChunk);

  const double decode_s = median_seconds(kReps, [&] {
    for (std::size_t i = 0; i < kSteps; ++i) {
      g_sink = model.step(seq, tokens[depth + i])[0];
    }
    seq.truncate(depth);
  });
  out.push_back({"model.decode_us_per_row",
                 decode_s * 1e6 / static_cast<double>(kSteps), "us"});

  const double prefill_s = median_seconds(kReps, [&] {
    g_sink = model.prefill_chunk(seq, toks.subspan(depth, kPrefillChunk))[0];
    seq.truncate(depth);
  });
  out.push_back({"model.prefill_us_per_row",
                 prefill_s * 1e6 / static_cast<double>(kPrefillChunk), "us"});

  static constexpr const char* kPhases[] = {"norm", "qkv", "attend", "ffn",
                                            "logits"};
  const double rows = static_cast<double>(traced.stats.tokens_decoded);
  for (std::size_t p = 0; p < kLayerPhaseCount; ++p) {
    out.push_back({std::string("model.phase.") + kPhases[p] + "_ns_per_row",
                   static_cast<double>(traced.profile.phases[p].ns) / rows,
                   "ns"});
  }
}

/// One decode row's matvecs over distinct buffers shaped like the model's
/// weights (~10 MB in all), so each pass streams them the way serving does.
void measure_kernels(const PreparedModel& model, const ServeResult& traced,
                     Metrics& out) {
  const ModelConfig& mc = model.model_config();
  struct Shape {
    std::size_t rows, cols;
  };
  std::vector<Shape> shapes;
  for (std::size_t l = 0; l < mc.n_layers; ++l) {
    for (int i = 0; i < 4; ++i) shapes.push_back({mc.d_model, mc.d_model});
    shapes.push_back({mc.d_ffn, mc.d_model});
    shapes.push_back({mc.d_model, mc.d_ffn});
  }
  shapes.push_back({mc.vocab, mc.d_model});
  Rng rng = make_rng(11);
  std::vector<std::vector<float>> weights;
  double flops = 0.0, bytes = 0.0;
  for (const Shape& s : shapes) {
    weights.emplace_back(s.rows * s.cols);
    fill_gaussian(rng, weights.back(), 0.0f, 0.05f);
    flops += 2.0 * static_cast<double>(s.rows * s.cols);
    bytes += 4.0 * static_cast<double>(s.rows * s.cols + s.rows + s.cols);
  }
  std::vector<float> x(std::max(mc.d_ffn, mc.d_model), 0.5f);
  std::vector<float> y(std::max(mc.vocab, mc.d_ffn));
  const KernelOps& ops = kernels();
  auto pass = [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      ops.matvec(weights[i].data(), shapes[i].rows, shapes[i].cols, x.data(),
                 y.data());
    }
    g_sink = y[0];
  };
  const double s = median_seconds(15, pass);
  out.push_back({"kernels.matvec_gflops", flops / s * 1e-9, "GFLOP/s"});
  out.push_back({"kernels.matvec_gbs", bytes / s * 1e-9, "GB/s"});

  // Fused int8 attention (scores + weighted value sum, every head) over one
  // layer's KV at the median decode depth.
  const auto depth = static_cast<std::size_t>(
      percentile(decode_depths(traced.trace), 50.0));
  std::vector<std::int8_t> k_codes(depth * mc.d_model), v_codes(depth * mc.d_model);
  for (std::size_t i = 0; i < k_codes.size(); ++i) {
    k_codes[i] = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
    v_codes[i] = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
  }
  std::vector<float> q(mc.d_model, 0.1f), scores(depth), z(mc.d_model);
  const std::size_t d_head = mc.d_head();
  const double attend_s = median_seconds(15, [&] {
    for (std::size_t h = 0; h < mc.n_heads; ++h) {
      const std::size_t base = h * d_head;
      ops.dequant_scores_int8(q.data() + base, k_codes.data() + base, depth,
                              mc.d_model, d_head, 0.01f, 0.125f, scores.data());
      ops.dequant_accum_int8(scores.data(), v_codes.data() + base, depth,
                             mc.d_model, d_head, 0.01f, z.data() + base);
    }
    g_sink = z[0];
  });
  out.push_back({"kernels.attend_ns_per_kv_row",
                 attend_s * 1e9 / static_cast<double>(depth), "ns"});
}

/// MX-OPAL quantize-dequantize at every activation width, on rows recorded
/// from the workload's own requests.
void measure_quant(const PreparedModel& model, const ServeResult& traced,
                   Metrics& out) {
  RowRecorder rec;
  const std::vector<std::size_t> tokens = sample_tokens(traced, 64);
  KvBlockPool pool = model.make_kv_pool(1.0);
  SequenceState seq = model.make_sequence(pool);
  (void)model.prefill_chunk(seq, std::span<const std::size_t>(tokens).first(48),
                            &rec);
  for (std::size_t i = 48; i < tokens.size(); ++i) {
    (void)model.step(seq, tokens[i], &rec);
  }
  double elems = 0.0;
  std::size_t widest = 0;
  for (const auto& r : rec.rows) {
    elems += static_cast<double>(r.size());
    widest = std::max(widest, r.size());
  }
  std::vector<float> buf(widest);
  for (const int bits : {3, 4, 5, 7}) {
    const MxOpalQuantizer q(128, bits, 4);
    const double s = median_seconds(kReps, [&] {
      for (const auto& r : rec.rows) {
        q.quantize_dequantize(r, std::span<float>(buf).first(r.size()));
      }
      g_sink = buf[0];
    });
    out.push_back({"quant.mx_opal_a" + std::to_string(bits) + "_ns_per_elem",
                   s * 1e9 / elems, "ns"});
  }
}

/// Both softmax units on score rows at the KV depths the traced decodes saw.
void measure_softmax(const Workload& w, const ServeResult& traced,
                     Metrics& out) {
  std::vector<double> depths = decode_depths(traced.trace);
  std::sort(depths.begin(), depths.end());
  Rng rng = make_rng(13);
  std::vector<std::vector<float>> rows;
  double scores = 0.0;
  constexpr std::size_t kRows = 64;
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::size_t len = static_cast<std::size_t>(
        depths[(2 * i + 1) * depths.size() / (2 * kRows)]);
    rows.emplace_back(len);
    fill_gaussian(rng, rows.back(), 0.0f, 2.0f);
    scores += static_cast<double>(len);
  }
  std::vector<float> probs(static_cast<std::size_t>(depths.back()));
  const Log2SoftmaxConfig cfg{w.engine.softmax_bits};
  const double log2_s = median_seconds(kReps, [&] {
    for (const auto& r : rows) g_sink = log2_softmax_unit(r, cfg)[0];
  });
  const double ref_s = median_seconds(kReps, [&] {
    for (const auto& r : rows) {
      softmax_reference(r, std::span<float>(probs).first(r.size()));
    }
    g_sink = probs[0];
  });
  out.push_back({"softmax.log2_ns_per_score", log2_s * 1e9 / scores, "ns"});
  out.push_back({"softmax.ref_ns_per_score", ref_s * 1e9 / scores, "ns"});
}

void measure_accel(const ServeResult& traced, Metrics& out) {
  static constexpr const char* kNames[] = {"bf16", "owq", "opal"};
  const std::vector<DeviceConfig> devices = replay_devices();
  const double tokens = static_cast<double>(traced.generated);
  for (std::size_t d = 0; d < devices.size(); ++d) {
    ReplayReport rep;
    const double s = median_seconds(3, [&] {
      rep = replay_trace(devices[d], traced.trace);
    });
    out.push_back({std::string("accel.") + kNames[d] + "_uj_per_tok",
                   rep.energy_j / tokens * 1e6, "uJ"});
    if (d + 1 == devices.size()) {
      out.push_back({"accel.replay_us_per_step",
                     s * 1e6 / static_cast<double>(rep.n_steps), "us"});
      std::printf("replay of the traced schedule on %s: %zu tokens "
                  "committed, %zu generated\n",
                  rep.device.c_str(), rep.tokens_committed, traced.generated);
    }
  }
}

}  // namespace

std::vector<DeviceConfig> replay_devices() {
  return {make_bf16_device(), make_owq_device(4), make_opal_device(4, 7, 4)};
}

void measure_layers(const Workload& w, const PreparedModel& model,
                    const ServeResult& traced, Metrics& out) {
  const auto& st = traced.stats;
  double needed = 0.0;  // positions each request had to materialize
  for (const RequestRecord& r : traced.requests) {
    needed += static_cast<double>(r.request.prompt.size() + r.generated - 1);
  }
  out.push_back({"serving.step_ms_p50", percentile(traced.step_ms, 50.0), "ms"});
  out.push_back({"serving.step_ms_tail", percentile(traced.step_ms, 99.0), "ms"});
  out.push_back({"serving.rows_per_step",
                 static_cast<double>(st.tokens_decoded) /
                     static_cast<double>(st.steps),
                 "rows"});
  out.push_back({"serving.wasted_rows",
                 static_cast<double>(st.tokens_decoded + st.prefix_hit_tokens) -
                     needed,
                 "rows"});
  out.push_back({"serving.backlog_max",
                 static_cast<double>(traced.backlog_max), "requests"});
  out.push_back({"serving.submit_lag_ms_tail",
                 percentile(traced.submit_lag_ms, w.ttft_tail_pct), "ms"});
  // CPU time over wall time of the serve: below 1 when the serving thread
  // waits or the host gives its core to something else.
  out.push_back({"serving.cpu_share", traced.serve_s / traced.serve_wall_s,
                 "ratio"});

  measure_model(model, traced, out);
  measure_kernels(model, traced, out);
  measure_quant(model, traced, out);
  measure_softmax(w, traced, out);

  out.push_back({"kv.prefix_hit_ratio",
                 static_cast<double>(st.prefix_hit_tokens) /
                     static_cast<double>(traced.prompt_tokens),
                 "ratio"});
  out.push_back({"kv.reclaimed_blocks",
                 static_cast<double>(st.prefix_reclaimed_blocks), "blocks"});
  out.push_back({"kv.preemptions", static_cast<double>(st.preemptions),
                 "count"});
  out.push_back({"kv.blocks_peak", static_cast<double>(st.blocks_peak),
                 "blocks"});

  measure_accel(traced, out);

  // Self time per row fed (prompt and generated positions alike).
  const double per_row = 1e6 / static_cast<double>(st.tokens_decoded);
  out.push_back({"self.bench_us_per_row", traced.bench_self_s * per_row, "us"});
  out.push_back({"self.serving_us_per_row", traced.serving_self_s * per_row, "us"});
  out.push_back({"self.model_us_per_row", traced.model_self_s * per_row, "us"});
  out.push_back({"self.kernels_us_per_row", traced.kernels_self_s * per_row, "us"});
}

}  // namespace servebench
