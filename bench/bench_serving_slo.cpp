// Serving SLO bench: open-loop arrivals against the full engine, latency
// read from the engine's own observability layer (serving.ttft_ms /
// serving.itl_ms histograms — the numbers a deployment would alert on).
//
// Unlike bench_scheduler (closed load: everything submitted up front), the
// request streams here are OPEN LOOP: arrival steps are fixed by a seeded
// schedule before serving begins, so a slow policy faces a growing queue
// instead of a conveniently waiting one. Arrival schedules are denominated
// in engine steps (deterministic: the same schedule replays bit-for-bit on
// any machine); the latencies measured under them are wall-clock.
//
// Scenarios:
//   chat-shared-history   — 12 chat turns over one 64-token shared history
//                           (prefix cache on), Poisson arrivals, every 3rd
//                           request interactive-priority;
//   long-prompt-short-ans — 10 summarization-shaped requests (120-token
//                           prompt, 4-token answer), Poisson arrivals;
//   short-prompt-long-ans — 12 generation-shaped requests (8-token prompt,
//                           24-token answer) in bursts of four.
//
// Each scenario runs under fifo / priority / fair-share (chunked prefill),
// and the per-policy p50/p95/p99 TTFT and inter-token latency are taken
// from ServingEngine::metrics() and persisted to BENCH_serving_slo.json
// (argv[1] overrides the path).
//
// Hardware-in-the-loop section: every scenario x policy run is traced
// (opal.step_trace/v2) and replayed through the accelerator device model
// (accel/replay.h) on the BF16, OWQ-W4, and OPAL devices, attributing
// energy per token, device latency, DRAM traffic, core area, and TOPS/W to
// each policy — and persisted to BENCH_hw_replay.json (argv[2] overrides
// the path). A fourth, repetitive scenario serves under n-gram speculative
// decoding and replays its trace so the per-device spec_saved_j
// attribution is exercised on bench traffic. A final profiled re-run
// (ServingConfig::profile) checks the kernel/phase profiler observes
// without steering.
//
// Asserted (exit 1): outputs bitwise identical across policies per
// scenario; histogram counts are exact (one TTFT sample per request, one
// ITL sample per non-first token); the serving.* counters mirror Stats;
// an untraced re-run of the first scenario produces bitwise identical
// outputs (observability never steers); replay is deterministic (same
// trace replayed twice -> byte-identical report JSON) and conserving
// (replayed rows == engine rows, replayed committed tokens == generated
// tokens, on every device); the serialized v2 trace replays
// identically to the in-process one; and the OPAL device beats BF16 on
// energy per token in every scenario under every policy.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accel/replay.h"
#include "common/kernel_profiler.h"
#include "eval/schemes.h"
#include "llm/drafter.h"
#include "llm/scheduler.h"
#include "llm/serving_engine.h"

namespace {

using namespace opal;

/// Deterministic LCG (Numerical Recipes constants): the schedule source.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
  /// Uniform in (0, 1].
  double uniform() {
    return (static_cast<double>(next() % 1000000) + 1.0) / 1000000.0;
  }
};

struct Arrival {
  std::size_t step = 0;  // engine step at which the request is submitted
  Request req;
};

struct Scenario {
  std::string name;
  std::string arrival;  // "poisson" | "bursty"
  bool prefix_cache = false;
  std::vector<Arrival> arrivals;
};

std::vector<std::size_t> poisson_steps(std::size_t n, double mean_gap,
                                       std::uint64_t seed) {
  Lcg rng(seed);
  std::vector<std::size_t> steps;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -mean_gap * std::log(rng.uniform());  // exponential inter-arrival
    steps.push_back(static_cast<std::size_t>(t));
  }
  return steps;
}

Scenario chat_shared_history() {
  Scenario s;
  s.name = "chat-shared-history";
  s.arrival = "poisson";
  s.prefix_cache = true;
  const auto steps = poisson_steps(12, 2.0, 101);
  for (std::size_t r = 0; r < steps.size(); ++r) {
    Arrival a;
    a.step = steps[r];
    for (std::size_t i = 0; i < 64; ++i) {
      a.req.prompt.push_back((i * 13 + 5) % 256);  // shared history
    }
    for (std::size_t i = 0; i < 8; ++i) {
      a.req.prompt.push_back((i * 29 + 7 * r + 3) % 256);  // this turn
    }
    a.req.max_new_tokens = 8;
    a.req.priority = r % 3 == 2 ? 1 : 0;  // every 3rd turn is interactive
    s.arrivals.push_back(std::move(a));
  }
  return s;
}

Scenario long_prompt_short_answer() {
  Scenario s;
  s.name = "long-prompt-short-ans";
  s.arrival = "poisson";
  const auto steps = poisson_steps(10, 4.0, 202);
  for (std::size_t r = 0; r < steps.size(); ++r) {
    Arrival a;
    a.step = steps[r];
    for (std::size_t i = 0; i < 120; ++i) {
      a.req.prompt.push_back((i * 17 + 11 * r + 1) % 256);
    }
    a.req.max_new_tokens = 4;
    a.req.priority = r % 2;
    s.arrivals.push_back(std::move(a));
  }
  return s;
}

Scenario short_prompt_long_answer() {
  Scenario s;
  s.name = "short-prompt-long-ans";
  s.arrival = "bursty";
  for (std::size_t r = 0; r < 12; ++r) {
    Arrival a;
    a.step = (r / 4) * 6;  // bursts of four, six steps apart
    for (std::size_t i = 0; i < 8; ++i) {
      a.req.prompt.push_back((i * 31 + 9 * r + 2) % 256);
    }
    a.req.max_new_tokens = 24;
    a.req.priority = r % 4 == 0 ? 1 : 0;
    s.arrivals.push_back(std::move(a));
  }
  return s;
}

/// Repetitive generation-shaped workload for the speculative section: each
/// prompt cycles one 8-token motif, so the prompt-lookup n-gram drafter
/// always finds a recurrence of the frontier context to propose from —
/// verify bursts fire on real serving traffic, not just unit tests.
Scenario repetitive_long_answer() {
  Scenario s;
  s.name = "speculative-ngram";
  s.arrival = "bursty";
  for (std::size_t r = 0; r < 8; ++r) {
    Arrival a;
    a.step = (r / 4) * 4;
    for (std::size_t i = 0; i < 32; ++i) {
      a.req.prompt.push_back(((i % 8) * 23 + 5 * r + 3) % 256);  // motif x4
    }
    a.req.max_new_tokens = 24;
    s.arrivals.push_back(std::move(a));
  }
  return s;
}

struct LatencySummary {
  std::uint64_t count = 0;
  double mean = 0.0, max = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

LatencySummary summarize(const MetricsRegistry::Snapshot& snap,
                         std::string_view name) {
  LatencySummary out;
  const auto* h = snap.find_histogram(name);
  if (h == nullptr) return out;
  out.count = h->count;
  out.mean = h->mean();
  out.max = h->max;
  out.p50 = h->p50;
  out.p95 = h->p95;
  out.p99 = h->p99;
  return out;
}

struct PolicyRun {
  std::string policy;
  std::size_t steps = 0;
  double seconds = 0.0;
  std::vector<std::vector<std::size_t>> tokens;  // per request
  std::size_t generated = 0;
  LatencySummary ttft, itl;
  ServingEngine::Stats stats;
  MetricsRegistry::Snapshot snap;
  StepTrace trace;         // only when traced
  std::string trace_json;  // serialized opal.step_trace/v2, only when traced
  KernelProfile profile;   // only when profiled
};

PolicyRun serve(const std::shared_ptr<const PreparedModel>& model,
                const Scenario& scenario,
                const std::shared_ptr<Scheduler>& policy, std::string name,
                bool trace = false, SpeculativeConfig speculative = {},
                bool profile = false) {
  using clock = std::chrono::steady_clock;
  PolicyRun out;
  out.policy = std::move(name);

  ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.prefill_chunk_tokens = 16;
  cfg.enable_prefix_cache = scenario.prefix_cache;
  cfg.scheduler = policy;
  cfg.trace = trace;
  cfg.speculative = speculative;
  cfg.profile = profile;

  ServingEngine engine(model, cfg);
  std::vector<RequestId> ids;
  std::size_t next = 0;
  const auto t0 = clock::now();
  // Open loop: requests land on their scheduled step whether or not the
  // engine has caught up; a step with nothing admitted and nothing running
  // still advances the arrival clock (an idle tick).
  while (next < scenario.arrivals.size() || engine.running() > 0 ||
         engine.queued() > 0) {
    while (next < scenario.arrivals.size() &&
           scenario.arrivals[next].step <= out.steps) {
      ids.push_back(engine.submit(scenario.arrivals[next].req));
      ++next;
    }
    engine.step();
    ++out.steps;
  }
  out.seconds = std::chrono::duration<double>(clock::now() - t0).count();

  for (const RequestId id : ids) {
    auto res = engine.result(id);
    out.generated += res.generated();
    out.tokens.push_back(std::move(res.tokens));
  }
  out.stats = engine.stats();
  out.snap = engine.metrics();
  out.ttft = summarize(out.snap, "serving.ttft_ms");
  out.itl = summarize(out.snap, "serving.itl_ms");
  if (trace) {
    out.trace = step_trace_from_tracer(engine.tracer());
    std::ostringstream ts;
    engine.tracer().write_step_trace(ts);
    out.trace_json = ts.str();
  }
  if (profile) out.profile = engine.profile();
  return out;
}

void emit_replay(std::ofstream& json, const ReplayReport& rep,
                 const char* tail) {
  json << "      {\"device\": \"" << rep.device
       << "\", \"energy_j\": " << rep.energy_j
       << ", \"energy_per_token_j\": " << rep.energy_per_token_j()
       << ", \"latency_s\": " << rep.latency_s
       << ", \"dram_bytes\": " << rep.dram_bytes
       << ", \"dram_bound_steps\": " << rep.dram_bound_steps
       << ", \"prefix_saved_j\": " << rep.prefix_saved_j
       << ", \"spec_saved_j\": " << rep.spec_saved_j
       << ", \"core_area_mm2\": " << rep.core_area_mm2
       << ", \"total_macs\": " << rep.total_macs
       << ", \"tops_per_watt\": " << rep.tops_per_watt() << "}" << tail
       << "\n";
}

/// Replay must commit exactly the tokens the engine generated, on every
/// device; prints each divergence.
bool tokens_conserved(const std::string& what,
                      const std::vector<ReplayReport>& reps,
                      std::size_t generated) {
  bool ok = true;
  for (const ReplayReport& rep : reps) {
    if (rep.tokens_committed != generated) {
      std::printf("ERROR: %s / %s replay committed %zu tokens, engine "
                  "generated %zu\n",
                  what.c_str(), rep.device.c_str(), rep.tokens_committed,
                  generated);
      ok = false;
    }
  }
  return ok;
}

void emit_latency(std::ofstream& json, const char* key,
                  const LatencySummary& l, const char* tail) {
  json << "      \"" << key << "\": {\"count\": " << l.count
       << ", \"mean\": " << l.mean << ", \"max\": " << l.max
       << ", \"p50\": " << l.p50 << ", \"p95\": " << l.p95
       << ", \"p99\": " << l.p99 << "}" << tail << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  SyntheticModel model(scaled_for_eval(llama2_7b(), 128, 3, 256), 7);
  calibrate_logit_scale(model, 24, 8);

  EngineConfig ecfg;
  ecfg.max_seq_len = 256;
  ecfg.kv_block_size = 16;
  ecfg.kv_mode = KvQuantMode::kInt8;
  auto prepared = std::make_shared<const PreparedModel>(model, ecfg);

  const std::vector<Scenario> scenarios = {
      chat_shared_history(), long_prompt_short_answer(),
      short_prompt_long_answer()};

  const std::string path =
      argc > 1 ? argv[1] : "BENCH_serving_slo.json";
  const std::string hw_path =
      argc > 2 ? argv[2] : "BENCH_hw_replay.json";
  std::ofstream json(path);
  json.precision(4);
  json << std::fixed << "{\n  \"bench\": \"serving_slo\",\n"
       << "  \"scenarios\": [\n";
  std::ofstream hw(hw_path);
  hw.precision(9);
  hw << "{\n  \"bench\": \"hw_replay\",\n"
     << "  \"trace_schema\": \"opal.step_trace/v2\",\n"
     << "  \"scenarios\": [\n";

  const std::vector<DeviceConfig> devices = {
      make_bf16_device(), make_owq_device(4), make_opal_device(4, 7, 4)};

  bool failed = false;
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const Scenario& sc = scenarios[si];
    std::vector<PolicyRun> runs;
    runs.push_back(serve(prepared, sc, std::make_shared<FifoScheduler>(),
                         "fifo", /*trace=*/true));
    runs.push_back(serve(prepared, sc, std::make_shared<PriorityScheduler>(),
                         "priority", /*trace=*/true));
    runs.push_back(serve(prepared, sc, std::make_shared<FairShareScheduler>(),
                         "fair-share", /*trace=*/true));

    std::printf("%s (%s arrivals, %zu requests)\n", sc.name.c_str(),
                sc.arrival.c_str(), sc.arrivals.size());
    std::printf("  %-12s %8s %9s %9s %9s %9s %9s %9s\n", "policy", "steps",
                "ttft p50", "ttft p95", "ttft p99", "itl p50", "itl p95",
                "itl p99");
    for (const auto& r : runs) {
      std::printf("  %-12s %8zu %7.2fms %7.2fms %7.2fms %7.2fms %7.2fms "
                  "%7.2fms\n",
                  r.policy.c_str(), r.steps, r.ttft.p50, r.ttft.p95,
                  r.ttft.p99, r.itl.p50, r.itl.p95, r.itl.p99);
    }
    std::printf("\n");

    // --- assertions ---
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (runs[i].tokens != runs[0].tokens) {
        std::printf("ERROR: %s / %s changed request outputs\n",
                    sc.name.c_str(), runs[i].policy.c_str());
        failed = true;
      }
    }
    for (const auto& r : runs) {
      // One TTFT sample per request, one ITL sample per non-first token.
      if (r.ttft.count != sc.arrivals.size() ||
          r.itl.count != r.generated - sc.arrivals.size()) {
        std::printf("ERROR: %s / %s histogram counts off: ttft %llu (want "
                    "%zu), itl %llu (want %zu)\n",
                    sc.name.c_str(), r.policy.c_str(),
                    static_cast<unsigned long long>(r.ttft.count),
                    sc.arrivals.size(),
                    static_cast<unsigned long long>(r.itl.count),
                    r.generated - sc.arrivals.size());
        failed = true;
      }
      // The counters the registry reports are the Stats fields, recounted.
      if (r.snap.counter_value("serving.steps") != r.stats.steps ||
          r.snap.counter_value("serving.tokens_decoded") !=
              r.stats.tokens_decoded ||
          r.snap.counter_value("serving.preemptions") !=
              r.stats.preemptions) {
        std::printf("ERROR: %s / %s metrics counters diverge from Stats\n",
                    sc.name.c_str(), r.policy.c_str());
        failed = true;
      }
    }

    json << "    {\"name\": \"" << sc.name << "\", \"arrival\": \""
         << sc.arrival << "\", \"requests\": " << sc.arrivals.size()
         << ",\n     \"policies\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      json << "    {\"policy\": \"" << r.policy << "\", \"steps\": "
           << r.steps << ", \"wall_s\": " << r.seconds
           << ", \"generated\": " << r.generated << ",\n";
      emit_latency(json, "ttft_ms", r.ttft, ",");
      emit_latency(json, "itl_ms", r.itl, "");
      json << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "     ]}" << (si + 1 < scenarios.size() ? "," : "") << "\n";

    // --- hardware-in-the-loop replay: re-cost each policy's trace on the
    // accelerator device model ---
    std::printf("  %-12s %10s %14s %12s %12s\n", "hw replay", "device",
                "energy/tok", "latency", "DRAM");
    hw << "    {\"name\": \"" << sc.name << "\", \"requests\": "
       << sc.arrivals.size() << ",\n     \"policies\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      if (r.trace.dropped_steps != 0) {
        std::printf("ERROR: %s / %s trace dropped %llu steps (ring too "
                    "small for the bench)\n",
                    sc.name.c_str(), r.policy.c_str(),
                    static_cast<unsigned long long>(r.trace.dropped_steps));
        failed = true;
      }
      std::vector<ReplayReport> reps;
      for (const DeviceConfig& dev : devices) {
        reps.push_back(replay_trace(dev, r.trace));
      }
      // Conservation: replay sees exactly the rows the engine fed.
      if (reps[0].rows_fed != r.stats.tokens_decoded ||
          reps[0].prefix_rows_restored != r.stats.prefix_hit_tokens) {
        std::printf("ERROR: %s / %s replay row accounting diverges from "
                    "engine Stats (%zu vs %zu rows)\n",
                    sc.name.c_str(), r.policy.c_str(), reps[0].rows_fed,
                    r.stats.tokens_decoded);
        failed = true;
      }
      failed |= !tokens_conserved(sc.name + " / " + r.policy, reps,
                                  r.generated);
      // Determinism + file round-trip: the serialized v2 trace replays to
      // the byte-identical report, twice.
      const StepTrace parsed = parse_step_trace(r.trace_json);
      const std::string once = replay_trace(devices[0], parsed).to_json();
      if (once != reps[0].to_json() ||
          once != replay_trace(devices[0], parsed).to_json()) {
        std::printf("ERROR: %s / %s replay not deterministic across "
                    "serialization\n",
                    sc.name.c_str(), r.policy.c_str());
        failed = true;
      }
      // The paper's point, end to end: OPAL spends less energy per
      // committed token than the BF16 baseline on the same trace.
      if (reps[2].energy_per_token_j() >= reps[0].energy_per_token_j()) {
        std::printf("ERROR: %s / %s OPAL energy/token %.3e !< BF16 %.3e\n",
                    sc.name.c_str(), r.policy.c_str(),
                    reps[2].energy_per_token_j(),
                    reps[0].energy_per_token_j());
        failed = true;
      }
      hw << "    {\"policy\": \"" << r.policy << "\", \"steps\": "
         << reps[0].n_steps << ", \"rows_fed\": " << reps[0].rows_fed
         << ", \"tokens_committed\": " << reps[0].tokens_committed
         << ", \"prefix_rows_restored\": " << reps[0].prefix_rows_restored
         << ", \"kv_bytes_written\": " << reps[0].kv_bytes_written
         << ",\n     \"devices\": [\n";
      for (std::size_t d = 0; d < reps.size(); ++d) {
        const ReplayReport& rep = reps[d];
        std::printf("  %-12s %10s %11.3e J %9.3e s %9.2f MB%s\n",
                    d == 0 ? r.policy.c_str() : "", rep.device.c_str(),
                    rep.energy_per_token_j(), rep.latency_s,
                    rep.dram_bytes / 1e6,
                    rep.dram_bound_steps == rep.n_steps ? "  (DRAM-bound)"
                                                        : "");
        emit_replay(hw, rep, d + 1 < reps.size() ? "," : "");
      }
      hw << "     ]}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    hw << "     ]},\n";  // the speculative scenario below closes the array
    std::printf("\n");
  }
  json << "  ]\n}\n";
  json.close();

  // --- speculative scenario: n-gram self-drafting served end to end, then
  // replayed through the devices so spec_saved_j attribution is exercised
  // on bench traffic, not just unit fixtures ---
  {
    const Scenario sc = repetitive_long_answer();
    const auto base = serve(prepared, sc, std::make_shared<FifoScheduler>(),
                            "fifo", /*trace=*/true);
    SpeculativeConfig spec;
    spec.policy = DraftPolicy::kNgram;
    const auto specrun = serve(prepared, sc,
                               std::make_shared<FifoScheduler>(),
                               "fifo+ngram", /*trace=*/true, spec);
    // Verified speculation is lossless: committed tokens are the greedy
    // continuation, bitwise.
    if (specrun.tokens != base.tokens) {
      std::printf("ERROR: n-gram speculation changed request outputs\n");
      failed = true;
    }
    if (specrun.stats.spec_bursts == 0) {
      std::printf("ERROR: speculative scenario fired no verify bursts\n");
      failed = true;
    }
    std::printf("%s: %zu bursts, %zu/%zu drafts accepted, %.2f tokens/"
                "burst\n",
                sc.name.c_str(), specrun.stats.spec_bursts,
                specrun.stats.spec_accepted, specrun.stats.spec_drafted,
                specrun.stats.tokens_per_burst());
    std::printf("  %-12s %10s %14s %14s\n", "hw replay", "device",
                "energy/tok", "spec saved");
    hw << "    {\"name\": \"" << sc.name << "\", \"requests\": "
       << sc.arrivals.size() << ",\n     \"policies\": [\n";
    std::vector<ReplayReport> reps;
    for (const DeviceConfig& dev : devices) {
      reps.push_back(replay_trace(dev, specrun.trace));
    }
    failed |= !tokens_conserved(sc.name + " / " + specrun.policy, reps,
                                specrun.generated);
    hw << "    {\"policy\": \"" << specrun.policy << "\", \"steps\": "
       << reps[0].n_steps << ", \"rows_fed\": " << reps[0].rows_fed
       << ", \"tokens_committed\": " << reps[0].tokens_committed
       << ", \"prefix_rows_restored\": " << reps[0].prefix_rows_restored
       << ", \"kv_bytes_written\": " << reps[0].kv_bytes_written
       << ",\n     \"devices\": [\n";
    for (std::size_t d = 0; d < reps.size(); ++d) {
      const ReplayReport& rep = reps[d];
      // The burst passes must surface in the attribution: a verify burst
      // never costs exactly what its committed tokens would as decodes.
      if (rep.spec_saved_j == 0.0) {
        std::printf("ERROR: %s replay attributed no speculative delta\n",
                    rep.device.c_str());
        failed = true;
      }
      std::printf("  %-12s %10s %11.3e J %12.3e J\n",
                  d == 0 ? specrun.policy.c_str() : "", rep.device.c_str(),
                  rep.energy_per_token_j(), rep.spec_saved_j);
      emit_replay(hw, rep, d + 1 < reps.size() ? "," : "");
    }
    hw << "     ]}\n     ]}\n";
    std::printf("\n");
  }
  hw << "  ]\n}\n";
  hw.close();

  // --- profiled re-run: the always-on attribution layer must observe
  // without steering — outputs bitwise identical to the silent run, and the
  // kernel/phase tallies it reports must be non-empty ---
  {
    const auto plain = serve(prepared, scenarios[0],
                             std::make_shared<FifoScheduler>(), "fifo");
    const auto profiled = serve(prepared, scenarios[0],
                                std::make_shared<FifoScheduler>(), "fifo",
                                /*trace=*/false, SpeculativeConfig{},
                                /*profile=*/true);
    if (profiled.tokens != plain.tokens) {
      std::printf("ERROR: profiling changed request outputs\n");
      failed = true;
    }
    const KernelProfile& prof = profiled.profile;
    if (prof.total_kernel_calls() == 0 ||
        prof.phases[static_cast<std::size_t>(LayerPhase::kAttend)].calls ==
            0) {
      std::printf("ERROR: profiled run recorded no kernel/phase activity\n");
      failed = true;
    }
    std::printf("profiled re-run (%s): %llu kernel calls, "
                "%.1f ms attributed\n\n",
                scenarios[0].name.c_str(),
                static_cast<unsigned long long>(prof.total_kernel_calls()),
                static_cast<double>(prof.total_kernel_ns()) * 1e-6);
  }

  // Untraced re-run of the first scenario: the main runs above were traced
  // (the replay section needs the step trace) — observability must not
  // have steered them.
  {
    const auto plain = serve(prepared, scenarios[0],
                             std::make_shared<FifoScheduler>(), "fifo");
    const auto traced = serve(prepared, scenarios[0],
                              std::make_shared<FifoScheduler>(), "fifo",
                              /*trace=*/true);
    if (traced.tokens != plain.tokens) {
      std::printf("ERROR: tracing changed request outputs\n");
      failed = true;
    }
  }

  if (failed) return 1;
  std::printf("PASS: serving SLO bench — outputs bitwise identical across "
              "policies and under tracing, speculation, and profiling; "
              "per-policy TTFT/ITL percentiles written to %s\n",
              path.c_str());
  std::printf("PASS: hw replay — deterministic across serialization, row "
              "and token accounting conserved, OPAL < BF16 energy/token in "
              "every scenario under every policy, speculative savings "
              "attributed; "
              "per-policy attribution written to %s\n",
              hw_path.c_str());
  return 0;
}
