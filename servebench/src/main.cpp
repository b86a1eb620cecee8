// OPAL serving benchmark.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--commit C] [--src-digest D] [--spans-dir DIR]
//
// Sets the workload's scheme up (synthesize, calibrate, prepare) several
// times, serves a fixed replay probe (which also warms the engine), then
// serves the workload's seeded request stream for S seconds of process CPU
// time (load.h) in whole rounds and checks every output off the clock.
// --trace 0 reports the end-to-end metrics; --trace 1 serves the stream for
// S/2 seconds, then the same stream again with the engine's tracer and
// kernel profiler on, and reports the per-layer metrics instead. The last
// line of standard output is the result JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/kernels.h"
#include "layers.h"
#include "llm/engine.h"
#include "load.h"
#include "workloads.h"

namespace {

using namespace opal;
using namespace servebench;

constexpr int kSetupReps = 5;
/// Seed of the replay probe: fixed, so its outcome is the same every run.
constexpr std::uint64_t kProbeSeed = 0x0BA1;
/// Requests per serve re-run through the serial reference.
constexpr std::size_t kReferenceChecks = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  std::string spans_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = val == "1";
    } else if (key == "--commit") {
      a.commit = val;
    } else if (key == "--src-digest") {
      a.src_digest = val;
    } else if (key == "--spans-dir") {
      a.spans_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !(a.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: servebench --workload NAME --seed N --seconds S --trace 0|1");
  }
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}


/// Everything a workload's serving needs, built from scratch. Timed on the
/// process CPU clock, like the serve (load.h).
struct Setup {
  std::unique_ptr<SyntheticModel> model;  // the prepared model refers to it
  std::shared_ptr<const PreparedModel> prepared;
  double total_s = 0.0, calibrate_s = 0.0, prepare_s = 0.0;
};

Setup set_up(const Workload& w) {
  Setup s;
  const double t0 = cpu_seconds();
  s.model = std::make_unique<SyntheticModel>(bench_model(), kModelSeed);
  const double t1 = cpu_seconds();
  calibrate_logit_scale(*s.model, 32, kModelSeed);
  CalibrationSet calibration;
  if (w.engine.weight_quant) {
    calibration = calibrate_model(*s.model, 64, kModelSeed);
  }
  const double t2 = cpu_seconds();
  s.prepared = std::make_shared<const PreparedModel>(
      *s.model, w.engine, w.engine.weight_quant ? &calibration : nullptr);
  const double t3 = cpu_seconds();
  s.calibrate_s = t2 - t1;
  s.prepare_s = t3 - t2;
  s.total_s = t3 - t0;
  return s;
}

/// Counted operations and correctness of one run.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

  void error(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

std::size_t wanted_tokens(const Request& r) {
  return r.sampling.max_new_tokens != 0 ? r.sampling.max_new_tokens
                                        : r.max_new_tokens;
}

/// The request served alone: one slot, no worker threads, chunk 1, no
/// prefix cache. The determinism contract says the batched stream equals it.
std::vector<std::size_t> serve_alone(const std::shared_ptr<const PreparedModel>& model,
                                     const Request& request) {
  ServingConfig cfg;
  cfg.max_batch = 1;
  cfg.n_threads = 0;
  cfg.prefill_chunk_tokens = 1;
  ServingEngine engine(model, cfg);
  const RequestId id = engine.submit(request);
  engine.run();
  return engine.result(id).tokens;
}

/// Output checks of one serve, off the clock. Every request is an
/// operation; a seeded sample of them is compared with the serial reference.
void check_serve(const Workload& w, const std::shared_ptr<const PreparedModel>& model,
                 const ServeResult& run, std::uint64_t seed, Tally& tally) {
  for (std::size_t i = 0; i < run.requests.size(); ++i) {
    const RequestRecord& r = run.requests[i];
    ++tally.attempted;
    if (!r.done || r.status != RequestStatus::kFinished ||
        r.generated != wanted_tokens(r.request)) {
      ++tally.failed;
      tally.error("request " + std::to_string(i) + " ended " +
                  to_string(r.status) + " with " + std::to_string(r.generated) +
                  " of " + std::to_string(wanted_tokens(r.request)) + " tokens");
    }
  }
  CounterRng pick = substream(seed, 0x5A3D'1E5ULL);
  const std::size_t n_ref = std::min(kReferenceChecks, run.requests.size());
  for (std::size_t c = 0; c < n_ref; ++c) {
    const std::size_t i = pick.next_u64() % run.requests.size();
    const RequestRecord& r = run.requests[i];
    if (serve_alone(model, r.request) != r.tokens) {
      tally.error("request " + std::to_string(i) +
                  " differs from the same request served alone");
    }
  }
  if (w.prefix_cache && run.stats.prefix_hit_tokens == 0) {
    tally.error("prefix cache never hit");
  }
}

/// The probe's replay checks, run once: each device's replay must conserve
/// the engine's fed rows and the committed tokens the benchmark counted, and
/// OPAL must spend less energy per token than BF16. The probe's inputs do
/// not depend on the run's seed, so neither does the outcome.
Tally check_probe_replay(const ServeResult& probe) {
  Tally out;
  std::vector<double> uj;
  for (const DeviceConfig& dev : replay_devices()) {
    const ReplayReport rep = replay_trace(dev, probe.trace);
    out.attempted += 2;
    if (rep.rows_fed != probe.stats.tokens_decoded) {
      ++out.failed;
      std::fprintf(stderr, "replay %s: rows_fed %zu != engine %zu\n",
                   rep.device.c_str(), rep.rows_fed, probe.stats.tokens_decoded);
    }
    if (rep.tokens_committed != probe.generated) {
      ++out.failed;
      std::fprintf(stderr, "replay %s: tokens_committed %zu != generated %zu\n",
                   rep.device.c_str(), rep.tokens_committed, probe.generated);
    }
    uj.push_back(rep.energy_j / static_cast<double>(probe.generated));
  }
  ++out.attempted;
  if (!(uj[2] < uj[0])) {
    ++out.failed;
    out.error("OPAL energy per token is not below BF16 on the probe");
  }
  return out;
}

/// Counts the probe's replay checks once per round served, so the share of
/// failed operations is the same in every run whatever its length.
void add_probe_checks(const Tally& probe, std::size_t rounds, Tally& tally) {
  tally.attempted += probe.attempted * rounds;
  tally.failed += probe.failed * rounds;
  tally.correct = tally.correct && probe.correct;
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " +
           num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Rates over the whole serve and nearest-rank percentiles over every raw
/// latency sample of it.
void end_to_end_metrics(const Workload& w, const ServeResult& run,
                        double setup_s, Metrics& out) {
  out.push_back({"setup_s", setup_s, "s"});
  out.push_back({"gen_tok_s", static_cast<double>(run.generated) / run.serve_s,
                 "tok/s"});
  out.push_back({"prompt_tok_s",
                 static_cast<double>(run.prompt_tokens) / run.serve_s, "tok/s"});
  out.push_back({"ttft_p50_ms", percentile(run.ttft_ms, 50.0), "ms"});
  out.push_back({"ttft_tail_ms", percentile(run.ttft_ms, w.ttft_tail_pct), "ms"});
  out.push_back({"itl_p50_ms", percentile(run.itl_ms, 50.0), "ms"});
  out.push_back({"itl_tail_ms", percentile(run.itl_ms, kItlTailPct), "ms"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

/// Sample counts against the fixed tail percentiles, and the KV counters.
void print_serve_summary(const Workload& w, const ServeResult& run) {
  const auto beyond = [](std::size_t n, double pct) {
    return static_cast<double>(n) * (1.0 - pct / 100.0);
  };
  std::printf("samples: %zu requests in %zu rounds over %.3f CPU s (%.3f s "
              "wall); ttft %zu "
              "(%.1f beyond p%g), itl %zu (%.1f beyond p%g)\n",
              run.requests.size(), run.rounds, run.serve_s, run.serve_wall_s,
              run.ttft_ms.size(),
              beyond(run.ttft_ms.size(), w.ttft_tail_pct), w.ttft_tail_pct,
              run.itl_ms.size(), beyond(run.itl_ms.size(), kItlTailPct),
              kItlTailPct);
  std::printf("kv: %.3f of prompt tokens restored, %zu preemptions, %zu "
              "blocks reclaimed, %zu blocks peak\n",
              static_cast<double>(run.stats.prefix_hit_tokens) /
                  static_cast<double>(run.prompt_tokens),
              run.stats.preemptions, run.stats.prefix_reclaimed_blocks,
              run.stats.blocks_peak);
}

int run(const Args& args) {
  const Workload& w = find_workload(args.workload);
  std::printf("fingerprint {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"cpu\": \"%s\", "
              "\"kernels\": \"%s\", \"hardware_threads\": %u, "
              "\"load_threads\": %zu, \"build_type\": \"%s\", "
              "\"commit\": \"%s\", \"src_digest\": \"%s\"}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              num(args.seconds).c_str(), args.trace ? 1 : 0,
              json_escape(cpu_model()).c_str(), kernels().name,
              std::thread::hardware_concurrency(), 1 + kDecodeWorkers,
              SERVEBENCH_BUILD_TYPE, json_escape(args.commit).c_str(),
              json_escape(args.src_digest).c_str());

  std::vector<double> setup_total, setup_cal, setup_prep;
  Setup setup;
  for (int i = 0; i < kSetupReps; ++i) {
    // Release the previous copy before building the next.
    setup.prepared.reset();
    setup.model.reset();
    setup = set_up(w);
    setup_total.push_back(setup.total_s);
    setup_cal.push_back(setup.calibrate_s);
    setup_prep.push_back(setup.prepare_s);
  }
  const auto& model = setup.prepared;

  Tally tally;
  ServeOptions probe_opt;
  probe_opt.traced = true;
  probe_opt.single_round = true;
  probe_opt.max_new_cap = 16;
  RequestStream probe_stream(w, kProbeSeed);
  const ServeResult probe = serve(w, model, probe_stream, probe_opt);
  const Tally probe_checks = check_probe_replay(probe);

  // A traced run serves twice (plain, then traced), each for half the run,
  // so it takes no longer than an untraced one.
  ServeOptions opt;
  opt.seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  RequestStream stream(w, args.seed);
  const ServeResult run = serve(w, model, stream, opt);
  print_serve_summary(w, run);
  check_serve(w, model, run, args.seed, tally);
  add_probe_checks(probe_checks, run.rounds, tally);

  Metrics metrics;
  if (!args.trace) {
    end_to_end_metrics(w, run, percentile(setup_total, 50.0), metrics);
  } else {
    opt.traced = true;
    RequestStream same(w, args.seed);
    const ServeResult traced = serve(w, model, same, opt);
    check_serve(w, model, traced, args.seed, tally);
    add_probe_checks(probe_checks, traced.rounds, tally);
    measure_layers(w, *model, traced, metrics);
    const auto value = [&](const std::string& name) {
      for (const Metric& m : metrics) {
        if (m.name == name) return m.value;
      }
      throw std::logic_error("missing metric " + name);
    };
    if (!(value("accel.opal_uj_per_tok") < value("accel.bf16_uj_per_tok"))) {
      tally.error("OPAL energy per token is not below BF16 on the traced "
                  "schedule");
    }
    metrics.push_back({"setup.calibrate_s", percentile(setup_cal, 50.0), "s"});
    metrics.push_back({"setup.prepare_s", percentile(setup_prep, 50.0), "s"});
    const double plain = static_cast<double>(run.generated) / run.serve_s;
    const double with = static_cast<double>(traced.generated) / traced.serve_s;
    metrics.push_back({"trace.overhead_pct", (plain - with) / plain * 100.0, "%"});
    if (!args.spans_dir.empty()) {
      const std::string path = args.spans_dir + "/" + w.name + "-seed" +
                               std::to_string(args.seed) + ".json";
      std::ofstream f(path);
      traced.spans.write_chrome(f);
      if (!f) throw std::runtime_error("cannot write " + path);
      std::printf("spans: %zu written to %s\n", traced.spans.spans().size(),
                  path.c_str());
    }
  }
  print_result(tally, metrics);
  return tally.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
