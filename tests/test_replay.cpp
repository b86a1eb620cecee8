// Hardware-in-the-loop replay invariants: a batched step degenerates to
// simulate_token bitwise, batching amortizes weight streaming, per-sequence
// attribution sums to the step totals, replay is deterministic and
// conserves the trace's row/KV accounting, the v2 JSON round-trips to the
// in-process replay, and malformed traces are rejected with useful errors.
#include "accel/replay.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/device.h"
#include "eval/schemes.h"
#include "llm/kv_block_pool.h"
#include "llm/serving_engine.h"

namespace opal {
namespace {

ModelConfig tiny_config() { return scaled_for_eval(llama2_7b(), 128, 2, 64); }

const SyntheticModel& tiny_model() {
  static const SyntheticModel model(tiny_config(), 42);
  return model;
}

std::shared_ptr<const PreparedModel> prepared() {
  EngineConfig cfg;
  cfg.max_seq_len = 64;
  cfg.kv_block_size = 8;
  cfg.kv_mode = KvQuantMode::kInt8;
  return std::make_shared<const PreparedModel>(tiny_model(), cfg);
}

std::vector<Request> workload() {
  std::vector<std::size_t> prefix;
  for (std::size_t i = 0; i < 8; ++i) prefix.push_back((i * 11 + 5) % 64);
  std::vector<Request> requests;
  const std::size_t tails[4] = {3, 50, 17, 61};
  const std::size_t gens[4] = {6, 9, 4, 12};
  for (std::size_t r = 0; r < 4; ++r) {
    Request req;
    req.prompt = prefix;
    req.prompt.push_back(tails[r]);
    req.max_new_tokens = gens[r];
    requests.push_back(std::move(req));
  }
  return requests;
}

std::vector<DeviceConfig> all_devices() {
  return {make_bf16_device(), make_owq_device(4), make_opal_device(4, 7, 4)};
}

// --- simulate_step -----------------------------------------------------

TEST(SimulateStep, SingleDecodeMatchesSimulateTokenBitwise) {
  const ModelConfig model = tiny_config();
  for (const DeviceConfig& dev : all_devices()) {
    for (const std::size_t pos : {std::size_t{0}, std::size_t{17},
                                  std::size_t{63}}) {
      StepComposition one;
      one.seqs.push_back({1, pos, 1});
      const StepReport step = simulate_step(dev, model, one);
      const TokenReport token = simulate_token(dev, model, pos + 1);
      // Identical op list and accumulation order: bitwise, not approximate.
      EXPECT_EQ(step.totals.latency_s, token.latency_s) << dev.name;
      EXPECT_EQ(step.totals.core_energy_j, token.core_energy_j) << dev.name;
      EXPECT_EQ(step.totals.mem_access_j, token.mem_access_j) << dev.name;
      EXPECT_EQ(step.totals.weight_leak_j, token.weight_leak_j) << dev.name;
      EXPECT_EQ(step.totals.act_leak_j, token.act_leak_j) << dev.name;
      EXPECT_EQ(step.totals.total_macs, token.total_macs) << dev.name;
      ASSERT_EQ(step.seqs.size(), 1u);
      // A single pass owns everything (up to fp rounding on shared splits,
      // which are exact here because its share is rows/rows == 1).
      EXPECT_NEAR(step.seqs[0].energy_j, step.totals.total_j(),
                  1e-12 * step.totals.total_j());
    }
  }
}

TEST(SimulateStep, BatchingAmortizesWeightStreaming) {
  const ModelConfig model = tiny_config();
  for (const DeviceConfig& dev : all_devices()) {
    StepComposition single;
    single.seqs.push_back({1, 30, 1});
    const StepReport one = simulate_step(dev, model, single);
    StepComposition batch;
    batch.seqs.push_back({1, 30, 1});
    batch.seqs.push_back({2, 30, 1});
    const StepReport two = simulate_step(dev, model, batch);
    // Weights stream once for the whole batch: two decodes in one step
    // move strictly less DRAM and finish strictly faster than two steps.
    EXPECT_LT(two.dram_bytes, 2.0 * one.dram_bytes) << dev.name;
    EXPECT_LT(two.totals.latency_s, 2.0 * one.totals.latency_s) << dev.name;
    EXPECT_LT(two.totals.total_j(), 2.0 * one.totals.total_j()) << dev.name;
    // But the batch cannot be cheaper than one decode alone.
    EXPECT_GT(two.totals.total_j(), one.totals.total_j()) << dev.name;
  }
}

TEST(SimulateStep, AttributionSumsToStepTotals) {
  const ModelConfig model = tiny_config();
  StepComposition mixed;
  mixed.seqs.push_back({1, 0, 8});   // prefill chunk
  mixed.seqs.push_back({2, 20, 1});  // decode
  mixed.seqs.push_back({3, 10, 3});  // spec-verify burst
  for (const DeviceConfig& dev : all_devices()) {
    const StepReport step = simulate_step(dev, model, mixed);
    ASSERT_EQ(step.seqs.size(), 3u);
    double energy = 0.0, latency = 0.0, dram = 0.0;
    for (const SeqStepCost& c : step.seqs) {
      EXPECT_GT(c.energy_j, 0.0) << dev.name;
      energy += c.energy_j;
      latency += c.latency_s;
      dram += c.dram_bytes;
    }
    EXPECT_NEAR(energy, step.totals.total_j(), 1e-9 * step.totals.total_j())
        << dev.name;
    EXPECT_NEAR(latency, step.totals.latency_s,
                1e-9 * step.totals.latency_s)
        << dev.name;
    EXPECT_NEAR(dram, step.dram_bytes, 1e-9 * step.dram_bytes) << dev.name;
    // The chunk feeds 8 of 12 rows and must carry the largest share.
    EXPECT_GT(step.seqs[0].energy_j, step.seqs[1].energy_j) << dev.name;
    EXPECT_GT(step.seqs[0].energy_j, step.seqs[2].energy_j) << dev.name;
  }
}

TEST(SimulateStep, EmptyCompositionCostsNothing) {
  const StepReport r =
      simulate_step(make_opal_device(4, 7, 4), tiny_config(), {});
  EXPECT_EQ(r.totals.latency_s, 0.0);
  EXPECT_EQ(r.totals.total_j(), 0.0);
  EXPECT_EQ(r.dram_bytes, 0.0);
  EXPECT_TRUE(r.seqs.empty());
}

// --- replay from a live engine ----------------------------------------

struct TracedRun {
  StepTrace trace;
  ServingEngine::Stats stats;
  std::string trace_json;
};

TracedRun traced_run(ServingConfig cfg) {
  cfg.trace = true;
  ServingEngine engine(prepared(), cfg);
  for (const auto& req : workload()) engine.submit(req);
  engine.run();
  TracedRun out;
  out.trace = step_trace_from_tracer(engine.tracer());
  out.stats = engine.stats();
  std::ostringstream json;
  engine.tracer().write_step_trace(json);
  out.trace_json = json.str();
  return out;
}

ServingConfig stressed_config() {
  ServingConfig cfg;
  cfg.max_batch = 3;
  cfg.prefill_chunk_tokens = 4;
  cfg.enable_prefix_cache = true;
  return cfg;
}

TEST(Replay, DeterministicAndConserving) {
  const TracedRun run = traced_run(stressed_config());
  ASSERT_EQ(run.trace.dropped_steps, 0u);
  const DeviceConfig dev = make_opal_device(4, 7, 4);
  const ReplayReport a = replay_trace(dev, run.trace);
  const ReplayReport b = replay_trace(dev, run.trace);
  // Same trace, same device: bitwise-identical reports and JSON.
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.latency_s, b.latency_s);

  // Conservation: every executed row of the run is replayed exactly once.
  EXPECT_EQ(a.rows_fed, run.stats.tokens_decoded);
  // Engine-side KV accounting survives the trace round trip: each fed row
  // writes K and V across every layer at the mode's width.
  const ModelConfig m = tiny_config();
  const std::size_t kv_row_bytes =
      2 * m.n_layers * m.d_model * kv_bits_per_entry(KvQuantMode::kInt8) / 8;
  EXPECT_EQ(a.kv_bytes_written, a.rows_fed * kv_row_bytes);
  // Prefix-cache restores are attributed as saved energy, not replayed.
  EXPECT_EQ(a.prefix_rows_restored, run.stats.prefix_hit_tokens);
  if (run.stats.prefix_hit_tokens > 0) {
    EXPECT_GT(a.prefix_saved_j, 0.0);
  }
  // Per-request attribution covers every fed row and sums to the totals.
  std::size_t rows = 0;
  double energy = 0.0;
  for (const ReplayRequestReport& r : a.requests) {
    rows += r.rows_fed;
    energy += r.energy_j;
  }
  EXPECT_EQ(rows, a.rows_fed);
  EXPECT_NEAR(energy, a.energy_j, 1e-9 * a.energy_j);
  EXPECT_GT(a.n_steps, 0u);
  EXPECT_GT(a.energy_per_token_j(), 0.0);
}

TEST(Replay, FileRoundTripEqualsInProcessReplay) {
  const TracedRun run = traced_run(stressed_config());
  const StepTrace parsed = parse_step_trace(run.trace_json);
  EXPECT_EQ(parsed.steps.size(), run.trace.steps.size());
  EXPECT_EQ(parsed.info.d_model, run.trace.info.d_model);
  EXPECT_EQ(parsed.info.kv_mode, run.trace.info.kv_mode);
  for (const DeviceConfig& dev : all_devices()) {
    const ReplayReport from_file = replay_trace(dev, parsed);
    const ReplayReport in_process = replay_trace(dev, run.trace);
    EXPECT_EQ(from_file.to_json(), in_process.to_json()) << dev.name;
  }
}

TEST(Replay, SpeculativeBurstsAttributeSavedEnergy) {
  ServingConfig cfg;
  cfg.max_batch = 2;
  cfg.speculative.policy = DraftPolicy::kRepeat;
  cfg.speculative.draft_tokens = 3;
  const TracedRun run = traced_run(cfg);
  ASSERT_GT(run.stats.spec_bursts, 0u);
  const ReplayReport rep = replay_trace(make_opal_device(4, 7, 4), run.trace);
  EXPECT_EQ(rep.rows_fed, run.stats.tokens_decoded);
  // Commits = decode rows + verify-survivor rows; rejected rows were fed
  // (rows_fed) but never committed.
  EXPECT_GT(rep.tokens_committed, 0u);
  EXPECT_LE(rep.tokens_committed, rep.rows_fed);
  // At least one burst exists, so the spec-saved term was computed (its
  // sign depends on acceptance; it only must be attributed somewhere).
  double spec_saved = 0.0;
  for (const ReplayRequestReport& r : rep.requests) {
    spec_saved += r.spec_saved_j;
  }
  EXPECT_NEAR(spec_saved, rep.spec_saved_j, 1e-12 + 1e-9 * std::abs(rep.spec_saved_j));
}

TEST(Replay, OpalDeviceBeatsBf16EnergyPerToken) {
  const TracedRun run = traced_run(stressed_config());
  const ReplayReport bf16 = replay_trace(make_bf16_device(), run.trace);
  const ReplayReport opal = replay_trace(make_opal_device(4, 7, 4), run.trace);
  ASSERT_GT(bf16.tokens_committed, 0u);
  EXPECT_EQ(bf16.tokens_committed, opal.tokens_committed);
  // The paper's headline, now measured on a replayed serving run.
  EXPECT_LT(opal.energy_per_token_j(), bf16.energy_per_token_j());
  EXPECT_LT(opal.dram_bytes, bf16.dram_bytes);
}

TEST(Replay, CommittedTokensEqualGeneratedUnderEverySchedule) {
  // Each pass records the tokens it sampled, so replay counts exactly the
  // generated tokens whatever shape the passes took: one-row prompt feeds,
  // prompt chunks ending on the frontier, priority trickles, fair-share
  // slices and verify bursts.
  struct Schedule {
    const char* name;
    ServingConfig cfg;
  };
  std::vector<Schedule> schedules;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4}}) {
    ServingConfig cfg;
    cfg.max_batch = 3;
    cfg.prefill_chunk_tokens = chunk;
    schedules.push_back({chunk == 1 ? "fifo chunk 1" : "fifo chunk 4", cfg});
  }
  ServingConfig priority = stressed_config();
  priority.scheduler = std::make_shared<PriorityScheduler>();
  schedules.push_back({"priority", priority});
  ServingConfig fair = stressed_config();
  fair.scheduler = std::make_shared<FairShareScheduler>();
  schedules.push_back({"fair-share", fair});
  ServingConfig spec;
  spec.max_batch = 2;
  spec.speculative.policy = DraftPolicy::kRepeat;
  spec.speculative.draft_tokens = 3;
  schedules.push_back({"repeat drafter", spec});

  for (Schedule& s : schedules) {
    s.cfg.trace = true;
    ServingEngine engine(prepared(), s.cfg);
    std::vector<RequestId> ids;
    int priority_class = 0;
    for (Request req : workload()) {
      req.priority = priority_class++ % 2;  // priority: half trickle
      ids.push_back(engine.submit(std::move(req)));
    }
    engine.run();
    std::size_t generated = 0;
    for (const RequestId id : ids) generated += engine.result(id).generated();
    ASSERT_GT(generated, 0u) << s.name;
    const StepTrace trace = step_trace_from_tracer(engine.tracer());
    ASSERT_EQ(trace.dropped_steps, 0u) << s.name;
    for (const DeviceConfig& dev : all_devices()) {
      const ReplayReport rep = replay_trace(dev, trace);
      EXPECT_EQ(rep.tokens_committed, generated) << s.name << " " << dev.name;
      EXPECT_EQ(rep.rows_fed, engine.stats().tokens_decoded)
          << s.name << " " << dev.name;
    }
  }
}

// --- malformed traces --------------------------------------------------

TEST(Replay, MalformedTracesRejectedWithUsefulErrors) {
  // Not JSON at all: the parser names the position.
  try {
    (void)parse_step_trace("{\"schema\": ");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  // Wrong schema: the error names what was found and what is supported.
  try {
    (void)parse_step_trace("{\"schema\": \"opal.step_trace/v1\"}");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("opal.step_trace/v1"), std::string::npos);
    EXPECT_NE(what.find("opal.step_trace/v2"), std::string::npos);
  }
  // Missing keys are named.
  try {
    (void)parse_step_trace("{\"schema\": \"opal.step_trace/v2\"}");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("model"), std::string::npos);
  }
  // Unknown pass kinds are named.
  EXPECT_THROW(
      parse_step_trace(
          "{\"schema\": \"opal.step_trace/v2\","
          " \"model\": {\"n_layers\": 2, \"d_model\": 128, \"n_heads\": 4,"
          " \"d_ffn\": 344, \"vocab\": 64},"
          " \"kv\": {\"mode\": \"int8\", \"block_size\": 8,"
          " \"bits_per_entry\": 8},"
          " \"dropped_steps\": 0, \"truncated_events\": 0,"
          " \"steps\": [{\"step\": 1, \"batch\": 1, \"rows\": 1, \"seqs\":"
          " [{\"request\": 1, \"kind\": \"warp\", \"pos\": 0, \"rows\": 1,"
          " \"kv_bytes\": 0}]}]}"),
      std::invalid_argument);
  // A trace without self-description parses but refuses to replay.
  Tracer bare(true, 8);
  bare.emit({.kind = TraceEventKind::kStep, .step = 1});
  const StepTrace trace = step_trace_from_tracer(bare);
  EXPECT_THROW((void)replay_trace(make_bf16_device(), trace),
               std::invalid_argument);
}

TEST(Replay, DroppedStepsSurfaceInTheReport) {
  ServingConfig cfg = stressed_config();
  cfg.trace_capacity = 8;  // far too small: the ring must overwrite
  const TracedRun run = traced_run(cfg);
  EXPECT_GT(run.trace.dropped_steps, 0u);
  const ReplayReport rep = replay_trace(make_bf16_device(), run.trace);
  EXPECT_EQ(rep.dropped_steps, run.trace.dropped_steps);
  // The surviving steps still replay, but conservation no longer holds.
  EXPECT_LT(rep.rows_fed, run.stats.tokens_decoded);
}

TEST(Replay, MetricsExportUsesTheNamingScheme) {
  const TracedRun run = traced_run(stressed_config());
  const ReplayReport rep = replay_trace(make_opal_device(4, 7, 4), run.trace);
  MetricsRegistry reg;
  rep.export_metrics(reg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("hw_replay.rows_fed"), rep.rows_fed);
  EXPECT_EQ(snap.counter_value("hw_replay.steps"), rep.n_steps);
  const auto* energy = snap.find_gauge("hw_replay.energy_per_token_j");
  ASSERT_NE(energy, nullptr);
  EXPECT_EQ(energy->value, rep.energy_per_token_j());
  // And the Prometheus exposition renders them.
  const std::string text = snap.to_prometheus();
  EXPECT_NE(text.find("hw_replay_rows_fed_total"), std::string::npos);
  EXPECT_NE(text.find("hw_replay_energy_per_token_j"), std::string::npos);
}

}  // namespace
}  // namespace opal
