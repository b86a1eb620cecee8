// Structured event tracer for the serving stack: a fixed-capacity ring
// buffer of POD events, near-zero cost when disabled (one predictable
// branch per would-be event), exportable as Chrome trace_event JSON
// (about://tracing / ui.perfetto.dev) and as a replayable step-trace JSON
// the accelerator-model replay (accel/replay.h) consumes.
//
// Event taxonomy (what ServingEngine emits; see the Observability block in
// llm/serving_engine.h for exactly when each fires):
//
//   kind          scope     payload a / b / c / d                   dur_us
//   kEnqueue      request   prompt_len / target_len / priority / 0  -
//   kAdmit        request   queue-wait steps / restored positions /
//                           blocks held / 0                         -
//   kPrefixHit    request   positions restored / columns / 0 / 0    -
//   kChunk        request   rows fed / start position / KV bytes
//                           written / tokens sampled                decode us
//   kDecode       request   1 / start position / KV bytes /
//                           tokens sampled                          decode us
//   kSpecBurst    request   rows fed / start position / KV bytes /
//                           tokens sampled                          verify us
//   kBudgetShrink request   budget before / 1 / 0 / 0               -
//   kPreempt      request   kept positions / fed before / 0 / 0     -
//   kEvict        request   generated so far / 0 / 0 / 0            -
//   kFinish       request   generated / finish reason / 0 / 0       -
//   kStep         engine    batch size / rows fed / blocks in use /
//                           blocks free                             step us
//
// The three model-pass kinds (kChunk: a multi-row pass of known tokens;
// kDecode: a one-row pass that is not a verify burst; kSpecBurst: a verify
// burst) all carry in d the tokens that pass generated — 0 for a prompt
// chunk that stops short of the frontier, 1 for a pass that reached it, and
// for a verify burst its kept rows, each of which sampled one token.
//
// The tracer itself is engine-agnostic: it stores whatever events it is
// handed. Like MetricsRegistry and KvBlockPool it is not internally
// synchronized — emit() and the exports belong to a serial phase.
//
// Timestamps are wall-clock microseconds since the tracer's construction
// (steady clock). Tracing never feeds back into control flow, so a traced
// run is bitwise identical to an untraced one.
//
// Enabling: construct with enabled = true (ServingConfig::trace), or set
// the OPAL_TRACE environment variable (non-empty, not "0") to force-enable
// every tracer constructed afterwards. OPAL_TRACE_CAPACITY (a positive
// integer) overrides the ring capacity of every tracer constructed
// afterwards, so a long SLO run can be sized to lose nothing.
//
// Step-trace schema (opal.step_trace/v2) — what write_step_trace emits:
//
//   field                       meaning
//   schema                      "opal.step_trace/v2"
//   model.{n_layers,d_model,    ModelConfig dims of the producing engine
//          n_heads,d_ffn,vocab} (all 0 when no StepTraceInfo was set)
//   kv.{mode,block_size,        serving KV layout: kv_mode name, positions
//       bits_per_entry}         per block, stored bits per KV entry
//   dropped_steps               kStep records overwritten in the ring —
//                               nonzero means the trace is INCOMPLETE
//   truncated_events            total events overwritten in the ring
//   steps[]                     one record per surviving kStep event:
//     step / dur_us             engine step counter, wall duration
//     batch / rows              sequences decoded, total rows fed
//     blocks_in_use/blocks_free pool occupancy after the step
//     seqs[]                    the step's per-sequence events, in emission
//                               order:
//       request / kind          RequestId; chunk | decode | spec_burst |
//                               prefix_hit
//       pos                     start position (KV length before the pass);
//                               0 for prefix_hit
//       rows                    rows fed this pass; for prefix_hit, the
//                               positions restored from the cache (decodes
//                               SKIPPED, not executed)
//       kv_bytes                KV bytes written by the pass (0: prefix_hit)
//       dur_us                  model-pass wall duration (0: prefix_hit)
//       committed               tokens the pass sampled, on every pass (the
//                               kind's d; 0 for prefix_hit)
//
// A v2 trace with nonzero model dims is self-describing: accel/replay.h
// parses it back and replays it through the device model without the
// producing process. step_trace_from_tracer() is the one scan that groups
// ring events into steps; write_step_trace serializes what it builds.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace opal {

enum class TraceEventKind : std::uint8_t {
  kEnqueue,
  kAdmit,
  kPrefixHit,
  kChunk,
  kDecode,
  kSpecBurst,
  kBudgetShrink,
  kPreempt,
  kEvict,
  kFinish,
  kStep,
};

[[nodiscard]] std::string to_string(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kStep;
  /// Wall-clock microseconds since tracer construction, taken at emit time.
  /// For events with a duration this is the span END (start = ts_us -
  /// dur_us) — they are emitted when the measured work completes.
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;  // 0 for instant events
  std::uint64_t step = 0;    // engine step counter when emitted
  std::uint64_t request = 0;  // RequestId; 0 = engine-scoped
  std::uint64_t a = 0, b = 0, c = 0, d = 0;  // kind-specific (header table)
};

/// Self-description the producing engine attaches to its tracer so a
/// step-trace file is replayable without the producing process: the served
/// model's dims (enough to rebuild a ModelConfig) and the serving KV
/// layout. All-zero dims mean "not set" (write_step_trace still emits the
/// header; accel/replay refuses to replay it).
struct StepTraceInfo {
  std::size_t n_layers = 0;
  std::size_t d_model = 0;
  std::size_t n_heads = 0;
  std::size_t d_ffn = 0;
  std::size_t vocab = 0;
  std::string kv_mode;             // to_string(KvQuantMode)
  std::size_t kv_block_size = 0;   // positions per KV block
  std::size_t kv_bits_per_entry = 0;
};

/// One model pass (or prefix-cache restore) of one step, as recorded.
struct TracePass {
  std::uint64_t request = 0;
  /// kChunk | kDecode | kSpecBurst | kPrefixHit.
  TraceEventKind kind = TraceEventKind::kDecode;
  std::size_t pos = 0;       // KV length before the pass (0 for prefix_hit)
  std::size_t rows = 0;      // rows fed; prefix_hit: positions restored
  std::size_t kv_bytes = 0;  // engine-side KV bytes written by the pass
  std::uint64_t dur_us = 0;  // model-pass wall duration (0 for prefix_hit)
  /// Tokens the pass sampled; for a verify burst also the rows that
  /// survived verify. 0 for prefix_hit.
  std::size_t committed = 0;
};

/// One engine step: its kStep record plus the per-sequence passes grouped
/// under it.
struct TraceStep {
  std::uint64_t step = 0;
  std::size_t batch = 0;
  std::size_t rows = 0;  // rows fed, per the kStep record
  /// Measured host wall time of the step (the kStep record's dur_us).
  /// Replay ignores it; the drift auditor (accel/drift.h) joins it against
  /// the device model's prediction.
  std::uint64_t dur_us = 0;
  std::size_t blocks_in_use = 0;  // pool occupancy after the step
  std::size_t blocks_free = 0;
  std::vector<TracePass> passes;
};

/// A step trace: self-description + the surviving steps (the in-memory
/// form of the opal.step_trace/v2 schema above).
struct StepTrace {
  StepTraceInfo info;
  std::uint64_t dropped_steps = 0;     // kStep records lost to the ring
  std::uint64_t truncated_events = 0;  // events lost to the ring
  std::vector<TraceStep> steps;
};

class Tracer {
 public:
  /// `enabled || env_enabled()` activates the tracer; capacity is the ring
  /// size in events (oldest overwritten first).
  explicit Tracer(bool enabled = false, std::size_t capacity = 1 << 16);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// True when OPAL_TRACE is set, non-empty, and not "0".
  [[nodiscard]] static bool env_enabled();

  /// OPAL_TRACE_CAPACITY as a positive event count, or `fallback` when the
  /// variable is unset/empty/unparsable.
  [[nodiscard]] static std::size_t env_capacity(std::size_t fallback);

  /// Stores `event` (stamping ts_us if the caller left it 0). No-op when
  /// disabled.
  void emit(TraceEvent event);

  /// Attaches the producing engine's self-description, emitted in the
  /// step-trace header (see StepTraceInfo).
  void set_step_info(StepTraceInfo info) { info_ = std::move(info); }
  [[nodiscard]] const StepTraceInfo& step_info() const { return info_; }

  /// Events ever emitted (including overwritten ones).
  [[nodiscard]] std::uint64_t total_emitted() const { return total_; }
  /// Events overwritten in the ring (lost to the exports).
  [[nodiscard]] std::uint64_t truncated_events() const { return truncated_; }
  /// kStep records overwritten in the ring: nonzero means write_step_trace
  /// emits an INCOMPLETE trace (replays must check the header).
  [[nodiscard]] std::uint64_t dropped_steps() const { return dropped_steps_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  void clear();

  /// Held events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Microseconds since construction — the timestamp emit() stamps.
  [[nodiscard]] std::uint64_t now_us() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}): duration events
  /// become "X" complete events (per-request lanes via tid = request id,
  /// step lane tid 0), instant events "i", all with their payload in args.
  /// Loads in about://tracing and ui.perfetto.dev.
  void write_chrome_trace(std::ostream& out) const;

  /// Replayable step-trace JSON (opal.step_trace/v2 — schema table in the
  /// header comment): step_trace_from_tracer(*this), serialized. A
  /// self-describing header (StepTraceInfo dims, KV layout, dropped_steps /
  /// truncated_events ring-loss counts) followed by one record per
  /// surviving kStep event with its passes (request, start position, rows,
  /// KV bytes touched, tokens sampled, cache restores).
  void write_step_trace(std::ostream& out) const;

 private:
  bool enabled_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;      // next write slot once the ring is full
  std::uint64_t total_ = 0;   // lifetime emit count
  std::uint64_t truncated_ = 0;      // events overwritten
  std::uint64_t dropped_steps_ = 0;  // kStep records overwritten
  StepTraceInfo info_;
  std::chrono::steady_clock::time_point epoch_;
};

/// Groups the tracer's surviving events into steps: a step's per-sequence
/// events precede its kStep record in emission order, so one forward scan
/// does it. Steps whose kStep record was overwritten are dropped (counted
/// in dropped_steps); orphaned per-sequence events are discarded.
[[nodiscard]] StepTrace step_trace_from_tracer(const Tracer& tracer);

}  // namespace opal
