// Hardware-in-the-loop trace replay: feeds a serving step trace
// (common/trace.h, opal.step_trace/v2) back through the accelerator device
// model (accel/device.h) to attribute energy, device latency, and DRAM
// traffic per step, per request, and per run — for any device family, from
// a single serving run.
//
// Replay contract:
//   * Replay OBSERVES the trace; it never re-runs the model. The trace
//     fixes every scheduling decision — which sequences fed which step, at
//     which KV depth, with how many rows — and replay only re-costs those
//     decisions on a device model. Scheduling in the replayer would be a
//     bug: the point is attributing the run that actually happened.
//   * Replay is deterministic: the same StepTrace replayed twice on the
//     same DeviceConfig yields bitwise-identical ReplayReports (and JSON).
//     Wall-clock fields of the trace (dur_us) are deliberately ignored —
//     replayed latency is DEVICE-model latency, not host latency.
//   * Conservation: rows_fed equals the sum of trace pass rows, which
//     equals the producing engine's Stats::tokens_decoded;
//     tokens_committed sums each pass's recorded sampled-token count
//     (TracePass::committed), which equals the tokens the engine generated
//     whatever the pass kinds, chunk widths, scheduler or speculation;
//     kv_bytes_written sums the engine-side KV bytes recorded in the
//     trace. dram_bytes is the DEVICE-side traffic (weights + KV streams)
//     and is the replay's own output, not a trace echo.
//   * A trace with dropped_steps > 0 is incomplete; replay still runs (on
//     the surviving steps) and copies the counter into the report so
//     consumers can refuse partial attributions.
//
// Sources: step_trace_from_tracer() (common/trace.h) lifts the trace
// straight out of an in-process Tracer; parse_step_trace() reads an
// opal.step_trace/v2 JSON file (via common/json.h), which is
// self-describing — the header carries the model dims and KV layout, so a
// file replays without the producing process. Both yield the same
// StepTrace, hence the same report.
//
// Attribution (mirrors simulate_step):
//   * per-sequence attention ops: fully to the owning request;
//   * batch-shared weight/quantize work: by fed-rows share;
//   * buffer leakage: by latency share;
//   * energy SAVED by a prefix-cache hit: the hypothetical cost of
//     prefilling the restored rows as one chunk from position 0;
//   * energy saved by speculation: the cost of the committed rows as
//     separate single-decode steps minus the verify burst's attributed
//     cost (negative when rejected rows outweigh the batching win).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "accel/device.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "llm/model_config.h"

namespace opal {

/// Rebuilds the producing model's config from the trace header's dims.
/// Throws std::invalid_argument when any dim is zero (trace not
/// self-describing — its producer never called Tracer::set_step_info).
[[nodiscard]] ModelConfig traced_model(const StepTrace& trace);

/// Parses an opal.step_trace/v2 JSON document. Throws
/// std::invalid_argument naming the offending field / position on any
/// schema violation (wrong schema string, missing keys, type mismatches,
/// unknown pass kinds).
[[nodiscard]] StepTrace parse_step_trace(std::string_view json_text);

/// Whole-run attribution for one request.
struct ReplayRequestReport {
  std::uint64_t request = 0;
  std::size_t rows_fed = 0;
  std::size_t tokens_committed = 0;
  std::size_t prefix_rows_restored = 0;
  double latency_s = 0.0;   // attributed device time across its steps
  double energy_j = 0.0;    // attributed device energy (leakage included)
  double dram_bytes = 0.0;  // attributed device DRAM traffic
  double prefix_saved_j = 0.0;
  double spec_saved_j = 0.0;
};

/// One replayed step, summarized.
struct ReplayStepSummary {
  std::uint64_t step = 0;
  std::size_t rows = 0;  // rows actually replayed (prefix hits excluded)
  double latency_s = 0.0;
  double energy_j = 0.0;
  double dram_bytes = 0.0;
  bool dram_bound = false;
};

/// Full replay output: run totals + per-step and per-request attribution.
struct ReplayReport {
  std::string device;
  std::size_t n_steps = 0;
  std::size_t rows_fed = 0;
  std::size_t tokens_committed = 0;    // tokens generated (sampled)
  std::size_t prefix_rows_restored = 0;
  std::size_t kv_bytes_written = 0;    // engine-side, summed from the trace
  std::uint64_t dropped_steps = 0;     // copied from the trace header
  double latency_s = 0.0;              // device time, all steps
  double energy_j = 0.0;
  double core_energy_j = 0.0;
  double mem_access_j = 0.0;
  double weight_leak_j = 0.0;
  double act_leak_j = 0.0;
  double dram_bytes = 0.0;             // device-side DRAM traffic
  double prefix_saved_j = 0.0;
  double spec_saved_j = 0.0;
  std::size_t dram_bound_steps = 0;
  /// Compute-core area of the replayed device (device_core_area_mm2) and
  /// the total MAC count of the replayed run — the inputs to the
  /// TOPS-per-watt roll-up below.
  double core_area_mm2 = 0.0;
  std::size_t total_macs = 0;
  std::vector<ReplayStepSummary> steps;
  std::vector<ReplayRequestReport> requests;  // ascending request id

  [[nodiscard]] double energy_per_token_j() const {
    return tokens_committed == 0
               ? 0.0
               : energy_j / static_cast<double>(tokens_committed);
  }

  /// Run-level efficiency: tera-ops (2 ops per MAC) per joule — the
  /// conventional TOPS/W accelerator headline. 0 before any energy accrues.
  [[nodiscard]] double tops_per_watt() const {
    return energy_j == 0.0
               ? 0.0
               : 2.0 * static_cast<double>(total_macs) / energy_j / 1e12;
  }

  /// Deterministic JSON (17-significant-digit doubles): run totals, energy
  /// breakdown, saved-energy attribution, per_step[], per_request[].
  [[nodiscard]] std::string to_json() const;

  /// Binds the run totals into `registry` under the repo's dotted naming
  /// scheme: <prefix>.steps, .rows_fed, .tokens_committed,
  /// .dram_bound_steps, .dropped_steps, .total_macs (counters);
  /// <prefix>.latency_s, .energy_j, .energy_per_token_j, .dram_bytes,
  /// .prefix_saved_j, .spec_saved_j, .core_area_mm2, .tops_per_watt
  /// (gauges).
  void export_metrics(MetricsRegistry& registry,
                      const std::string& prefix = "hw_replay") const;
};

/// Replays `trace` through `device`. The trace's KV block size overrides
/// the device's (the serving layout decides DRAM granularity). Throws
/// std::invalid_argument when the trace is not self-describing.
[[nodiscard]] ReplayReport replay_trace(const DeviceConfig& device,
                                        const StepTrace& trace);

}  // namespace opal
