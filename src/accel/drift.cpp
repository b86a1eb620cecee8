#include "accel/drift.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "accel/workload.h"

namespace opal {

namespace {

// Deterministic double formatting, same contract as replay.cpp's.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Nearest-rank percentile over an ascending-sorted vector (deterministic —
// no interpolation, so the result is always an observed ratio).
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  if (idx > 0) --idx;                          // 1-based rank -> 0-based
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

DriftReport audit_drift(const DeviceConfig& device, const StepTrace& trace) {
  const ModelConfig model = traced_model(trace);
  DeviceConfig dev = device;
  if (trace.info.kv_block_size > 0) {
    dev.kv_block_size = trace.info.kv_block_size;
  }

  DriftReport report;
  report.device = dev.name;
  std::vector<double> ratios;
  ratios.reserve(trace.steps.size());

  for (const TraceStep& ts : trace.steps) {
    // The same composition replay_trace costs: every pass that fed rows,
    // at its recorded KV depth; prefix hits fed nothing.
    StepComposition comp;
    for (const TracePass& pass : ts.passes) {
      if (pass.kind == TraceEventKind::kPrefixHit) continue;
      comp.seqs.push_back({pass.request, pass.pos, pass.rows});
    }
    if (comp.total_rows() == 0 || ts.dur_us == 0) {
      ++report.skipped_steps;
      continue;
    }
    const StepReport sr = simulate_step(dev, model, comp);
    DriftStepRecord rec;
    rec.step = ts.step;
    rec.rows = comp.total_rows();
    rec.measured_s = static_cast<double>(ts.dur_us) * 1e-6;
    rec.predicted_s = sr.totals.latency_s;
    rec.predicted_dram_bytes = sr.dram_bytes;
    rec.ratio = rec.measured_s / rec.predicted_s;
    rec.dram_bound = sr.dram_bound;
    report.measured_s += rec.measured_s;
    report.predicted_s += rec.predicted_s;
    report.predicted_dram_bytes += rec.predicted_dram_bytes;
    if (rec.dram_bound) {
      ++report.dram_bound_steps;
    } else {
      ++report.compute_bound_steps;
    }
    ratios.push_back(rec.ratio);
    report.steps.push_back(rec);
    ++report.n_steps;
  }

  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    report.ratio_min = ratios.front();
    report.ratio_max = ratios.back();
    report.ratio_p50 = nearest_rank(ratios, 0.50);
    report.ratio_p95 = nearest_rank(ratios, 0.95);
    report.ratio_p99 = nearest_rank(ratios, 0.99);
  }
  return report;
}

std::string DriftReport::to_json() const {
  std::ostringstream out;
  out << "{\n \"device\": \"" << device << "\",\n"
      << " \"n_steps\": " << n_steps
      << ", \"skipped_steps\": " << skipped_steps
      << ", \"compute_bound_steps\": " << compute_bound_steps
      << ", \"dram_bound_steps\": " << dram_bound_steps << ",\n"
      << " \"measured_s\": " << fmt(measured_s)
      << ", \"predicted_s\": " << fmt(predicted_s)
      << ", \"predicted_dram_bytes\": " << fmt(predicted_dram_bytes)
      << ", \"run_ratio\": " << fmt(run_ratio()) << ",\n"
      << " \"ratio\": {\"min\": " << fmt(ratio_min)
      << ", \"p50\": " << fmt(ratio_p50) << ", \"p95\": " << fmt(ratio_p95)
      << ", \"p99\": " << fmt(ratio_p99) << ", \"max\": " << fmt(ratio_max)
      << "},\n \"per_step\": [";
  bool first = true;
  for (const DriftStepRecord& s : steps) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"step\": " << s.step << ", \"rows\": " << s.rows
        << ", \"measured_s\": " << fmt(s.measured_s)
        << ", \"predicted_s\": " << fmt(s.predicted_s)
        << ", \"predicted_dram_bytes\": " << fmt(s.predicted_dram_bytes)
        << ", \"ratio\": " << fmt(s.ratio) << ", \"dram_bound\": "
        << (s.dram_bound ? "true" : "false") << "}";
  }
  out << "\n ]\n}\n";
  return out.str();
}

void DriftReport::export_metrics(MetricsRegistry& registry,
                                 const std::string& prefix) const {
  registry.counter(prefix + ".steps").add(n_steps);
  registry.counter(prefix + ".skipped_steps").add(skipped_steps);
  registry.counter(prefix + ".compute_bound_steps").add(compute_bound_steps);
  registry.counter(prefix + ".dram_bound_steps").add(dram_bound_steps);
  registry.gauge(prefix + ".measured_s").set(measured_s);
  registry.gauge(prefix + ".predicted_s").set(predicted_s);
  registry.gauge(prefix + ".predicted_dram_bytes")
      .set(predicted_dram_bytes);
  registry.gauge(prefix + ".run_ratio").set(run_ratio());
  registry.gauge(prefix + ".ratio_p50").set(ratio_p50);
  registry.gauge(prefix + ".ratio_p95").set(ratio_p95);
  registry.gauge(prefix + ".ratio_p99").set(ratio_p99);
}

}  // namespace opal
