// Load generator: serves a workload's request stream through one ServingEngine
// in wall-clock time and times every request from outside the engine.
//
// One thread (the caller's) generates all load and calls submit()/step(),
// and the engine runs on it too (no decode workers). Latency is taken from
// each request's DUE time, the moment its client's previous request
// finished, so a stalled engine delays the requests waiting behind it and the
// TTFT tail shows it.
//
// Latency and serving time run on the process CPU clock. With one thread
// that never waits (a closed loop keeps it busy), that clock advances exactly
// as the wall clock would on an idle host; unlike the wall clock it stops
// while the host runs something else, including hypervisor steal (kernels
// with paravirt steal accounting leave it out of task CPU time). Work moved
// to other threads still counts: the clock sums all of the process's threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "accel/replay.h"
#include "common/kernel_profiler.h"
#include "llm/serving_engine.h"
#include "workloads.h"

namespace servebench {

/// In-memory span log, written out once at the end of the run. Times are
/// seconds since the serve started; `parent` indexes this log (-1: root);
/// spans of one request share its id.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
    int lane = 0;  // 0: load thread; 1: engine decode passes
  };

  int add(Span span);
  [[nodiscard]] Span& at(int index) {
    return spans_.at(static_cast<std::size_t>(index));
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace_event JSON (complete events, microseconds).
  void write_chrome(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
};

struct RequestRecord {
  opal::Request request;
  double due_s = 0.0;  // process CPU clock, seconds since the serve began
  double last_token_s = 0.0;
  double due_wall_s = 0.0;  // wall clock; traced serves only
  double last_token_wall_s = 0.0;
  bool done = false;
  opal::RequestStatus status = opal::RequestStatus::kQueued;
  std::vector<std::size_t> tokens;  // prompt + generated, once finished
  std::size_t generated = 0;
};

struct ServeResult {
  std::vector<RequestRecord> requests;  // submission order
  std::size_t rounds = 0;
  double serve_s = 0.0;       // first due time to last finished token
  double serve_wall_s = 0.0;  // the same serve on the wall clock
  std::size_t generated = 0;
  std::size_t prompt_tokens = 0;
  /// Raw latency samples.
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  std::vector<double> step_ms;        // each step() call (CPU clock)
  std::vector<double> submit_lag_ms;  // due time -> submit()
  std::size_t backlog_max = 0;        // queued() at step boundaries
  opal::ServingEngine::Stats stats;
  // Traced serves only.
  opal::StepTrace trace;
  opal::KernelProfile profile;
  SpanLog spans;
  double bench_self_s = 0.0;    // load-thread time outside submit()/step()
  double serving_self_s = 0.0;  // step() time not covered by model passes
  double model_self_s = 0.0;    // model-pass time outside kernels (all threads)
  double kernels_self_s = 0.0;  // kernel time (all threads)
};

struct ServeOptions {
  double seconds = 10.0;
  /// Engine tracing + kernel profiling + benchmark spans.
  bool traced = false;
  /// Serve one request per client, all due at once, then stop (the fixed
  /// replay probe).
  bool single_round = false;
  /// When nonzero, caps every request's max_new_tokens.
  std::size_t max_new_cap = 0;
};

[[nodiscard]] ServeResult serve(
    const Workload& workload,
    const std::shared_ptr<const opal::PreparedModel>& model,
    RequestStream& stream, const ServeOptions& options);

/// CPU time of the whole process, in seconds.
[[nodiscard]] double cpu_seconds();

/// Nearest-rank percentile (p in (0, 100]) of raw samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

}  // namespace servebench
