#include "load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include <time.h>

namespace servebench {

using namespace opal;
using Clock = std::chrono::steady_clock;

namespace {

/// Adds the engine's model passes (from its tracer) as children of the step
/// spans they ran in, and splits the serve into per-layer self times.
void attribute_spans(const ServingEngine& engine, std::uint64_t tracer_t0_us,
                     int root, ServeResult& out) {
  const Tracer& tracer = engine.tracer();
  if (tracer.truncated_events() != 0) {
    throw std::runtime_error("trace ring overflowed; raise its capacity");
  }
  out.spans.at(root).end_s = out.serve_wall_s;
  std::vector<int> steps;
  double load_thread_covered = 0.0;
  for (std::size_t i = 0; i < out.spans.spans().size(); ++i) {
    const auto& s = out.spans.spans()[i];
    if (s.name == "step") steps.push_back(static_cast<int>(i));
    if (s.name == "step" || s.name == "submit") {
      load_thread_covered += s.end_s - s.start_s;
    }
  }
  // Pass intervals per step, in microseconds of the tracer's clock.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> covered(
      steps.size());
  double pass_s = 0.0;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.kind != TraceEventKind::kChunk &&
        ev.kind != TraceEventKind::kDecode &&
        ev.kind != TraceEventKind::kSpecBurst) {
      continue;
    }
    const double start = static_cast<double>(ev.ts_us - ev.dur_us) * 1e-6 -
                         static_cast<double>(tracer_t0_us) * 1e-6;
    const double end = static_cast<double>(ev.ts_us) * 1e-6 -
                       static_cast<double>(tracer_t0_us) * 1e-6;
    const double mid = 0.5 * (start + end);
    // The last step span starting at or before the pass's midpoint.
    const auto it = std::upper_bound(
        steps.begin(), steps.end(), mid, [&](double t, int idx) {
          return t < out.spans.spans()[static_cast<std::size_t>(idx)].start_s;
        });
    int parent = root;
    if (it != steps.begin()) {
      parent = *(it - 1);
      covered[static_cast<std::size_t>(it - 1 - steps.begin())].push_back(
          {ev.ts_us - ev.dur_us, ev.ts_us});
    }
    out.spans.add({"pass", start, end, parent, ev.request, 1});
    pass_s += end - start;
  }
  double serving = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& s = out.spans.spans()[static_cast<std::size_t>(steps[i])];
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t union_us = 0, cur_lo = 0, cur_hi = 0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        union_us += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    union_us += cur_hi - cur_lo;
    serving += std::max(0.0, (s.end_s - s.start_s) -
                                 static_cast<double>(union_us) * 1e-6);
  }
  const double kernel_s = static_cast<double>(out.profile.total_kernel_ns()) * 1e-9;
  out.bench_self_s = std::max(0.0, out.serve_wall_s - load_thread_covered);
  out.serving_self_s = serving;
  out.model_self_s = std::max(0.0, pass_s - kernel_s);
  out.kernels_self_s = kernel_s;
}

}  // namespace

int SpanLog::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::write_chrome(std::ostream& out) const {
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
        << ", \"tid\": " << s.lane << ", \"ts\": " << s.start_s * 1e6
        << ", \"dur\": " << (s.end_s - s.start_s) * 1e6
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

double cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("no process CPU clock");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

ServeResult serve(const Workload& w,
                  const std::shared_ptr<const PreparedModel>& model,
                  RequestStream& stream, const ServeOptions& opt) {
  ServingConfig cfg = w.serving_config();
  if (w.pool_sequences > 0.0) {
    cfg.kv_pool_blocks = static_cast<std::size_t>(std::ceil(
        w.pool_sequences *
        static_cast<double>(model->kv_blocks_per_sequence())));
  }
  cfg.trace = opt.traced;
  cfg.trace_capacity = std::size_t{1} << 19;
  cfg.profile = opt.traced;
  ServingEngine engine(model, cfg);

  ServeResult out;
  auto next_request = [&]() {
    Request r = stream.next();
    if (opt.max_new_cap > 0) {
      r.max_new_tokens = std::min(r.max_new_tokens, opt.max_new_cap);
    }
    return r;
  };

  // Latency runs on the process CPU clock (see load.h); spans, which sit
  // beside the tracer's wall-clock passes, run on the wall clock.
  const double cpu_t0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t tracer_t0_us = engine.tracer().now_us();
  auto now_s = [&] { return cpu_seconds() - cpu_t0; };
  auto wall_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<std::size_t> finished;  // record indexes, filled by observer
  engine.set_token_observer([&](RequestId id, std::size_t index, std::size_t,
                                FinishReason reason) {
    const double t = now_s();
    RequestRecord& rec = out.requests.at(id - 1);
    if (index == 0) {
      out.ttft_ms.push_back((t - rec.due_s) * 1e3);
    } else {
      out.itl_ms.push_back((t - rec.last_token_s) * 1e3);
    }
    rec.last_token_s = t;
    if (opt.traced) rec.last_token_wall_s = wall_s();
    if (reason != FinishReason::kNone) finished.push_back(id - 1);
  });

  const int root = opt.traced ? out.spans.add({"serve", 0.0, 0.0, -1, 0, 0})
                              : -1;
  auto submit = [&](Request req, double due_s, double due_wall_s) {
    RequestRecord rec;
    rec.request = req;
    rec.due_s = due_s;
    rec.due_wall_s = due_wall_s;
    out.requests.push_back(std::move(rec));
    const double w0 = wall_s();
    const RequestId id = engine.submit(std::move(req));
    const double w1 = wall_s();
    if (id != out.requests.size()) {
      throw std::logic_error("engine request ids are not sequential");
    }
    out.submit_lag_ms.push_back((now_s() - due_s) * 1e3);
    if (opt.traced) out.spans.add({"submit", w0, w1, root, id, 0});
  };

  std::size_t idle_steps = 0;
  for (std::size_t c = 0; c < kClients; ++c) submit(next_request(), 0.0, 0.0);
  while (engine.running() != 0 || engine.queued() != 0) {
    out.backlog_max = std::max(out.backlog_max, engine.queued());
    const double s0 = now_s();
    const double w0 = wall_s();
    const std::size_t decoded = engine.step();
    const double w1 = wall_s();
    out.step_ms.push_back((now_s() - s0) * 1e3);
    if (opt.traced) out.spans.add({"step", w0, w1, root, 0, 0});
    idle_steps = decoded == 0 ? idle_steps + 1 : 0;
    if (idle_steps > 1000) {
      throw std::runtime_error("engine stopped making progress");
    }

    for (const std::size_t i : finished) {
      RequestRecord& rec = out.requests[i];
      RequestResult res = engine.result(static_cast<RequestId>(i + 1));
      rec.done = true;
      rec.status = res.status;
      rec.generated = res.generated();
      rec.tokens = std::move(res.tokens);
      engine.release(static_cast<RequestId>(i + 1));
      if (opt.traced) {
        out.spans.add({"request", rec.due_wall_s, rec.last_token_wall_s, root,
                       i + 1, 0});
      }
      // The client sends its next request the moment this one finished,
      // until the run has lasted `seconds` and ended on a whole round. The
      // wall-clock cap only bounds a run on a host that gives the process
      // less than half a core.
      const bool more =
          !opt.single_round &&
          ((rec.last_token_s < opt.seconds && wall_s() < 2.0 * opt.seconds) ||
           out.requests.size() % kClients != 0);
      if (more) submit(next_request(), rec.last_token_s, rec.last_token_wall_s);
    }
    finished.clear();
  }

  out.serve_wall_s = wall_s();
  for (const RequestRecord& rec : out.requests) {
    out.serve_s = std::max(out.serve_s, rec.last_token_s);
    out.generated += rec.generated;
    out.prompt_tokens += rec.request.prompt.size();
  }
  out.rounds = out.requests.size() / kClients;
  out.stats = engine.stats();
  if (opt.traced) {
    out.trace = step_trace_from_tracer(engine.tracer());
    out.profile = engine.profile();
    attribute_spans(engine, tracer_t0_us, root, out);
  }
  return out;
}

}  // namespace servebench
