// Per-layer metrics of the traced run. Everything here is measured from
// outside the program: by timing public calls (PreparedModel, KernelOps,
// MxOpalQuantizer, the softmax units, replay_trace) on the workload's own
// shapes, KV depths and recorded activations, or by reading the counters,
// profile and step trace of the traced serve.
#pragma once

#include <string>
#include <vector>

#include "accel/replay.h"
#include "llm/prepared_model.h"
#include "load.h"
#include "workloads.h"

namespace servebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The accelerator devices a schedule is replayed on, in the order BF16,
/// OWQ (W4), OPAL (W4, A4/7).
[[nodiscard]] std::vector<opal::DeviceConfig> replay_devices();

/// serving.*, model.*, kernels.*, quant.*, softmax.*, kv.*, accel.* and
/// self.* metrics of one traced serve.
void measure_layers(const Workload& workload, const opal::PreparedModel& model,
                    const ServeResult& traced, Metrics& out);

}  // namespace servebench
