// Scalar reference table + the runtime dispatch shim.
//
// This TU is compiled with -ffp-contract=off (see CMakeLists.txt): the
// scalar table's arithmetic is exactly the source-order IEEE sequence of the
// shapes in kernel_shapes.h, which makes it a stable bitwise reference for
// the SIMD tables.

#include "common/kernels.h"

#include <atomic>
#include <cstdlib>

#include "common/kernel_shapes.h"

namespace opal {

namespace {

// The reference shim: every shape is its sequential, source-order loop.
struct Scalar {
  static constexpr const char* kName = "scalar";
  static constexpr bool kSimd = false;
};

constexpr KernelOps kScalarOps = make_table<Scalar>();

// --- dispatch ---------------------------------------------------------------

bool env_forces_scalar() {
  const char* v = std::getenv("OPAL_FORCE_SCALAR_KERNELS");
  if (v == nullptr) return false;
  return v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

std::atomic<const KernelOps*> g_active{nullptr};
std::atomic<bool> g_force_gather_attend{false};

}  // namespace

// Probes defined by the conditionally compiled ISA TUs; each returns nullptr
// when the running CPU lacks the extension.
#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)
const KernelOps* opal_avx2_kernels();
#endif
#if defined(__aarch64__)
const KernelOps* opal_neon_kernels();
#endif

const KernelOps& scalar_kernels() { return kScalarOps; }

const KernelOps* simd_kernels() {
#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)
  if (const KernelOps* ops = opal_avx2_kernels()) return ops;
#endif
#if defined(__aarch64__)
  if (const KernelOps* ops = opal_neon_kernels()) return ops;
#endif
  return nullptr;
}

const KernelOps& kernels() {
  const KernelOps* active = g_active.load(std::memory_order_acquire);
  if (active == nullptr) {
    active = env_forces_scalar() ? &kScalarOps : simd_kernels();
    if (active == nullptr) active = &kScalarOps;
    g_active.store(active, std::memory_order_release);
  }
  return *active;
}

void set_force_scalar_kernels(bool force) {
  const KernelOps* table = force ? &kScalarOps : simd_kernels();
  if (table == nullptr) table = &kScalarOps;
  g_active.store(table, std::memory_order_release);
}

void set_active_kernels(const KernelOps* table) {
  g_active.store(table, std::memory_order_release);
}

bool force_gather_attend() {
  return g_force_gather_attend.load(std::memory_order_acquire);
}

void set_force_gather_attend(bool force) {
  g_force_gather_attend.store(force, std::memory_order_release);
}

}  // namespace opal
