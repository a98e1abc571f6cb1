// Single-instruction replay of a compiled program: one Executor, its
// pre-bound registers filled with seeded data of the shapes
// verify_bindings() declares, then every instruction run on its own and
// timed, with host time and device cycles rolled up by opcode family.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "harness.hpp"

namespace perfbench {

/// Opcode families the replay rolls up, in report order.
const std::vector<std::string>& op_families();

struct FamilyStats {
  std::uint64_t count = 0;
  double host_ms = 0.0;
  std::uint64_t device_cycles = 0;
  std::uint64_t macs = 0;  ///< m*k*n of matmuls
};

struct ReplayResult {
  std::map<std::string, FamilyStats> families;  ///< every op_families() key
  bfpsim::ExecutionStats total;  ///< summed per-instruction statistics
  double host_ms = 0.0;          ///< summed per-instruction host time
};

/// Replay `cm` one instruction at a time on `sys`. Spans named
/// "isa.op.<family>" wrap each instruction when tracing is on.
ReplayResult replay_program(const bfpsim::CompiledModel& cm,
                            const bfpsim::AcceleratorSystem& sys,
                            std::uint64_t seed, Spans& spans);

/// True when two operation mixes agree field for field.
bool same_ops(const bfpsim::OpCounter& a, const bfpsim::OpCounter& b);

}  // namespace perfbench
