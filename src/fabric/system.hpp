// The full-FPGA accelerator system: `num_units` multi-mode processing
// units, each carrying `arrays_per_unit` 8x8 PE arrays behind a shared
// controller and two HBM AXI channels (Section III-B: 15 units on the
// Alveo U280; Table III's 2163 DSPs and 2052 GOPS correspond to two arrays
// per unit — see DESIGN.md's calibration notes).
//
// The system model answers two kinds of questions:
//   * "measured" throughput of workloads including memory I/O (Fig. 7,
//     Table III, Table IV), via the MemoryInterface overlap model, and
//   * functional execution, distributing GEMMs across units with the PU's
//     golden numerics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fabric/memory_interface.hpp"
#include "pu/processing_unit.hpp"

namespace bfpsim {

struct NumericMode;

struct SystemConfig {
  PuConfig pu;              ///< per-array configuration
  int num_units = 15;       ///< parallel processing units on the FPGA
  int arrays_per_unit = 2;  ///< PE arrays per unit (Table III calibration)
  HbmConfig hbm;

  void validate() const;
};

/// Latency/throughput outcome of a modelled workload.
struct WorkloadResult {
  std::uint64_t cycles = 0;  ///< end-to-end latency in fabric cycles
  std::uint64_t ops = 0;     ///< useful operations performed
  double freq_hz = kDefaultFreqHz;

  double ops_per_sec() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(ops) * freq_hz /
                             static_cast<double>(cycles);
  }
};

class AcceleratorSystem {
 public:
  explicit AcceleratorSystem(const SystemConfig& cfg = SystemConfig{});

  /// ---- per-unit throughput workloads (Fig. 7) ----

  /// Stream `n_passes` Y-stationary passes of `n_x` X blocks through one
  /// unit, including memory I/O.
  WorkloadResult measure_bfp_unit(int n_x, int n_passes = 64) const;

  /// Theoretical unit throughput at stream length n_x (Eqn 9) in ops/s.
  double theoretical_bfp_unit(int n_x) const;

  /// Peak unit throughput (Eqn 7 times arrays_per_unit) in ops/s.
  double peak_bfp_unit() const;

  /// Run `n_runs` fp32 multiply streams of per-lane length `l` through one
  /// unit's 4 lanes, including memory I/O.
  WorkloadResult measure_fp32_unit(int l, int n_runs = 64) const;

  /// Theoretical unit fp32 throughput at stream length l (Eqn 10) in FLOP/s.
  double theoretical_fp32_unit(int l) const;

  /// Peak unit fp32 throughput (Eqn 8 with mul+add accounting) in FLOP/s.
  double peak_fp32_unit() const;

  /// bf16 extension: measured / theoretical / peak per-unit throughput
  /// of the 8-lane single-slice multiply mode.
  WorkloadResult measure_bf16_unit(int l, int n_runs = 64) const;
  double theoretical_bf16_unit(int l) const;
  double peak_bf16_unit() const;

  /// ---- system-level aggregates ----

  double peak_bfp_system() const;
  double theoretical_fp32_system(int l = kMaxFpStream) const;
  double sustained_bfp_system(int n_x = kMaxXBlocks) const;
  double sustained_fp32_system(int l = kMaxFpStream) const;

  /// ---- workload latency models (Table IV) ----

  /// End-to-end latency of an (m x k) * (k x n) bfp8 GEMM distributed over
  /// all units/arrays (output column tiles partitioned across arrays).
  WorkloadResult gemm_latency(std::int64_t m, std::int64_t k,
                              std::int64_t n) const;

  /// Cycles the functional gemm() charges under `mode`: gemm_latency for
  /// bfp8, scaled by the mode's per-MAC issue cost otherwise.
  std::uint64_t gemm_cycles(const NumericMode& mode, std::int64_t m,
                            std::int64_t k, std::int64_t n) const;

  /// End-to-end latency of `mul_ops` fp32 multiplies plus `add_ops` fp32
  /// adds executed on the vector mode across all units.
  WorkloadResult vector_latency(std::uint64_t mul_ops,
                                std::uint64_t add_ops) const;

  /// ---- functional execution ----

  /// Distribute a GEMM across units (numerics identical to a single PU;
  /// partitioning does not change bfp block math) and attach the system
  /// latency model.
  GemmRun gemm(std::span<const float> a, int m, int k,
               std::span<const float> b, int n) const;

  /// Same, with B already quantized as the PU's bfp8 operand (see
  /// ProcessingUnit::gemm_bfp8_fast); byte-identical to the float overload
  /// on the floats B was quantized from. Requires a bfp8-configured system.
  GemmRun gemm(std::span<const float> a, int m, int k, const BfpMatrix& b,
               int n) const;

  /// Same, under an explicit NumericMode (the graph compiler's per-layer
  /// format annotations land here). `bfp8` takes the fast PU path and is
  /// byte-identical to the default overload on a bfp8-configured system;
  /// other modes run the registry's scalar golden with `cycle_scale`d
  /// latency, exactly like configuring the whole system for that mode.
  GemmRun gemm(const NumericMode& mode, std::span<const float> a, int m,
               int k, std::span<const float> b, int n) const;

  const SystemConfig& config() const { return cfg_; }
  const MemoryInterface& memory() const { return mem_; }

  /// Attach a (caller-owned) thread pool; functional GEMMs then spread
  /// their independent output column tiles across its workers. Pass
  /// nullptr to detach. Results and the analytic cycle/latency models are
  /// bit-identical with or without a pool — the pool only changes host
  /// wall-clock. The pool must outlive the system (or be detached first).
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

 private:
  SystemConfig cfg_;
  MemoryInterface mem_;
  mutable ProcessingUnit pu_;  ///< functional engine (stateless between ops)
  ThreadPool* pool_ = nullptr;  ///< optional parallel execution engine
};

}  // namespace bfpsim
