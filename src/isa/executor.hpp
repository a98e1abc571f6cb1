// Interpreter for PU programs: a tensor register file bound to the
// accelerator system's numerics and latency models.
//
// Device opcodes execute with the accelerator's exact arithmetic (bfp8 GEMM
// through the golden PU path; fp32 vector ops through the sliced-multiply /
// aligned-add datapaths). Every instruction's operands are checked by
// check_operands, the one operand contract the static verifier applies
// too, and every instruction is charged by instruction_cost, the one
// cycle model: a function of opcode, operand shapes and system, never of
// tensor values. Host opcodes use IEEE arithmetic and are tallied
// separately, mirroring the paper's host-side division (Section III-B).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fabric/system.hpp"
#include "isa/program.hpp"
#include "numerics/nonlinear.hpp"
#include "reliability/abft.hpp"
#include "reliability/degradation.hpp"
#include "sim/counters.hpp"

namespace bfpsim {

/// A register-file tensor: row-major rows x cols.
struct RegTensor {
  int rows = 0;
  int cols = 0;
  std::vector<float> data;

  std::size_t size() const {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }
};

/// Why an instruction's operands break its opcode's contract.
enum class OperandFault : std::uint8_t {
  kNone,
  kShape,        ///< an operand shape disagrees with the opcode or m/k/n
  kSliceWindow,  ///< slice.cols window outside the operand's columns
  kUnknownMode,  ///< matmul mode annotation or system mode unregistered
};

/// The operand contract's verdict on one instruction.
struct OperandCheck {
  OperandFault fault = OperandFault::kNone;
  bool writes = true;   ///< defines dst (false for control opcodes)
  TensorShape result;   ///< dst shape; the nominal m x n after a fault
  std::string message;  ///< the broken rule; empty when ok()

  bool ok() const { return fault == OperandFault::kNone; }
};

/// The one operand contract: whether `inst`, reading operands of shapes
/// `shapes` (one per operands(inst) register, in order), satisfies its
/// opcode on `system` — operand shapes, the m/k/n fields, the slice window
/// and the matmul's numeric mode — and the shape it writes. The Executor
/// faults exactly when this fails; the static verifier reports the same
/// failure as a finding. A passing check builds no string.
OperandCheck check_operands(const Instruction& inst,
                            std::span<const TensorShape> shapes,
                            const AcceleratorSystem& system);

/// What one instruction charges.
struct InstructionCost {
  std::uint64_t device_cycles = 0;  ///< includes move_cycles
  std::uint64_t move_cycles = 0;
  std::uint64_t host_ops = 0;
  OpCounter ops;
};

/// The cost of `inst` given the shapes of its first two operands `a` and
/// `b` (b is read by concat.cols only). Each macro charges one
/// vector_latency pass over its whole op mix, the single charge
/// VitModel::forward_mixed makes per kernel call; a fused op charges the
/// passes of the sequence it fuses. The ABFT checksum overhead of a
/// protected matmul is not included: it depends on the faults a run meets.
InstructionCost instruction_cost(const Instruction& inst, TensorShape a,
                                 TensorShape b,
                                 const AcceleratorSystem& system);

/// What a program run consumed.
struct ExecutionStats {
  std::uint64_t device_cycles = 0;   ///< PU cycles incl. modelled memory I/O
  /// DMA/crossbar data-movement cycles (transpose/slice/concat). Included
  /// in device_cycles; tracked separately so compiled programs can pin
  /// compute-cycle identity against VitModel::forward_mixed, whose
  /// ForwardStats never charges host-side tensor shuffling.
  std::uint64_t move_cycles = 0;
  std::uint64_t host_ops = 0;        ///< host-CPU scalar operations
  OpCounter ops;                     ///< primitive operation mix
  std::uint64_t instructions = 0;
  /// reliability.* counters from ABFT-protected GEMMs (empty when the
  /// executor runs without a ReliabilityConfig).
  Counters reliability;

  double device_seconds(double freq_hz) const {
    return static_cast<double>(device_cycles) / freq_hz;
  }
  /// Add one instruction's cost.
  void charge(const InstructionCost& c) {
    device_cycles += c.device_cycles;
    move_cycles += c.move_cycles;
    host_ops += c.host_ops;
    ops += c.ops;
  }
};

/// Reliability posture of an executor: ABFT protection level, an optional
/// fault plan to inject from, and the quarantine policy for PE columns
/// that keep faulting (suspected hard faults).
struct ReliabilityConfig {
  AbftMode mode = AbftMode::kCorrect;
  /// Faults to inject (kPsuWord site). nullptr = protect without
  /// injecting; results are then bit-identical to the unprotected path
  /// and only the cycle model changes (checksum overhead).
  const FaultPlan* plan = nullptr;
  int max_retries = 2;
  /// Detected faults attributed to one PE column before it is
  /// quarantined and its work remapped onto the surviving columns.
  int quarantine_threshold = 3;
};

class Executor {
 public:
  explicit Executor(const AcceleratorSystem& system);

  /// Bind a tensor to register `r` (copies the data).
  void set_tensor(int r, int rows, int cols, std::span<const float> data);
  void set_tensor(int r, RegTensor t);

  /// Bind a shared immutable tensor to register `r` without copying it;
  /// it counts toward resident_bytes() exactly as a copy would. `bfp_b`,
  /// when set, is `t` quantized as a GEMM B operand
  /// (quantize_matrix(t->data, t->rows, t->cols, pu.bfp_format(),
  /// pu.quant_round)): a mode-0 kBfpMatmul without reliability that reads
  /// `r` as B uses it instead of quantizing the floats, which requires a
  /// bfp8-configured system.
  void bind(int r, std::shared_ptr<const RegTensor> t,
            std::shared_ptr<const BfpMatrix> bfp_b = nullptr);

  /// Read a register (throws if unset).
  const RegTensor& tensor(int r) const;

  /// Run a program to completion (or kHalt); returns the statistics.
  ExecutionStats run(const Program& program);

  /// Clear all registers.
  void reset();

  /// Cap the register file's resident footprint (bytes of live tensor
  /// data; an overwrite frees the old value first). 0 disables the check.
  /// Models the device arena: any write that would push the resident set
  /// past the limit faults, mirroring the static verifier's
  /// arena-overflow accounting byte for byte.
  void set_memory_limit(std::uint64_t bytes) { mem_limit_ = bytes; }
  std::uint64_t resident_bytes() const { return resident_; }

  /// Enable the reliability path: kBfpMatmul routes through the
  /// ABFT-protected GEMM (reliability/abft.hpp) and PE-column quarantine
  /// persists across run() calls until clear_reliability().
  void set_reliability(const ReliabilityConfig& cfg);
  void clear_reliability();
  bool reliability_enabled() const { return rel_.has_value(); }

  /// Quarantine state, or nullptr when reliability is disabled.
  const QuarantineState* quarantine() const {
    return quarantine_.has_value() ? &*quarantine_ : nullptr;
  }

 private:
  /// A register: its tensor and, for a bound weight, that tensor
  /// pre-quantized as a bfp8 GEMM B operand.
  struct Reg {
    std::shared_ptr<const RegTensor> t;
    std::shared_ptr<const BfpMatrix> bfp_b;
  };

  const Reg& reg(int r) const;
  /// The single register-write path: updates the resident-byte count and
  /// enforces the memory limit. All opcode handlers, set_tensor and bind
  /// route through here.
  void store(int r, RegTensor t);
  void store(int r, std::shared_ptr<const RegTensor> t,
             std::shared_ptr<const BfpMatrix> bfp_b);
  void exec_one(const Instruction& inst, ExecutionStats& stats);
  /// The result tensor of a non-control instruction whose operands (in
  /// operands(inst) order) passed check_operands.
  RegTensor compute(const Instruction& inst,
                    const std::array<const Reg*, 3>& in) const;
  void exec_matmul_reliable(const Instruction& inst, const RegTensor& a,
                            const RegTensor& b, ExecutionStats& stats);

  const AcceleratorSystem& system_;
  std::vector<Reg> regs_;
  std::optional<ReliabilityConfig> rel_;
  std::optional<QuarantineState> quarantine_;
  std::uint64_t mem_limit_ = 0;
  std::uint64_t resident_ = 0;
};

}  // namespace bfpsim
