// Static ISA program verifier — abstract interpretation of a compiled
// Program without executing it.
//
// The paper's value proposition rests on every carrier in the datapath
// being sized to the worst case (the 10-bit EU product, the 18-bit pass
// product, the PSU accumulator of Eqn 3). The compiler now emits arbitrary
// fused ISA programs; this pass lifts the hardware's by-construction
// guarantees to compile time. Four analysis families run over one forward
// pass plus an interval sweep:
//
//   1. def-use / liveness — every register read is dominated by a write,
//      no read of a retired value, no clobber of a live allocator value
//      (double retire), and the peak holder count stays within the
//      allocator's declared 240-register window. When the compiler
//      declares its value intervals (VerifyBindings::values) this
//      independently re-checks the two-phase liveness allocator.
//   2. shape / format flow — each instruction goes through the operand
//      contract the executor faults on (check_operands, isa/executor.hpp),
//      so every operand fault becomes a compile-time diagnostic with an
//      instruction index; plus block-boundary checks (column slices at bfp
//      block multiples).
//   3. bitwidth interval analysis — for every matmul, propagate the
//      mantissa-magnitude interval implied by FormatSpec{we,wm} and the K
//      reduction depth through the EU/PSU discipline and prove the
//      acc_bits carrier cannot overflow for any input (block modes: K/8
//      pass products of 2(wm-1)-bit element products; element modes: K
//      exact (wm+1)-bit-squared products; L-Mul: K single-width adder
//      products after the field carry; sliced fp32: the fixed 26-bit
//      aligned-add worst case). A violation names the instruction and the
//      smallest violating K. A companion real-magnitude interval sweep
//      warns about possible NaN/Inf escapes (rsqrt of possibly-negative
//      values, exp overflow, fp32 range).
//   4. device-memory capacity — the peak resident register-file footprint
//      (pre-bound tensors + computed values, overwrite frees the old
//      value) checked against the configured arena, matching
//      Executor::set_memory_limit byte for byte; spec-level verification
//      additionally checks serve_decode's paged-KV reservation
//      (kv_reservation, transformer/decoder.hpp) against the arena.
//
// The same shape walk prices the program: every instruction whose
// contracts hold is charged through instruction_cost (isa/executor.hpp),
// so a clean report carries the ExecutionStats Executor::run returns for
// any binding of the declared shapes — without the ABFT overhead only a
// run can know.
//
// Soundness contract (pinned by the differential fuzz harness in
// tests/test_verify.cpp): a program that verifies with no error-severity
// findings executes contract-clean on the Executor for any binding that
// honours the declared shapes and magnitude bound. The converse is
// deliberately one-directional — the verifier may reject programs that
// would happen to execute (a carrier bound proven for every input, a
// retired read), never the other way around. For operand faults alone
// the two sides are one rule, so they agree exactly
// (OperandContract.VerifierRejectsExactlyWhatExecutorFaults). The one
// data-dependent exception: a possible NaN/Inf escape is a domain-error
// warning, and the sliced fp32 datapath refuses NaN/Inf operands at run
// time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/graph.hpp"
#include "compiler/spec.hpp"
#include "fabric/system.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"

namespace bfpsim {

/// Finding categories (the "rule" field of the JSON report).
enum class VerifyKind {
  kUseBeforeDef,     ///< read of a register no write dominates
  kReadAfterRetire,  ///< read outside the owning value's live interval
  kDoubleRetire,     ///< two allocator values share a register while live
  kHolderOverflow,   ///< peak live values exceed the declared window
  kShapeMismatch,    ///< operand shape violates the opcode's contract
  kMisalignedSplit,  ///< column slice/concat off bfp block boundaries
  kUnknownMode,      ///< matmul mode annotation outside the registry
  kCarrierOverflow,  ///< PSU accumulator can overflow at this K
  kArenaOverflow,    ///< peak resident bytes exceed the arena
  kDomainError,      ///< possible NaN/Inf escape (rsqrt/div/exp/range)
};

const char* verify_kind_name(VerifyKind kind);

enum class VerifySeverity { kWarning, kError };

struct VerifyFinding {
  VerifyKind kind = VerifyKind::kShapeMismatch;
  VerifySeverity severity = VerifySeverity::kError;
  int inst = -1;  ///< instruction index (-1: program-level)
  std::string message;
  std::string snippet;  ///< disassembled instruction (or spec context)
};

/// One allocator-managed value: the compiler's declaration of which
/// register holds it and over which instruction interval it is live.
/// Pre-bound tensors (inputs/constants) have def_inst == -1; a value whose
/// producing node expands to several instructions uses the range start as
/// def_inst so intra-kernel reads of the destination stay in-interval.
struct VerifyValue {
  int reg = -1;
  int def_inst = -1;       ///< first instruction of the producing range
  int last_use_inst = -1;  ///< last instruction reading it (-1: never read)
  TensorShape shape;
  bool prebound = false;   ///< bound before execution
  /// Largest |value| this tensor can hold (constants: measured from the
  /// payload). < 0 means "use VerifyBindings::input_magnitude".
  double magnitude = -1.0;
};

/// The binding contract a program is verified against: which registers
/// hold data before execution starts, which register the epilogue reads,
/// and (optionally) the allocator's declared value intervals.
struct VerifyBindings {
  std::vector<VerifyValue> values;
  int output_reg = -1;           ///< epilogue read (-1: none)
  int declared_peak_regs = 240;  ///< the allocator's register window
  /// |value| bound assumed for pre-bound tensors without an explicit
  /// magnitude (run-time inputs).
  double input_magnitude = 1.0;
};

struct VerifyOptions {
  /// Device arena the peak resident footprint is checked against.
  /// 0 = kHbmCapacityBytes (8 GiB, DeviceMemory's default capacity).
  std::uint64_t arena_bytes = 0;
  /// Paged-KV page geometry for spec-level decoder verification.
  int page_tokens = 16;
  int batch = 1;
};

struct VerifyReport {
  std::vector<VerifyFinding> findings;
  std::uint64_t instructions_checked = 0;
  int peak_live_values = 0;              ///< declared-value holder peak
  std::uint64_t peak_resident_bytes = 0;  ///< register-file footprint
  std::string context;                    ///< spec/program label for JSON
  /// Why verify_model_spec did not compile and check the program ("" when
  /// it did): the report then covers the spec-level checks only.
  std::string skipped;
  /// The program's static price (exact when clean()).
  ExecutionStats price;
  /// What each instruction charges, indexed like the program.
  std::vector<InstructionCost> instruction_costs;

  [[nodiscard]] std::size_t errors() const;
  [[nodiscard]] std::size_t warnings() const;
  /// True when no error-severity finding was recorded.
  [[nodiscard]] bool clean() const { return errors() == 0; }

  /// Machine-readable report, same shape as bfpsim-lint's: {"version",
  /// "findings":[{"rule","file","line","message","snippet"}]} with "file"
  /// carrying the program/spec context and "line" the instruction index,
  /// plus "skipped" when the program-level check did not run.
  [[nodiscard]] std::string to_json() const;

  /// One-line human summary ("verify: 2 errors, 1 warning ...").
  [[nodiscard]] std::string summary() const;
};

/// Abstractly interpret `program` against `bindings` on `system`.
/// Never executes an instruction and never throws on a bad program — all
/// defects come back as findings.
[[nodiscard]] VerifyReport verify_program(
    const Program& program, const VerifyBindings& bindings,
    const AcceleratorSystem& system,
    const VerifyOptions& options = VerifyOptions{});

/// verify_program's price of a clean program: the ExecutionStats
/// Executor::run returns on any binding of the declared shapes (without
/// ABFT overhead). Throws when the program does not verify.
[[nodiscard]] ExecutionStats price_program(const Program& program,
                                           const VerifyBindings& bindings,
                                           const AcceleratorSystem& system);

/// Spec-level verification behind `bfpsim verify`: static checks on the
/// model geometry (GQA divisibility, block alignment of head/kv widths,
/// per-layer-kind carrier bounds over the spec's reduction depths, paged-
/// KV arena fit, multi-card shardability), plus — when the spec's graph is
/// small enough to materialize — a full compile + program verification.
[[nodiscard]] VerifyReport verify_model_spec(
    const ModelSpec& spec, const AcceleratorSystem& system, int cards = 1,
    const VerifyOptions& options = VerifyOptions{});

}  // namespace bfpsim
