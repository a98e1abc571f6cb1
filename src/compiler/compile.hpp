// Graph -> ISA compilation: assigns every graph node to a hardware mode of
// the multi-mode unit, emits one executable Program, and carries its static
// price per node (the schedule a deployment compiler would print).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "compiler/graph.hpp"
#include "compiler/verify.hpp"
#include "fabric/system.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"

namespace bfpsim {

/// Lowering knobs.
struct CompileOptions {
  /// Lower LayerNorm/RMSNorm/Softmax/GELU/SiLU through the single macro
  /// opcodes (isa/instruction.hpp) instead of inlined micro-kernel
  /// expansions. The macros run the exact approx_* arithmetic and charge
  /// one vector pass per invocation — the contract that makes compiled
  /// encoders bit- and cycle-identical to VitModel::forward_mixed. Off by
  /// default to keep legacy compiled programs byte-stable.
  bool macro_kernels = false;
  /// Lower every softmax with the Softermax split exp (the exp2-unit
  /// option): the split-exp bit on softmax.macro or the kernel's vec.exp.
  bool softermax = false;
};

/// Per-node scheduling decision and price.
struct NodePlan {
  NodeId id = -1;
  std::string name;
  GraphOp op = GraphOp::kInput;
  TensorShape shape;
  std::string mode;          ///< "bfp8-matmul" / "fp32-vector" / ...
  std::uint64_t cycles = 0;  ///< device cycles of the node's instructions
  /// Operations of the node's instructions: 2·m·k·n per GEMM, the device
  /// flops (fp32 mul/add and exponent-unit ops) of every vector pass.
  std::uint64_t ops = 0;
};

/// Result of executing a compiled model.
struct RunResult {
  std::vector<float> output;
  TensorShape shape;
  ExecutionStats stats;
};

class CompiledModel {
 public:
  /// Execute with the given input tensors (one per kInput node, in graph
  /// order). Constants were captured at compile time and are bound by
  /// reference, not copied. On a bfp8 system, each constant read as B by
  /// a mode-0 matmul is quantized once, by the first run(), and every run
  /// binds that resident operand. Safe to call concurrently.
  RunResult run(std::span<const std::vector<float>> inputs) const;

  /// The emitted instruction stream.
  const Program& program() const { return program_; }

  /// The static schedule.
  const std::vector<NodePlan>& plan() const { return plan_; }

  /// The program's static price: what run() returns in stats for any
  /// inputs (price_program over verify_bindings()).
  const ExecutionStats& price() const { return price_; }

  /// Human-readable schedule report (one row per node).
  std::string report() const;

  /// The binding contract the static verifier checks this program against:
  /// pre-bound input/constant registers, the allocator's declared value
  /// intervals, and the epilogue's output register. compile() runs
  /// verify_program over exactly these bindings as a mandatory post-pass.
  VerifyBindings verify_bindings() const;

 private:
  friend CompiledModel compile(const Graph& graph,
                               const AcceleratorSystem& system,
                               const CompileOptions& options);

  /// Constants' operands quantized as bfp8 B (null for the others),
  /// built once under `once`. Heap-held so the model stays movable.
  struct Resident {
    std::once_flag once;
    std::vector<std::shared_ptr<const BfpMatrix>> bfp_b;
  };

  const AcceleratorSystem* system_ = nullptr;
  Program program_;
  std::vector<NodePlan> plan_;
  std::vector<NodeId> input_nodes_;
  std::vector<int> input_regs_;      ///< register per input node
  std::vector<std::shared_ptr<const RegTensor>> constants_;
  std::vector<int> constant_regs_;   ///< register per constant node
  /// Per constant: read as B by a mode-0 kBfpMatmul on a bfp8 system.
  std::vector<bool> constant_is_bfp_b_;
  std::shared_ptr<Resident> resident_;
  NodeId output_node_ = -1;
  int output_reg_ = -1;
  TensorShape output_shape_;
  std::vector<VerifyValue> values_;  ///< declared allocator value intervals
  ExecutionStats price_;
};

/// Compile a graph for an accelerator system. Graphs up to 240 nodes get
/// the identity register assignment (register = node id, byte-stable with
/// earlier compiler versions); larger graphs go through liveness-based
/// register reuse over the same 240-register window (constants are bound
/// before execution, so they stay live from program start to last use).
/// The emitted program is statically verified (compiler/verify.hpp) before
/// it is returned; a program with error-severity findings throws, so every
/// CompiledModel is proven shape-, liveness-, carrier- and memory-safe.
[[nodiscard]] CompiledModel compile(
    const Graph& graph, const AcceleratorSystem& system,
    const CompileOptions& options = CompileOptions{});

}  // namespace bfpsim
