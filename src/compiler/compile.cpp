#include "compiler/compile.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "isa/kernels.hpp"
#include "numerics/format/registry.hpp"

namespace bfpsim {

namespace {

/// Scratch registers reserved for micro-kernels (above the node window).
constexpr int kScratchWindow = 240;
constexpr int kMaxGraphNodes = kScratchWindow;

/// The frame of a one-input micro-kernel emitted over a node's registers
/// (gamma and beta are not read).
kernels::Frame unary_frame(int in, int out) {
  return {.in = in, .out = out, .gamma = 0, .beta = 0,
          .scratch = kScratchWindow};
}

/// 1-based index into numeric_modes() for an annotated matmul (0 = the
/// system default path). Throws on an unregistered name.
int mode_index_of(const std::string& mode) {
  if (mode.empty()) return 0;
  const auto& modes = numeric_modes();
  for (std::size_t i = 0; i < modes.size(); ++i) {
    if (modes[i].name == mode) return static_cast<int>(i) + 1;
  }
  throw ConfigError("compile: unknown numeric mode '" + mode +
                    "' annotated on a matmul");
}

const char* mode_name(const GraphNode& n) {
  switch (n.op) {
    case GraphOp::kInput: return "host-bind";
    case GraphOp::kConstant: return "host-bind";
    case GraphOp::kMatMul:
      return n.mode.empty() ? "bfp8-matmul" : "annotated-matmul";
    case GraphOp::kAdd:
    case GraphOp::kBiasAdd:
    case GraphOp::kFusedBiasResidual: return "fp32-acc";
    case GraphOp::kMul:
    case GraphOp::kScale: return "fp32-pe";
    case GraphOp::kTranspose:
    case GraphOp::kSliceCols:
    case GraphOp::kConcatCols: return "dma";
    case GraphOp::kLayerNorm:
    case GraphOp::kRmsNorm:
    case GraphOp::kSoftmax: return "fp32-vector (+host div)";
    case GraphOp::kGelu:
    case GraphOp::kSilu:
    case GraphOp::kRope:
    case GraphOp::kFusedBiasGelu:
    case GraphOp::kFusedBiasSilu: return "fp32-vector";
  }
  return "?";
}

/// Register assignment over the 240-register window. Graphs that fit use
/// the identity map (byte-stable with the id-as-register convention);
/// larger graphs reuse registers by liveness. Inputs and constants are
/// bound before execution, so they are live from program start; every
/// value stays live until its last consumer (the output until the end).
std::vector<int> assign_registers(const Graph& graph) {
  const auto& nodes = graph.nodes();
  std::vector<int> reg(nodes.size(), -1);
  if (nodes.size() <= static_cast<std::size_t>(kMaxGraphNodes)) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      reg[i] = static_cast<int>(i);
    }
    return reg;
  }

  std::vector<int> last_use(nodes.size(), -1);
  for (const GraphNode& n : nodes) {
    for (NodeId in : n.inputs) {
      last_use[static_cast<std::size_t>(in)] =
          std::max(last_use[static_cast<std::size_t>(in)], n.id);
    }
  }
  last_use[static_cast<std::size_t>(graph.output())] =
      static_cast<int>(nodes.size());  // live to the end

  // holder[r] = node currently occupying register r (-1 free).
  //
  // Two phases: inputs and constants are bound BEFORE the program
  // runs, so their registers are occupied from time 0 — a computed node
  // emitted earlier in the instruction stream must never share one.
  // Reserve them all first, then walk the computed nodes.
  std::vector<int> holder(kMaxGraphNodes, -1);
  auto take_free = [&]() {
    for (int r = 0; r < kMaxGraphNodes; ++r) {
      if (holder[r] < 0) return r;
    }
    BFP_REQUIRE(false,
                "compile: register allocation overflow (live values "
                "exceed the 240-register window)");
    return -1;
  };
  for (const GraphNode& n : nodes) {
    if (n.op != GraphOp::kInput && n.op != GraphOp::kConstant) continue;
    if (last_use[static_cast<std::size_t>(n.id)] < 0 &&
        n.op == GraphOp::kConstant) {
      continue;  // dead constant: never bound, no register needed
    }
    const int r = take_free();
    holder[r] = n.id;
    reg[static_cast<std::size_t>(n.id)] = r;
  }
  for (const GraphNode& n : nodes) {
    if (n.op == GraphOp::kInput || n.op == GraphOp::kConstant) continue;
    // Retire values whose last consumer is strictly before this node —
    // a value read *by* this node must survive it (dst never aliases a
    // live source).
    for (int r = 0; r < kMaxGraphNodes; ++r) {
      if (holder[r] >= 0 &&
          last_use[static_cast<std::size_t>(holder[r])] < n.id) {
        holder[r] = -1;
      }
    }
    if (last_use[static_cast<std::size_t>(n.id)] < 0) {
      continue;  // dead node: no register needed
    }
    const int r = take_free();
    holder[r] = n.id;
    reg[static_cast<std::size_t>(n.id)] = r;
  }
  return reg;
}

}  // namespace

CompiledModel compile(const Graph& graph, const AcceleratorSystem& system,
                      const CompileOptions& options) {
  BFP_REQUIRE(graph.size() > 0,
              "compile: graph must have at least one node");

  CompiledModel m;
  m.system_ = &system;
  m.resident_ = std::make_shared<CompiledModel::Resident>();
  const bool bfp8_system = system.config().pu.mode == "bfp8";
  std::vector<int> constant_index(graph.size(), -1);
  m.output_node_ = graph.output();
  m.output_shape_ = graph.node(m.output_node_).shape;

  const std::vector<int> reg = assign_registers(graph);
  auto reg_of = [&](NodeId id) {
    const int r = reg[static_cast<std::size_t>(id)];
    BFP_ASSERT(r >= 0);
    return r;
  };

  ProgramBuilder pb;
  // Emit ranges per node, in instruction-index space — the verifier's
  // declared liveness intervals are anchored on these.
  std::vector<int> emit_begin(graph.size(), 0);
  std::vector<int> emit_end(graph.size(), 0);
  for (const GraphNode& n : graph.nodes()) {
    emit_begin[static_cast<std::size_t>(n.id)] =
        static_cast<int>(pb.size());
    emit_end[static_cast<std::size_t>(n.id)] = static_cast<int>(pb.size());
    const bool dead =
        reg[static_cast<std::size_t>(n.id)] < 0 && n.op != GraphOp::kInput;
    if (dead && n.op != GraphOp::kConstant) {
      // Unconsumed node under register reuse: emit nothing for it.
      NodePlan plan;
      plan.id = n.id;
      plan.name = n.name;
      plan.op = n.op;
      plan.shape = n.shape;
      plan.mode = "dead";
      m.plan_.push_back(std::move(plan));
      continue;
    }
    const int dst = dead ? 0 : reg_of(n.id);
    switch (n.op) {
      case GraphOp::kInput:
        m.input_nodes_.push_back(n.id);
        m.input_regs_.push_back(dst);
        break;
      case GraphOp::kConstant:
        if (!dead) {
          constant_index[static_cast<std::size_t>(n.id)] =
              static_cast<int>(m.constants_.size());
          m.constants_.push_back(std::make_shared<const RegTensor>(
              RegTensor{n.shape.rows, n.shape.cols, n.value}));
          m.constant_regs_.push_back(dst);
          m.constant_is_bfp_b_.push_back(false);
        }
        break;
      case GraphOp::kMatMul: {
        const TensorShape& a = graph.node(n.inputs[0]).shape;
        const int b_const =
            constant_index[static_cast<std::size_t>(n.inputs[1])];
        if (bfp8_system && b_const >= 0 && mode_index_of(n.mode) == 0) {
          m.constant_is_bfp_b_[static_cast<std::size_t>(b_const)] = true;
        }
        pb.bfp_matmul(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]),
                      a.rows, a.cols, n.shape.cols, mode_index_of(n.mode));
        break;
      }
      case GraphOp::kAdd:
        pb.vec_add(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]));
        break;
      case GraphOp::kMul:
        pb.vec_mul(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]));
        break;
      case GraphOp::kScale:
        pb.vec_mul_scalar(dst, reg_of(n.inputs[0]), n.imm);
        break;
      case GraphOp::kBiasAdd:
        pb.col_add_bcast(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]),
                         n.shape.rows, n.shape.cols);
        break;
      case GraphOp::kTranspose: {
        const TensorShape& a = graph.node(n.inputs[0]).shape;
        pb.transpose(dst, reg_of(n.inputs[0]), a.rows, a.cols);
        break;
      }
      case GraphOp::kSliceCols:
        pb.slice_cols(dst, reg_of(n.inputs[0]), n.shape.rows, n.iarg,
                      n.shape.cols);
        break;
      case GraphOp::kConcatCols:
        pb.concat_cols(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]));
        break;
      case GraphOp::kLayerNorm: {
        if (options.macro_kernels) {
          pb.layernorm_m(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]),
                         reg_of(n.inputs[2]), n.shape.rows, n.shape.cols,
                         n.imm);
          break;
        }
        kernels::layernorm(pb, n.shape.rows, n.shape.cols, n.imm,
                           {.in = reg_of(n.inputs[0]),
                            .out = dst,
                            .gamma = reg_of(n.inputs[1]),
                            .beta = reg_of(n.inputs[2]),
                            .scratch = kScratchWindow});
        break;
      }
      case GraphOp::kSoftmax: {
        if (options.macro_kernels) {
          pb.softmax_m(dst, reg_of(n.inputs[0]), n.shape.rows,
                       n.shape.cols, options.softermax);
          break;
        }
        kernels::softmax(pb, n.shape.rows, n.shape.cols, options.softermax,
                         unary_frame(reg_of(n.inputs[0]), dst));
        break;
      }
      case GraphOp::kGelu: {
        if (options.macro_kernels) {
          pb.gelu_m(dst, reg_of(n.inputs[0]));
          break;
        }
        kernels::gelu(pb, unary_frame(reg_of(n.inputs[0]), dst));
        break;
      }
      case GraphOp::kSilu: {
        if (options.macro_kernels) {
          pb.silu_m(dst, reg_of(n.inputs[0]));
          break;
        }
        kernels::silu(pb, unary_frame(reg_of(n.inputs[0]), dst));
        break;
      }
      // The Llama-family and fused ops lower through their macro opcodes
      // in either mode (they have no inline micro-kernel form).
      case GraphOp::kRmsNorm:
        pb.rmsnorm_m(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]),
                     n.shape.rows, n.shape.cols, n.imm);
        break;
      case GraphOp::kRope:
        pb.rope(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]),
                reg_of(n.inputs[2]), n.shape.rows, n.shape.cols);
        break;
      case GraphOp::kFusedBiasGelu:
        pb.bias_gelu(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]),
                     n.shape.rows, n.shape.cols);
        break;
      case GraphOp::kFusedBiasSilu:
        pb.bias_silu(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]),
                     n.shape.rows, n.shape.cols);
        break;
      case GraphOp::kFusedBiasResidual:
        pb.bias_residual(dst, reg_of(n.inputs[0]), reg_of(n.inputs[1]),
                         reg_of(n.inputs[2]), n.shape.rows, n.shape.cols);
        break;
    }
    emit_end[static_cast<std::size_t>(n.id)] = static_cast<int>(pb.size());

    NodePlan plan;
    plan.id = n.id;
    plan.name = n.name;
    plan.op = n.op;
    plan.shape = n.shape;
    plan.mode = mode_name(n);
    if (!n.mode.empty() && n.op == GraphOp::kMatMul) {
      plan.mode = n.mode + "-matmul";
    }
    m.plan_.push_back(std::move(plan));
  }
  pb.halt();
  m.program_ = pb.build();
  m.output_reg_ = reg_of(m.output_node_);

  // Declare the allocator's value intervals for the static verifier.
  // A value's last read is the last instruction of its max-id consumer
  // (emission walks nodes in id order, so consumer ranges are ordered);
  // the output value is read by the epilogue at the halt.
  const int halt_idx = static_cast<int>(m.program_.size()) - 1;
  std::vector<int> last_read(graph.size(), -1);
  for (const GraphNode& n : graph.nodes()) {
    if (n.op == GraphOp::kInput || n.op == GraphOp::kConstant) continue;
    if (reg[static_cast<std::size_t>(n.id)] < 0) continue;  // emits nothing
    const int last = emit_end[static_cast<std::size_t>(n.id)] - 1;
    for (NodeId in : n.inputs) {
      last_read[static_cast<std::size_t>(in)] =
          std::max(last_read[static_cast<std::size_t>(in)], last);
    }
  }
  last_read[static_cast<std::size_t>(m.output_node_)] = halt_idx;
  for (const GraphNode& n : graph.nodes()) {
    const int r = reg[static_cast<std::size_t>(n.id)];
    if (r < 0) continue;  // dead under register reuse: no value exists
    VerifyValue v;
    v.reg = r;
    v.shape = n.shape;
    v.last_use_inst = last_read[static_cast<std::size_t>(n.id)];
    if (n.op == GraphOp::kInput) {
      v.prebound = true;
    } else if (n.op == GraphOp::kConstant) {
      v.prebound = true;
      double mx = 0.0;
      for (const float x : n.value) {
        mx = std::max(mx, std::abs(static_cast<double>(x)));
      }
      v.magnitude = mx;
    } else {
      v.def_inst = emit_begin[static_cast<std::size_t>(n.id)];
    }
    m.values_.push_back(v);
  }

  // Mandatory post-pass: refuse to hand out a program the verifier cannot
  // prove safe. The program bytes are already final — verification never
  // mutates them, so legacy byte-stability holds. The same walk prices
  // the program; each node is charged its instruction range.
  VerifyReport vr = verify_program(m.program_, m.verify_bindings(), system);
  if (!vr.clean()) {
    throw Error("compile: static verification failed: " + vr.summary());
  }
  const auto& insts = m.program_.instructions();
  for (NodePlan& p : m.plan_) {
    const auto id = static_cast<std::size_t>(p.id);
    for (int i = emit_begin[id]; i < emit_end[id]; ++i) {
      const auto at = static_cast<std::size_t>(i);
      const Instruction& inst = insts[at];
      const InstructionCost& cost = vr.instruction_costs[at];
      p.cycles += cost.device_cycles;
      p.ops += inst.op == Opcode::kBfpMatmul
                   ? 2ULL * inst.m * inst.k * inst.n
                   : cost.ops.device_flops();
    }
  }
  m.price_ = std::move(vr.price);
  return m;
}

VerifyBindings CompiledModel::verify_bindings() const {
  VerifyBindings b;
  b.values = values_;
  b.output_reg = output_reg_;
  b.declared_peak_regs = kScratchWindow;
  return b;
}

RunResult CompiledModel::run(
    std::span<const std::vector<float>> inputs) const {
  BFP_REQUIRE(system_ != nullptr && resident_ != nullptr,
              "CompiledModel: not compiled");
  BFP_REQUIRE(inputs.size() == input_nodes_.size(),
              "CompiledModel::run: wrong number of inputs");
  Executor ex(*system_);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    // Shapes are validated against the graph's input declarations.
    const NodeId id = input_nodes_[i];
    const NodePlan& plan = plan_[static_cast<std::size_t>(id)];
    BFP_REQUIRE(inputs[i].size() == plan.shape.elements(),
                "CompiledModel::run: input size mismatch for " + plan.name);
    ex.set_tensor(input_regs_[i], plan.shape.rows, plan.shape.cols,
                  inputs[i]);
  }
  std::call_once(resident_->once, [this] {
    const PuConfig& pu = system_->config().pu;
    resident_->bfp_b.resize(constants_.size());
    for (std::size_t i = 0; i < constants_.size(); ++i) {
      if (!constant_is_bfp_b_[i]) continue;
      const RegTensor& c = *constants_[i];
      resident_->bfp_b[i] = std::make_shared<const BfpMatrix>(quantize_matrix(
          c.data, c.rows, c.cols, pu.bfp_format(), pu.quant_round));
    }
  });
  for (std::size_t i = 0; i < constants_.size(); ++i) {
    ex.bind(constant_regs_[i], constants_[i], resident_->bfp_b[i]);
  }
  RunResult r;
  r.stats = ex.run(program_);
  r.output = ex.tensor(output_reg_).data;
  r.shape = output_shape_;
  return r;
}

std::string CompiledModel::report() const {
  std::ostringstream os;
  const double total = static_cast<double>(std::max<std::uint64_t>(
      1, price_.device_cycles));
  os << "node  op          mode                     shape            cycles"
        "   share\n";
  for (const NodePlan& p : plan_) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-4d  %-10s  %-23s  %5dx%-5d  %10llu  %5.1f%%  %s\n",
                  p.id, graph_op_name(p.op), p.mode.c_str(), p.shape.rows,
                  p.shape.cols,
                  static_cast<unsigned long long>(p.cycles),
                  100.0 * static_cast<double>(p.cycles) / total,
                  p.name.c_str());
    os << line;
  }
  return os.str();
}

}  // namespace bfpsim
