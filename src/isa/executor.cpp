#include "isa/executor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "numerics/format/registry.hpp"
#include "numerics/slices.hpp"

namespace bfpsim {

Executor::Executor(const AcceleratorSystem& system)
    : system_(system), regs_(kNumTensorRegs) {}

void Executor::set_tensor(int r, int rows, int cols,
                          std::span<const float> data) {
  BFP_REQUIRE(r >= 0 && r < kNumTensorRegs, "Executor: register out of range");
  BFP_REQUIRE(rows > 0 && cols > 0 &&
                  data.size() == static_cast<std::size_t>(rows) * cols,
              "Executor: tensor shape mismatch");
  RegTensor t;
  t.rows = rows;
  t.cols = cols;
  t.data.assign(data.begin(), data.end());
  store(r, std::move(t));
}

void Executor::set_tensor(int r, RegTensor t) {
  BFP_REQUIRE(r >= 0 && r < kNumTensorRegs, "Executor: register out of range");
  BFP_REQUIRE(t.data.size() == t.size(), "Executor: tensor shape mismatch");
  store(r, std::move(t));
}

void Executor::bind(int r, std::shared_ptr<const RegTensor> t,
                    std::shared_ptr<const BfpMatrix> bfp_b) {
  BFP_REQUIRE(r >= 0 && r < kNumTensorRegs, "Executor: register out of range");
  BFP_REQUIRE(t != nullptr && t->data.size() == t->size(),
              "Executor: tensor shape mismatch");
  store(r, std::move(t), std::move(bfp_b));
}

const Executor::Reg& Executor::reg(int r) const {
  BFP_REQUIRE(r >= 0 && r < kNumTensorRegs, "Executor: register out of range");
  const Reg& slot = regs_[static_cast<std::size_t>(r)];
  BFP_REQUIRE(slot.t != nullptr, "Executor: reading an unset register");
  return slot;
}

const RegTensor& Executor::tensor(int r) const { return *reg(r).t; }

void Executor::store(int r, RegTensor t) {
  store(r, std::make_shared<const RegTensor>(std::move(t)), nullptr);
}

void Executor::store(int r, std::shared_ptr<const RegTensor> t,
                     std::shared_ptr<const BfpMatrix> bfp_b) {
  Reg& slot = regs_[static_cast<std::size_t>(r)];
  if (slot.t != nullptr) {
    resident_ -= static_cast<std::uint64_t>(slot.t->size()) * sizeof(float);
  }
  resident_ += static_cast<std::uint64_t>(t->size()) * sizeof(float);
  slot = Reg{std::move(t), std::move(bfp_b)};
  BFP_REQUIRE(mem_limit_ == 0 || resident_ <= mem_limit_,
              "Executor: register file exceeds the device memory limit");
}

ExecutionStats Executor::run(const Program& program) {
  ExecutionStats stats;
  for (const Instruction& inst : program.instructions()) {
    if (inst.op == Opcode::kHalt) break;
    exec_one(inst, stats);
    ++stats.instructions;
  }
  return stats;
}

void Executor::reset() {
  for (Reg& r : regs_) r = Reg{};
  resident_ = 0;
}

void Executor::set_reliability(const ReliabilityConfig& cfg) {
  BFP_REQUIRE(cfg.max_retries >= 0,
              "Executor: max_retries must be >= 0");
  BFP_REQUIRE(cfg.quarantine_threshold >= 1,
              "Executor: quarantine_threshold must be >= 1");
  rel_ = cfg;
  quarantine_.emplace(system_.config().pu.array.cols,
                      cfg.quarantine_threshold);
}

void Executor::clear_reliability() {
  rel_.reset();
  quarantine_.reset();
}

void Executor::exec_matmul_reliable(const Instruction& inst,
                                    const RegTensor& a, const RegTensor& b,
                                    ExecutionStats& stats) {
  const SystemConfig& sc = system_.config();
  BfpFormat fmt;
  fmt.rows = sc.pu.array.rows;
  fmt.cols = sc.pu.array.cols;

  AbftOptions opt;
  opt.mode = rel_->mode;
  opt.plan = rel_->plan;
  opt.max_retries = rel_->max_retries;
  AbftGemmResult res =
      abft_gemm(a.data, a.rows, a.cols, b.data, b.cols, fmt,
                sc.pu.quant_round, sc.pu.psu_bits, opt,
                system_.thread_pool());

  RegTensor c;
  c.rows = inst.m;
  c.cols = inst.n;
  c.data = std::move(res.c);
  store(inst.dst, std::move(c));

  std::uint64_t cycles =
      system_.gemm_latency(inst.m, inst.k, inst.n).cycles;
  // Checksum and recompute MACs ride the MAC path only, so their cost is
  // charged against the compute share of the (memory-overlapped)
  // distributed latency — which is why end-to-end ABFT overhead stays
  // below the 25% MAC-path figure.
  const double f = res.work.overhead_fraction();
  if (f > 0.0) {
    const auto arrays = static_cast<std::uint64_t>(sc.num_units) *
                        static_cast<std::uint64_t>(sc.arrays_per_unit);
    const std::uint64_t compute =
        ProcessingUnit::gemm_cycles(sc.pu, inst.m, inst.k, inst.n);
    const std::uint64_t distributed = (compute + arrays - 1) / arrays;
    cycles += static_cast<std::uint64_t>(
        std::llround(f * static_cast<double>(distributed)));
  }

  quarantine_->record(res.column_faults);
  BFP_REQUIRE(quarantine_->active_columns() >= 1,
              "Executor: every PE column quarantined — unit is dead");
  if (quarantine_->degraded()) {
    stats.reliability.add("reliability.degraded_matmuls");
    cycles = quarantine_->scale_cycles(cycles);
  }
  stats.device_cycles += cycles;
  stats.reliability.merge(res.counters);
}

namespace {

RegTensor like(const RegTensor& a) {
  RegTensor t;
  t.rows = a.rows;
  t.cols = a.cols;
  t.data.assign(a.size(), 0.0F);
  return t;
}

/// out = a + v broadcast down the rows (v is 1 x a.cols), one aligned-add
/// span per row.
void add_bias_rows(const RegTensor& a, const RegTensor& v, RegTensor& out) {
  const auto cols = static_cast<std::size_t>(a.cols);
  for (std::size_t r = 0; r < static_cast<std::size_t>(a.rows); ++r) {
    fp32_add_aligned(std::span(a.data).subspan(r * cols, cols), v.data,
                     std::span(out.data).subspan(r * cols, cols));
  }
}

std::string shape_str(TensorShape s) {
  return std::to_string(s.rows) + "x" + std::to_string(s.cols);
}

}  // namespace

OperandCheck check_operands(const Instruction& inst,
                            std::span<const TensorShape> shapes,
                            const AcceleratorSystem& system) {
  BFP_ASSERT(shapes.size() ==
             static_cast<std::size_t>(operands(inst).count));
  const int m = inst.m;
  const int n = inst.n;
  const TensorShape mn{m, n};
  OperandCheck c;
  c.result = mn;
  auto fail = [&](OperandFault fault, const std::string& why) {
    c.fault = fault;
    c.result = mn;
    c.message = std::string(opcode_name(inst.op)) + ": " + why;
  };
  // Operand j must be `want`; records the first broken rule.
  auto is = [&](std::size_t j, TensorShape want) {
    if (shapes[j] == want) return true;
    static const char* const kRole[] = {"A", "B", "C"};
    fail(OperandFault::kShape, std::string("operand ") + kRole[j] + " is " +
                                   shape_str(shapes[j]) + ", expected " +
                                   shape_str(want));
    return false;
  };
  auto done = [&](TensorShape result) {
    c.result = result;
    return c;
  };
  switch (inst.op) {
    case Opcode::kNop:
    case Opcode::kSync:
    case Opcode::kHalt:
      c.writes = false;
      return c;

    case Opcode::kBfpMatmul: {
      // The mode first: it selects the datapath the shapes feed.
      const std::size_t idx = inst.mode_index();
      const std::string& sys_mode = system.config().pu.mode;
      if (idx == 0 && !is_numeric_mode(sys_mode)) {
        fail(OperandFault::kUnknownMode,
             "system mode '" + sys_mode +
                 "' is outside the numeric-mode registry");
        return c;
      }
      if (idx > numeric_modes().size()) {
        fail(OperandFault::kUnknownMode,
             "mode annotation " + std::to_string(idx) +
                 " is outside the numeric-mode registry (" +
                 std::to_string(numeric_modes().size()) + " modes)");
        return c;
      }
      if (!is(0, {m, inst.k}) || !is(1, {inst.k, n})) return c;
      return done(mn);
    }

    case Opcode::kVecMul:
    case Opcode::kVecAdd:
    case Opcode::kHostDiv:
      if (!is(1, shapes[0])) return c;
      return done(shapes[0]);

    case Opcode::kVecMulScalar:
    case Opcode::kVecAddScalar:
    case Opcode::kVecExp:
    case Opcode::kVecTanh:
    case Opcode::kHostRsqrt:
    case Opcode::kHostRecip:
    case Opcode::kGeluM:
    case Opcode::kSiluM:
      return done(shapes[0]);

    case Opcode::kRowSum:
    case Opcode::kRowMax:
      if (!is(0, mn)) return c;
      return done({m, 1});

    case Opcode::kRowSub:
    case Opcode::kRowMulBcast:
      if (!is(0, mn) || !is(1, {m, 1})) return c;
      return done(mn);

    case Opcode::kColAddBcast:
    case Opcode::kColMulBcast:
    case Opcode::kRmsNormM:
    case Opcode::kBiasGelu:
    case Opcode::kBiasSilu:
      if (!is(0, mn) || !is(1, {1, n})) return c;
      return done(mn);

    case Opcode::kLayerNormM:
      if (!is(0, mn) || !is(1, {1, n}) || !is(2, {1, n})) return c;
      return done(mn);

    case Opcode::kBiasResidual:
      if (!is(0, mn) || !is(1, {1, n}) || !is(2, mn)) return c;
      return done(mn);

    case Opcode::kSoftmaxM:
      if (!is(0, mn)) return c;
      return done(mn);

    case Opcode::kRope:
      if (!is(0, mn)) return c;
      if (n % 2 != 0) {
        fail(OperandFault::kShape,
             "head dim " + std::to_string(n) + " must be even");
        return c;
      }
      if (!is(1, mn) || !is(2, mn)) return c;
      return done(mn);

    case Opcode::kTranspose:
      if (!is(0, mn)) return c;
      return done({n, m});

    case Opcode::kSliceCols:
      if (shapes[0].rows != m) {
        fail(OperandFault::kShape,
             "operand has " + std::to_string(shapes[0].rows) +
                 " rows, expected " + std::to_string(m));
        return c;
      }
      if (n == 0 || inst.k + n > shapes[0].cols) {
        fail(OperandFault::kSliceWindow,
             "window [" + std::to_string(inst.k) + ", " +
                 std::to_string(inst.k + n) + ") is outside the operand's " +
                 std::to_string(shapes[0].cols) + " columns");
        return c;
      }
      return done(mn);

    case Opcode::kConcatCols:
      if (shapes[1].rows != shapes[0].rows) {
        fail(OperandFault::kShape,
             "row counts " + std::to_string(shapes[0].rows) + " and " +
                 std::to_string(shapes[1].rows) + " must match");
        return c;
      }
      return done({shapes[0].rows, shapes[0].cols + shapes[1].cols});
  }
  // An opcode value outside the enum (decode rejects it; a hand-built
  // Program can still carry one) reads and writes nothing.
  c.writes = false;
  fail(OperandFault::kShape,
       "invalid opcode " + std::to_string(static_cast<int>(inst.op)));
  return c;
}

void Executor::exec_one(const Instruction& inst, ExecutionStats& stats) {
  const Operands ops = operands(inst);
  std::array<const Reg*, 3> in{};
  std::array<TensorShape, 3> shapes{};
  for (int j = 0; j < ops.count; ++j) {
    const auto u = static_cast<std::size_t>(j);
    in[u] = &reg(ops.regs[u]);
    shapes[u] = {in[u]->t->rows, in[u]->t->cols};
  }
  const OperandCheck check = check_operands(
      inst, std::span(shapes).first(static_cast<std::size_t>(ops.count)),
      system_);
  if (!check.ok()) throw Error(check.message);
  if (!check.writes) return;
  if (inst.op == Opcode::kBfpMatmul && rel_.has_value() &&
      inst.mode_index() == 0) {
    exec_matmul_reliable(inst, *in[0]->t, *in[1]->t, stats);
    return;
  }
  RegTensor c = compute(inst, in);
  BFP_ASSERT(c.rows == check.result.rows && c.cols == check.result.cols);
  stats.charge(instruction_cost(inst, shapes[0], shapes[1], system_));
  store(inst.dst, std::move(c));
}

RegTensor Executor::compute(const Instruction& inst,
                            const std::array<const Reg*, 3>& in) const {
  const RegTensor& a = *in[0]->t;
  switch (inst.op) {
    case Opcode::kNop:
    case Opcode::kSync:
    case Opcode::kHalt:
      break;

    case Opcode::kBfpMatmul: {
      // A nonzero flags low byte is a per-layer NumericMode annotation
      // from the graph compiler (i+1 = numeric_modes()[i]); it overrides
      // the system's configured mode for this matmul only. Mode-annotated
      // matmuls bypass the ABFT path — like the system-wide mode switch,
      // checksum protection is a bfp8-datapath feature. A B register bound
      // with its pre-quantized operand (bind) skips B's quantization; the
      // ABFT and mode-annotated paths read the floats.
      const RegTensor& b = *in[1]->t;
      const BfpMatrix* bfp_b = in[1]->bfp_b.get();
      const GemmRun run =
          inst.mode_index() == 0
              ? (bfp_b != nullptr
                     ? system_.gemm(a.data, a.rows, a.cols, *bfp_b, b.cols)
                     : system_.gemm(a.data, a.rows, a.cols, b.data, b.cols))
              : system_.gemm(numeric_modes()[inst.mode_index() - 1U], a.data,
                             a.rows, a.cols, b.data, b.cols);
      return RegTensor{inst.m, inst.n, run.c};
    }

    case Opcode::kVecMul: {
      const RegTensor& b = *in[1]->t;
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = fp32_mul_sliced(a.data[i], b.data[i]);
      }
      return c;
    }

    case Opcode::kVecAdd: {
      RegTensor c = like(a);
      fp32_add_aligned(a.data, in[1]->t->data, c.data);
      return c;
    }

    case Opcode::kVecMulScalar:
    case Opcode::kVecAddScalar: {
      const bool is_mul = inst.op == Opcode::kVecMulScalar;
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = is_mul ? fp32_mul_sliced(a.data[i], inst.imm)
                           : fp32_add_aligned(a.data[i], inst.imm);
      }
      return c;
    }

    case Opcode::kVecExp: {
      RegTensor c = like(a);
      const bool fast = (inst.flags & 1) != 0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = fast ? approx_exp_split(a.data[i]) : approx_exp(a.data[i]);
      }
      return c;
    }

    case Opcode::kVecTanh: {
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = approx_tanh(a.data[i]);
      }
      return c;
    }

    case Opcode::kRowSum: {
      RegTensor c{a.rows, 1, std::vector<float>(static_cast<std::size_t>(a.rows))};
      for (int r = 0; r < a.rows; ++r) {
        float acc = 0.0F;
        for (int j = 0; j < a.cols; ++j) {
          acc = fp32_add_aligned(
              acc, a.data[static_cast<std::size_t>(r) * a.cols + j]);
        }
        c.data[static_cast<std::size_t>(r)] = acc;
      }
      return c;
    }

    case Opcode::kRowMax: {
      RegTensor c{a.rows, 1, std::vector<float>(static_cast<std::size_t>(a.rows))};
      for (int r = 0; r < a.rows; ++r) {
        float mx = a.data[static_cast<std::size_t>(r) * a.cols];
        for (int j = 1; j < a.cols; ++j) {
          mx = std::max(mx,
                        a.data[static_cast<std::size_t>(r) * a.cols + j]);
        }
        c.data[static_cast<std::size_t>(r)] = mx;
      }
      return c;
    }

    case Opcode::kRowSub:
    case Opcode::kRowMulBcast: {
      const bool is_sub = inst.op == Opcode::kRowSub;
      const RegTensor& v = *in[1]->t;
      RegTensor c = like(a);
      for (int r = 0; r < a.rows; ++r) {
        const float vr = v.data[static_cast<std::size_t>(r)];
        for (int j = 0; j < a.cols; ++j) {
          const std::size_t i = static_cast<std::size_t>(r) * a.cols + j;
          c.data[i] = is_sub ? fp32_add_aligned(a.data[i], -vr)
                             : fp32_mul_sliced(a.data[i], vr);
        }
      }
      return c;
    }

    case Opcode::kColAddBcast: {
      RegTensor c = like(a);
      add_bias_rows(a, *in[1]->t, c);
      return c;
    }

    case Opcode::kColMulBcast: {
      const RegTensor& v = *in[1]->t;
      RegTensor c = like(a);
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < a.cols; ++j) {
          const std::size_t i = static_cast<std::size_t>(r) * a.cols + j;
          c.data[i] =
              fp32_mul_sliced(a.data[i], v.data[static_cast<std::size_t>(j)]);
        }
      }
      return c;
    }

    case Opcode::kTranspose: {
      RegTensor c{a.cols, a.rows, std::vector<float>(a.size())};
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < a.cols; ++j) {
          c.data[static_cast<std::size_t>(j) * a.rows + r] =
              a.data[static_cast<std::size_t>(r) * a.cols + j];
        }
      }
      return c;
    }

    case Opcode::kSliceCols: {
      const int start = inst.k;
      const int width = inst.n;
      RegTensor c;
      c.rows = a.rows;
      c.cols = width;
      c.data.resize(c.size());
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < width; ++j) {
          c.data[static_cast<std::size_t>(r) * width + j] =
              a.data[static_cast<std::size_t>(r) * a.cols + start + j];
        }
      }
      return c;
    }

    case Opcode::kConcatCols: {
      const RegTensor& b = *in[1]->t;
      RegTensor c;
      c.rows = a.rows;
      c.cols = a.cols + b.cols;
      c.data.resize(c.size());
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < a.cols; ++j) {
          c.data[static_cast<std::size_t>(r) * c.cols + j] =
              a.data[static_cast<std::size_t>(r) * a.cols + j];
        }
        for (int j = 0; j < b.cols; ++j) {
          c.data[static_cast<std::size_t>(r) * c.cols + a.cols + j] =
              b.data[static_cast<std::size_t>(r) * b.cols + j];
        }
      }
      return c;
    }

    case Opcode::kHostDiv: {
      const RegTensor& b = *in[1]->t;
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = a.data[i] / b.data[i];
      }
      return c;
    }

    case Opcode::kHostRecip: {
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = 1.0F / a.data[i];
      }
      return c;
    }

    case Opcode::kHostRsqrt: {
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = 1.0F / std::sqrt(a.data[i] + inst.imm);
      }
      return c;
    }

    // ---- macro kernels: the controller expands these into the exact
    // nonlinear.* micro-programs VitModel::forward_mixed runs. ----

    case Opcode::kLayerNormM: {
      const RegTensor& gamma = *in[1]->t;
      const RegTensor& beta = *in[2]->t;
      return RegTensor{a.rows, a.cols,
                       approx_layernorm(a.data, a.rows, a.cols, gamma.data,
                                        beta.data, nullptr, inst.imm)};
    }

    case Opcode::kRmsNormM: {
      const RegTensor& gamma = *in[1]->t;
      return RegTensor{a.rows, a.cols,
                       approx_rmsnorm(a.data, a.rows, a.cols, gamma.data,
                                      nullptr, inst.imm)};
    }

    case Opcode::kSoftmaxM:
      return RegTensor{a.rows, a.cols,
                       approx_softmax(a.data, a.rows, a.cols, nullptr,
                                      (inst.flags & 1) != 0)};

    case Opcode::kGeluM:
      return RegTensor{a.rows, a.cols, approx_gelu(std::span(a.data))};
    case Opcode::kSiluM:
      return RegTensor{a.rows, a.cols, approx_silu(std::span(a.data))};

    case Opcode::kRope: {
      const RegTensor& cs = *in[1]->t;
      const RegTensor& sn = *in[2]->t;
      RegTensor c = like(a);
      const int half = a.cols / 2;
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < a.cols; ++j) {
          const std::size_t i = static_cast<std::size_t>(r) * a.cols + j;
          // rotate_half: first half takes -x[second half], second half
          // takes x[first half] (sign flip is an EU exponent-field op).
          const std::size_t ri =
              static_cast<std::size_t>(r) * a.cols +
              (j < half ? j + half : j - half);
          const float rot = j < half ? -a.data[ri] : a.data[ri];
          c.data[i] =
              fp32_add_aligned(fp32_mul_sliced(a.data[i], cs.data[i]),
                               fp32_mul_sliced(rot, sn.data[i]));
        }
      }
      return c;
    }

    // ---- fused ops: the same arithmetic as the unfused sequence. ----

    case Opcode::kBiasGelu:
    case Opcode::kBiasSilu: {
      RegTensor c = like(a);
      add_bias_rows(a, *in[1]->t, c);
      c.data = inst.op == Opcode::kBiasGelu ? approx_gelu(std::span(c.data))
                                            : approx_silu(std::span(c.data));
      return c;
    }

    case Opcode::kBiasResidual: {
      RegTensor c = like(a);
      // out = residual + (a + bias): the same aligned-add order as the
      // legacy forward's add_bias / add_residual pair.
      add_bias_rows(a, *in[1]->t, c);
      fp32_add_aligned(in[2]->t->data, c.data, c.data);
      return c;
    }
  }
  BFP_ASSERT(false);
  return {};
}

InstructionCost instruction_cost(const Instruction& inst, TensorShape a,
                                 TensorShape b,
                                 const AcceleratorSystem& system) {
  const std::uint64_t e = a.elements();
  InstructionCost c;
  // One vector pass over an op mix.
  auto pass = [&](const OpCounter& mix) {
    c.ops += mix;
    c.device_cycles += system.vector_latency(mix.fp_mul, mix.fp_add).cycles;
  };
  // Pure data movement on the DMA path: its transfer time.
  auto move = [&](std::uint64_t elems) {
    const std::uint64_t dma =
        elems * 4 /
        static_cast<std::uint64_t>(
            system.memory().hbm().bytes_per_cycle_total());
    c.device_cycles += dma;
    c.move_cycles += dma;
  };
  switch (inst.op) {
    case Opcode::kNop:
    case Opcode::kSync:
    case Opcode::kHalt:
      break;
    case Opcode::kBfpMatmul: {
      const int idx = inst.mode_index();
      const NumericMode& mode =
          idx == 0 ? numeric_mode(system.config().pu.mode)
                   : numeric_modes()[static_cast<std::size_t>(idx - 1)];
      c.device_cycles = system.gemm_cycles(mode, inst.m, inst.k, inst.n);
      break;
    }
    case Opcode::kVecMul:
    case Opcode::kVecMulScalar:
    case Opcode::kRowMulBcast:
    case Opcode::kColMulBcast:
      pass({.fp_mul = e});
      break;
    case Opcode::kVecAdd:
    case Opcode::kVecAddScalar:
    case Opcode::kRowSum:
    case Opcode::kRowSub:
    case Opcode::kColAddBcast:
      pass({.fp_add = e});
      break;
    case Opcode::kVecExp:
      pass((inst.flags & 1) != 0 ? approx_exp_split_ops(e)
                                 : approx_exp_ops(e));
      break;
    case Opcode::kVecTanh:
      pass(approx_tanh_ops(e));
      break;
    case Opcode::kRowMax:
      c.ops.host_other = e;
      break;
    case Opcode::kHostDiv:
    case Opcode::kHostRecip:
    case Opcode::kHostRsqrt:
      c.ops.host_div = e;
      break;
    case Opcode::kTranspose:
      move(e);
      break;
    case Opcode::kSliceCols:
      move(static_cast<std::uint64_t>(a.rows) * inst.n);
      break;
    case Opcode::kConcatCols:
      move(e + b.elements());
      break;
    case Opcode::kLayerNormM:
      pass(approx_layernorm_ops(a.rows, a.cols));
      break;
    case Opcode::kRmsNormM:
      pass(approx_rmsnorm_ops(a.rows, a.cols));
      break;
    case Opcode::kSoftmaxM:
      pass(approx_softmax_ops(a.rows, a.cols, (inst.flags & 1) != 0));
      break;
    case Opcode::kGeluM:
      pass(approx_gelu_ops(e));
      break;
    case Opcode::kSiluM:
      pass(approx_silu_ops(e));
      break;
    case Opcode::kRope:
      pass({.fp_mul = 2 * e, .fp_add = e, .exp_manip = e});
      break;
    case Opcode::kBiasGelu:
      pass({.fp_add = e});
      pass(approx_gelu_ops(e));
      break;
    case Opcode::kBiasSilu:
      pass({.fp_add = e});
      pass(approx_silu_ops(e));
      break;
    case Opcode::kBiasResidual:
      pass({.fp_add = e});
      pass({.fp_add = e});
      break;
  }
  c.host_ops = c.ops.host_div + c.ops.host_other;
  return c;
}

}  // namespace bfpsim
