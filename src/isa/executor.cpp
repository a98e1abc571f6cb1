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

void require_same_shape(const RegTensor& a, const RegTensor& b,
                        const char* what) {
  BFP_REQUIRE(a.rows == b.rows && a.cols == b.cols,
              std::string(what) + ": operand shapes must match");
}

RegTensor like(const RegTensor& a) {
  RegTensor t;
  t.rows = a.rows;
  t.cols = a.cols;
  t.data.assign(a.size(), 0.0F);
  return t;
}

}  // namespace

void Executor::exec_one(const Instruction& inst, ExecutionStats& stats) {
  switch (inst.op) {
    case Opcode::kNop:
    case Opcode::kSync:
    case Opcode::kHalt:
      return;

    case Opcode::kBfpMatmul: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& b = tensor(inst.src_b);
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.k,
                  "bfp.matmul: A shape mismatch");
      BFP_REQUIRE(b.rows == inst.k && b.cols == inst.n,
                  "bfp.matmul: B shape mismatch");
      if (rel_.has_value() && inst.mode_index() == 0) {
        exec_matmul_reliable(inst, a, b, stats);
        return;
      }
      // A nonzero flags low byte is a per-layer NumericMode annotation
      // from the graph compiler (i+1 = numeric_modes()[i]); it overrides
      // the system's configured mode for this matmul only. Mode-annotated
      // matmuls bypass the ABFT path — like the system-wide mode switch,
      // checksum protection is a bfp8-datapath feature. A B register bound
      // with its pre-quantized operand (bind) skips B's quantization; the
      // ABFT and mode-annotated paths read the floats.
      const BfpMatrix* bfp_b = reg(inst.src_b).bfp_b.get();
      const GemmRun run =
          inst.mode_index() == 0
              ? (bfp_b != nullptr
                     ? system_.gemm(a.data, a.rows, a.cols, *bfp_b, b.cols)
                     : system_.gemm(a.data, a.rows, a.cols, b.data, b.cols))
              : [&] {
                  const auto& modes = numeric_modes();
                  const std::size_t idx = inst.mode_index() - 1U;
                  BFP_REQUIRE(idx < modes.size(),
                              "bfp.matmul: mode annotation out of range");
                  return system_.gemm(modes[idx], a.data, a.rows, a.cols,
                                      b.data, b.cols);
                }();
      RegTensor c;
      c.rows = inst.m;
      c.cols = inst.n;
      c.data = run.c;
      store(inst.dst, std::move(c));
      stats.device_cycles += run.compute_cycles;
      return;
    }

    case Opcode::kVecMul: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& b = tensor(inst.src_b);
      require_same_shape(a, b, "vec.mul");
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = fp32_mul_sliced(a.data[i], b.data[i]);
      }
      stats.ops.fp_mul += a.size();
      stats.device_cycles +=
          system_.vector_latency(a.size(), 0).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kVecAdd: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& b = tensor(inst.src_b);
      require_same_shape(a, b, "vec.add");
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = fp32_add_aligned(a.data[i], b.data[i]);
      }
      stats.ops.fp_add += a.size();
      stats.device_cycles +=
          system_.vector_latency(0, a.size()).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kVecMulScalar: {
      const RegTensor& a = tensor(inst.src_a);
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = fp32_mul_sliced(a.data[i], inst.imm);
      }
      stats.ops.fp_mul += a.size();
      stats.device_cycles +=
          system_.vector_latency(a.size(), 0).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kVecAddScalar: {
      const RegTensor& a = tensor(inst.src_a);
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = fp32_add_aligned(a.data[i], inst.imm);
      }
      stats.ops.fp_add += a.size();
      stats.device_cycles +=
          system_.vector_latency(0, a.size()).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kVecExp: {
      const RegTensor& a = tensor(inst.src_a);
      RegTensor c = like(a);
      OpCounter local;
      const bool fast = (inst.flags & 1) != 0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = fast ? approx_exp_split(a.data[i], &local)
                         : approx_exp(a.data[i], &local);
      }
      stats.ops += local;
      stats.device_cycles +=
          system_.vector_latency(local.fp_mul, local.fp_add).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kVecTanh: {
      const RegTensor& a = tensor(inst.src_a);
      RegTensor c = like(a);
      OpCounter local;
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = approx_tanh(a.data[i], &local);
      }
      stats.ops += local;
      stats.host_ops += local.host_other;
      stats.device_cycles +=
          system_.vector_latency(local.fp_mul, local.fp_add).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kRowSum: {
      const RegTensor& a = tensor(inst.src_a);
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "row.sum: shape mismatch");
      RegTensor c;
      c.rows = a.rows;
      c.cols = 1;
      c.data.assign(static_cast<std::size_t>(a.rows), 0.0F);
      for (int r = 0; r < a.rows; ++r) {
        float acc = 0.0F;
        for (int j = 0; j < a.cols; ++j) {
          acc = fp32_add_aligned(
              acc, a.data[static_cast<std::size_t>(r) * a.cols + j]);
        }
        c.data[static_cast<std::size_t>(r)] = acc;
      }
      stats.ops.fp_add += a.size();
      stats.device_cycles += system_.vector_latency(0, a.size()).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kRowMax: {
      const RegTensor& a = tensor(inst.src_a);
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "row.max: shape mismatch");
      RegTensor c;
      c.rows = a.rows;
      c.cols = 1;
      c.data.assign(static_cast<std::size_t>(a.rows), 0.0F);
      for (int r = 0; r < a.rows; ++r) {
        float mx = a.data[static_cast<std::size_t>(r) * a.cols];
        for (int j = 1; j < a.cols; ++j) {
          mx = std::max(mx,
                        a.data[static_cast<std::size_t>(r) * a.cols + j]);
        }
        c.data[static_cast<std::size_t>(r)] = mx;
      }
      stats.ops.host_other += a.size();
      stats.host_ops += a.size();
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kRowSub: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& v = tensor(inst.src_b);
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "row.sub: shape mismatch");
      BFP_REQUIRE(v.rows == a.rows && v.cols == 1,
                  "row.sub: row vector must be (rows x 1)");
      RegTensor c = like(a);
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < a.cols; ++j) {
          c.data[static_cast<std::size_t>(r) * a.cols + j] = fp32_add_aligned(
              a.data[static_cast<std::size_t>(r) * a.cols + j],
              -v.data[static_cast<std::size_t>(r)]);
        }
      }
      stats.ops.fp_add += a.size();
      stats.device_cycles += system_.vector_latency(0, a.size()).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kRowMulBcast: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& v = tensor(inst.src_b);
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "row.mulb: shape mismatch");
      BFP_REQUIRE(v.rows == a.rows && v.cols == 1,
                  "row.mulb: row vector must be (rows x 1)");
      RegTensor c = like(a);
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < a.cols; ++j) {
          c.data[static_cast<std::size_t>(r) * a.cols + j] = fp32_mul_sliced(
              a.data[static_cast<std::size_t>(r) * a.cols + j],
              v.data[static_cast<std::size_t>(r)]);
        }
      }
      stats.ops.fp_mul += a.size();
      stats.device_cycles += system_.vector_latency(a.size(), 0).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kColAddBcast:
    case Opcode::kColMulBcast: {
      const bool is_add = inst.op == Opcode::kColAddBcast;
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& v = tensor(inst.src_b);
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "col broadcast: shape mismatch");
      BFP_REQUIRE(v.rows == 1 && v.cols == a.cols,
                  "col broadcast: vector must be (1 x cols)");
      RegTensor c = like(a);
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < a.cols; ++j) {
          const std::size_t i = static_cast<std::size_t>(r) * a.cols + j;
          c.data[i] = is_add
                          ? fp32_add_aligned(
                                a.data[i], v.data[static_cast<std::size_t>(j)])
                          : fp32_mul_sliced(
                                a.data[i], v.data[static_cast<std::size_t>(j)]);
        }
      }
      if (is_add) {
        stats.ops.fp_add += a.size();
        stats.device_cycles += system_.vector_latency(0, a.size()).cycles;
      } else {
        stats.ops.fp_mul += a.size();
        stats.device_cycles += system_.vector_latency(a.size(), 0).cycles;
      }
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kTranspose: {
      const RegTensor& a = tensor(inst.src_a);
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "transpose: shape mismatch");
      RegTensor c;
      c.rows = a.cols;
      c.cols = a.rows;
      c.data.assign(a.size(), 0.0F);
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < a.cols; ++j) {
          c.data[static_cast<std::size_t>(j) * a.rows + r] =
              a.data[static_cast<std::size_t>(r) * a.cols + j];
        }
      }
      // Pure data movement on the DMA path; charge its transfer time.
      const std::uint64_t dma =
          a.size() * 4 /
          static_cast<std::uint64_t>(
              system_.memory().hbm().bytes_per_cycle_total());
      stats.device_cycles += dma;
      stats.move_cycles += dma;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kSliceCols: {
      const RegTensor& a = tensor(inst.src_a);
      const int start = inst.k;
      const int width = inst.n;
      BFP_REQUIRE(a.rows == inst.m, "slice.cols: row count mismatch");
      BFP_REQUIRE(width > 0 && start >= 0 && start + width <= a.cols,
                  "slice.cols: slice out of range");
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
      const std::uint64_t dma =
          c.size() * 4 /
          static_cast<std::uint64_t>(
              system_.memory().hbm().bytes_per_cycle_total());
      stats.device_cycles += dma;
      stats.move_cycles += dma;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kConcatCols: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& b = tensor(inst.src_b);
      BFP_REQUIRE(a.rows == b.rows, "concat.cols: row counts must match");
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
      const std::uint64_t dma =
          c.size() * 4 /
          static_cast<std::uint64_t>(
              system_.memory().hbm().bytes_per_cycle_total());
      stats.device_cycles += dma;
      stats.move_cycles += dma;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kHostDiv: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& b = tensor(inst.src_b);
      require_same_shape(a, b, "host.div");
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = a.data[i] / b.data[i];
      }
      stats.ops.host_div += a.size();
      stats.host_ops += a.size();
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kHostRecip: {
      const RegTensor& a = tensor(inst.src_a);
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = 1.0F / a.data[i];
      }
      stats.ops.host_div += a.size();
      stats.host_ops += a.size();
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kHostRsqrt: {
      const RegTensor& a = tensor(inst.src_a);
      RegTensor c = like(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        c.data[i] = 1.0F / std::sqrt(a.data[i] + inst.imm);
      }
      stats.ops.host_div += a.size();
      stats.host_ops += a.size();
      store(inst.dst, std::move(c));
      return;
    }

    // ---- macro kernels: the controller expands these into the exact
    // nonlinear.* micro-programs VitModel::forward_mixed runs, and each
    // charges one vector_latency(fp_mul, fp_add) pass over the macro's
    // whole op tally — the same single charge forward_mixed makes per
    // kernel call, which is what cycle-identity pins rely on. ----

    case Opcode::kLayerNormM: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& gamma = tensor(inst.src_b);
      const RegTensor& beta = tensor(inst.src_c());
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "ln.macro: shape mismatch");
      BFP_REQUIRE(gamma.rows == 1 && gamma.cols == a.cols && beta.rows == 1 &&
                      beta.cols == a.cols,
                  "ln.macro: gamma/beta must be (1 x cols)");
      OpCounter local;
      RegTensor c;
      c.rows = a.rows;
      c.cols = a.cols;
      c.data = approx_layernorm(a.data, a.rows, a.cols, gamma.data,
                                beta.data, &local, inst.imm);
      stats.ops += local;
      stats.host_ops += local.host_div + local.host_other;
      stats.device_cycles +=
          system_.vector_latency(local.fp_mul, local.fp_add).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kRmsNormM: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& gamma = tensor(inst.src_b);
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "rmsn.macro: shape mismatch");
      BFP_REQUIRE(gamma.rows == 1 && gamma.cols == a.cols,
                  "rmsn.macro: gamma must be (1 x cols)");
      OpCounter local;
      RegTensor c;
      c.rows = a.rows;
      c.cols = a.cols;
      c.data = approx_rmsnorm(a.data, a.rows, a.cols, gamma.data, &local,
                              inst.imm);
      stats.ops += local;
      stats.host_ops += local.host_div + local.host_other;
      stats.device_cycles +=
          system_.vector_latency(local.fp_mul, local.fp_add).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kSoftmaxM: {
      const RegTensor& a = tensor(inst.src_a);
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "softmax.macro: shape mismatch");
      OpCounter local;
      const bool fast = (inst.flags & 1) != 0;
      RegTensor c;
      c.rows = a.rows;
      c.cols = a.cols;
      c.data = approx_softmax(a.data, a.rows, a.cols, &local, fast);
      stats.ops += local;
      stats.host_ops += local.host_div + local.host_other;
      stats.device_cycles +=
          system_.vector_latency(local.fp_mul, local.fp_add).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kGeluM:
    case Opcode::kSiluM: {
      const RegTensor& a = tensor(inst.src_a);
      OpCounter local;
      RegTensor c;
      c.rows = a.rows;
      c.cols = a.cols;
      c.data = inst.op == Opcode::kGeluM
                   ? approx_gelu(std::span<const float>(a.data), &local)
                   : approx_silu(std::span<const float>(a.data), &local);
      stats.ops += local;
      stats.host_ops += local.host_other;
      stats.device_cycles +=
          system_.vector_latency(local.fp_mul, local.fp_add).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kRope: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& cs = tensor(inst.src_b);
      const RegTensor& sn = tensor(inst.src_c());
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "rope: shape mismatch");
      BFP_REQUIRE(a.cols % 2 == 0, "rope: head dim must be even");
      require_same_shape(a, cs, "rope(cos)");
      require_same_shape(a, sn, "rope(sin)");
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
      stats.ops.fp_mul += 2 * a.size();
      stats.ops.fp_add += a.size();
      stats.ops.exp_manip += a.size();
      stats.device_cycles +=
          system_.vector_latency(2 * a.size(), a.size()).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    // ---- fused ops: each charges the same vector passes the unfused
    // sequence would (fusion saves instruction issue and intermediate
    // registers, never modelled datapath work). ----

    case Opcode::kBiasGelu:
    case Opcode::kBiasSilu: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& bias = tensor(inst.src_b);
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "bias+act: shape mismatch");
      BFP_REQUIRE(bias.rows == 1 && bias.cols == a.cols,
                  "bias+act: bias must be (1 x cols)");
      RegTensor c = like(a);
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < a.cols; ++j) {
          const std::size_t i = static_cast<std::size_t>(r) * a.cols + j;
          c.data[i] =
              fp32_add_aligned(a.data[i], bias.data[static_cast<std::size_t>(j)]);
        }
      }
      stats.ops.fp_add += a.size();
      stats.device_cycles += system_.vector_latency(0, a.size()).cycles;
      OpCounter local;
      c.data = inst.op == Opcode::kBiasGelu
                   ? approx_gelu(std::span<const float>(c.data), &local)
                   : approx_silu(std::span<const float>(c.data), &local);
      stats.ops += local;
      stats.host_ops += local.host_other;
      stats.device_cycles +=
          system_.vector_latency(local.fp_mul, local.fp_add).cycles;
      store(inst.dst, std::move(c));
      return;
    }

    case Opcode::kBiasResidual: {
      const RegTensor& a = tensor(inst.src_a);
      const RegTensor& bias = tensor(inst.src_b);
      const RegTensor& res = tensor(inst.src_c());
      BFP_REQUIRE(a.rows == inst.m && a.cols == inst.n,
                  "bias.residual: shape mismatch");
      BFP_REQUIRE(bias.rows == 1 && bias.cols == a.cols,
                  "bias.residual: bias must be (1 x cols)");
      require_same_shape(a, res, "bias.residual");
      RegTensor c = like(a);
      // out = residual + (a + bias): the same aligned-add order as the
      // legacy model's add_bias_mixed / add_residual_mixed pair, charged
      // as the two vector passes it fuses.
      for (int r = 0; r < a.rows; ++r) {
        for (int j = 0; j < a.cols; ++j) {
          const std::size_t i = static_cast<std::size_t>(r) * a.cols + j;
          const float biased = fp32_add_aligned(
              a.data[i], bias.data[static_cast<std::size_t>(j)]);
          c.data[i] = fp32_add_aligned(res.data[i], biased);
        }
      }
      stats.ops.fp_add += 2 * a.size();
      stats.device_cycles += system_.vector_latency(0, a.size()).cycles;
      stats.device_cycles += system_.vector_latency(0, a.size()).cycles;
      store(inst.dst, std::move(c));
      return;
    }
  }
  BFP_ASSERT(false);
}

}  // namespace bfpsim
