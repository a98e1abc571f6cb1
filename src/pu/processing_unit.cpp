#include "pu/processing_unit.hpp"

#include <algorithm>
#include <cmath>

#include "bram/layout_converter.hpp"
#include "common/bitops.hpp"
#include "common/error.hpp"
#include "numerics/bfp_kernel.hpp"
#include "numerics/slices.hpp"

namespace bfpsim {

void PuConfig::validate() const {
  array.validate();
  BFP_REQUIRE(psu_bits >= 16 && psu_bits <= 48,
              "PuConfig: psu_bits must be in [16,48]");
  BFP_REQUIRE(freq_hz > 0.0, "PuConfig: frequency must be positive");
  BFP_REQUIRE(!mode.empty(), "PuConfig: mode must be named");
  format.validate();
}

BfpFormat PuConfig::bfp_format() const {
  BfpFormat fmt;
  if (format.shared_exponent) {
    fmt.mant_bits = format.wm;
    fmt.exp_bits = format.we;
  }
  fmt.rows = array.rows;
  fmt.cols = array.cols;
  return fmt;
}

double GemmRun::sustained_ops_per_sec(double freq_hz) const {
  if (compute_cycles == 0) return 0.0;
  return static_cast<double>(2 * macs) * freq_hz /
         static_cast<double>(compute_cycles);
}

ProcessingUnit::ProcessingUnit(const PuConfig& cfg)
    : cfg_(cfg),
      array_(cfg.array),
      eu_(EuConfig::from_format(cfg.format)),
      psu_(PsuConfig::from_format(cfg.format, cfg.array.rows, cfg.array.cols,
                                  cfg.psu_bits)) {
  cfg_.validate();
}

namespace {

int round_up(int v, int multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

/// Round-trip a block through an operand buffer slot, exercising the
/// Fig. 4 layout (catches any encoding mismatch between the quantizer and
/// the array's expectations).
BfpBlock buffer_roundtrip(OperandBuffer& buf, int slot,
                          const BfpBlock& block) {
  buf.write_bfp_block(slot, block);
  BfpBlock out(block.fmt);
  out.expb = buf.read_bfp_exp(slot);
  for (int k = 0; k < block.fmt.cols; ++k) {
    const auto v = buf.read_bfp_vector(slot, k);
    for (int r = 0; r < block.fmt.rows; ++r) {
      out.at(r, k) = v[static_cast<std::size_t>(r)];
    }
  }
  return out;
}

}  // namespace

void ProcessingUnit::trace_event(std::uint64_t cycle, const char* component,
                                 std::string message) const {
  if (trace_ != nullptr) trace_->record(cycle, component, std::move(message));
}

std::uint64_t ProcessingUnit::bfp_pass(const BfpBlock& y0, const BfpBlock* y1,
                                       std::span<const BfpBlock> xs,
                                       int slot_base) {
  BfpMatmulRun run = array_.run_bfp_matmul(y0, y1, xs);
  for (std::size_t j = 0; j < xs.size(); ++j) {
    psu_.accumulate(0, slot_base + static_cast<int>(j), run.lane0[j], eu_);
    if (cfg_.array.combined_mac && y1 != nullptr) {
      psu_.accumulate(1, slot_base + static_cast<int>(j), run.lane1[j], eu_);
    }
  }
  return run.cycles;
}

GemmRun ProcessingUnit::gemm_bfp8(std::span<const float> a, int m, int k,
                                  std::span<const float> b, int n) {
  BFP_REQUIRE(m > 0 && k > 0 && n > 0, "gemm_bfp8: dims must be positive");
  const BfpFormat fmt = cfg_.bfp_format();
  const BfpMatrix am = quantize_matrix(a, m, k, fmt, cfg_.quant_round);
  const BfpMatrix bm = quantize_matrix(b, k, n, fmt, cfg_.quant_round);
  const int mb = am.block_rows();
  const int kb = am.block_cols();
  const int nb = bm.block_cols();
  const int lanes = cfg_.array.combined_mac ? 2 : 1;

  GemmRun out;
  out.c.assign(static_cast<std::size_t>(m) * n, 0.0F);
  out.macs = static_cast<std::uint64_t>(m) * k * n;

  BfpBlock zero_y(fmt);
  zero_y.expb = static_cast<std::int32_t>(fmt.exp_min());

  trace_event(out.compute_cycles, "controller",
              "mode=bfp8-matmul m=" + std::to_string(m) + " k=" +
                  std::to_string(k) + " n=" + std::to_string(n));
  std::vector<BfpBlock> xs;
  for (int j = 0; j < nb; j += lanes) {
    for (int ms = 0; ms < mb; ms += kPsuSlots) {
      const int chunk = std::min(kPsuSlots, mb - ms);
      for (int lane = 0; lane < lanes; ++lane) {
        for (int s = 0; s < chunk; ++s) psu_.clear_slot(lane, s);
      }
      for (int kk = 0; kk < kb; ++kk) {
        // Stage the resident Y pair and the X stream through the operand
        // buffers (Fig. 4 layout round-trip).
        const BfpBlock y0 = buffer_roundtrip(y_buf_, 0, bm.block(kk, j));
        BfpBlock y1;
        const bool use_lane1 = lanes == 2;
        if (use_lane1) {
          y1 = buffer_roundtrip(
              y_buf_, 1, j + 1 < nb ? bm.block(kk, j + 1) : zero_y);
        }
        xs.clear();
        xs.reserve(static_cast<std::size_t>(chunk));
        for (int s = 0; s < chunk; ++s) {
          xs.push_back(buffer_roundtrip(x_buf_, s, am.block(ms + s, kk)));
        }
        const std::uint64_t pass_start = out.compute_cycles;
        out.compute_cycles +=
            bfp_pass(y0, use_lane1 ? &y1 : nullptr, xs, /*slot_base=*/0);
        trace_event(pass_start, "pe-array",
                    "pass y=(" + std::to_string(kk) + "," +
                        std::to_string(j) + ") nx=" +
                        std::to_string(chunk) + " cycles=" +
                        std::to_string(out.compute_cycles - pass_start));
      }
      // Drain the PSU buffer into the fp32 output (the output quantizer /
      // memory interface path; overlapped with the next pass in hardware).
      for (int lane = 0; lane < lanes; ++lane) {
        const int jc = j + lane;
        if (jc >= nb) continue;
        for (int s = 0; s < chunk; ++s) {
          if (!psu_.valid(lane, s)) continue;
          const WideBlock w = psu_.read(lane, s);
          for (int r = 0; r < fmt.rows; ++r) {
            const int gr = (ms + s) * fmt.rows + r;
            if (gr >= m) break;
            for (int c = 0; c < fmt.cols; ++c) {
              const int gc = jc * fmt.cols + c;
              if (gc >= n) continue;
              out.c[static_cast<std::size_t>(gr) * n + gc] =
                  static_cast<float>(
                      std::ldexp(static_cast<double>(w.at(r, c)), w.expb));
            }
          }
        }
      }
    }
  }
  counters_.add("pu.gemm_runs");
  counters_.add("pu.gemm_cycles", out.compute_cycles);
  return out;
}

GemmRun ProcessingUnit::gemm_bfp8_fast(std::span<const float> a, int m, int k,
                                       std::span<const float> b, int n,
                                       ThreadPool* pool) const {
  return gemm_bfp8_fast(
      a, m, k,
      quantize_matrix(b, k, n, cfg_.bfp_format(), cfg_.quant_round), n, pool);
}

GemmRun ProcessingUnit::gemm_bfp8_fast(std::span<const float> a, int m, int k,
                                       const BfpMatrix& b, int n,
                                       ThreadPool* pool) const {
  BFP_REQUIRE(m > 0 && k > 0 && n > 0,
              "gemm_bfp8_fast: dims must be positive");
  const BfpFormat fmt = cfg_.bfp_format();
  BFP_REQUIRE(b.fmt == fmt && b.rows == round_up(k, fmt.rows) &&
                  b.cols == round_up(n, fmt.cols),
              "gemm_bfp8_fast: B is not a k x n operand in the PU format");
  const BfpMatrix am = quantize_matrix(a, m, k, fmt, cfg_.quant_round);
  GemmRun out;
  out.c = bfp_gemm_dispatch(am, b, m, n, cfg_.psu_bits, active_kernel_tier(),
                            pool);
  out.macs = static_cast<std::uint64_t>(m) * k * n;
  out.compute_cycles = gemm_cycles(cfg_, m, k, n);
  return out;
}

VecRun ProcessingUnit::fp32_mul_stream(std::span<const float> x,
                                       std::span<const float> y) {
  BFP_REQUIRE(x.size() == y.size() && !x.empty(),
              "fp32_mul_stream: spans must be non-empty and equal length");
  VecRun out;
  out.out.resize(x.size());
  out.flops = 2 * x.size();  // multiply + cascade add per element

  const std::size_t total = x.size();
  // Lanes process contiguous chunks; streams are limited to kMaxFpStream
  // per lane per run (BRAM capacity, Section II-D), so long vectors issue
  // multiple runs.
  const std::size_t per_run = static_cast<std::size_t>(kMaxFpStream) *
                              static_cast<std::size_t>(kFp32Lanes);
  for (std::size_t base = 0; base < total; base += per_run) {
    const std::size_t run_len = std::min(per_run, total - base);
    const std::size_t lane_len =
        (run_len + kFp32Lanes - 1) / static_cast<std::size_t>(kFp32Lanes);
    std::vector<std::vector<Fp32RowInputs>> lane_streams(
        static_cast<std::size_t>(kFp32Lanes));
    for (int lane = 0; lane < kFp32Lanes; ++lane) {
      auto& stream = lane_streams[static_cast<std::size_t>(lane)];
      stream.resize(lane_len);
      for (std::size_t i = 0; i < lane_len; ++i) {
        const std::size_t idx =
            base + static_cast<std::size_t>(lane) * lane_len + i;
        float xv = 0.0F;
        float yv = 0.0F;
        if (idx < total) {
          xv = x[idx];
          yv = y[idx];
        }
        x_buf_.write_fp32(lane, static_cast<int>(i), xv);
        y_buf_.write_fp32(lane, static_cast<int>(i), yv);
        stream[i] = LayoutConverter::convert_fp32_pair(
            x_buf_.read_fp32(lane, static_cast<int>(i)),
            y_buf_.read_fp32(lane, static_cast<int>(i)));
      }
    }
    Fp32MulRun run = array_.run_fp32_mul(lane_streams);
    trace_event(out.compute_cycles, "controller",
                "mode=fp32-mul l=" + std::to_string(lane_len) +
                    " cycles=" + std::to_string(run.cycles));
    out.compute_cycles += run.cycles;
    for (int lane = 0; lane < kFp32Lanes; ++lane) {
      for (std::size_t i = 0; i < lane_len; ++i) {
        const std::size_t idx =
            base + static_cast<std::size_t>(lane) * lane_len + i;
        if (idx >= total) continue;
        const auto& raw = run.lanes[static_cast<std::size_t>(lane)][i];
        if (raw.zero) {
          out.out[idx] = compose(raw.sign, 1, 0);
          continue;
        }
        // Normalizer: the EU supplies the exponent sum; see
        // fp32_mul_sliced for the weight derivation of the -142 offset.
        const std::int32_t be = raw.exp_x + raw.exp_y - 142;
        out.out[idx] = compose_normalized(raw.sign, be, raw.mant_sum,
                                          cfg_.fp32_round_nearest);
      }
    }
  }
  counters_.add("pu.fp32_mul_elems", x.size());
  counters_.add("pu.fp32_cycles", out.compute_cycles);
  return out;
}

VecRun ProcessingUnit::fp32_add_stream(std::span<const float> x,
                                       std::span<const float> y) {
  BFP_REQUIRE(x.size() == y.size() && !x.empty(),
              "fp32_add_stream: spans must be non-empty and equal length");
  VecRun out;
  out.out.resize(x.size());
  out.flops = x.size();

  const std::size_t total = x.size();
  const std::size_t per_run = static_cast<std::size_t>(kMaxFpStream) *
                              static_cast<std::size_t>(kFp32Lanes);
  for (std::size_t base = 0; base < total; base += per_run) {
    const std::size_t run_len = std::min(per_run, total - base);
    const std::size_t lane_len =
        (run_len + kFp32Lanes - 1) / static_cast<std::size_t>(kFp32Lanes);
    for (int lane = 0; lane < kFp32Lanes; ++lane) {
      for (std::size_t i = 0; i < lane_len; ++i) {
        const std::size_t idx =
            base + static_cast<std::size_t>(lane) * lane_len + i;
        if (idx >= total) continue;
        // Buffer round-trip (subnormals flush, Fig. 4 layout).
        x_buf_.write_fp32(lane, static_cast<int>(i), x[idx]);
        y_buf_.write_fp32(lane, static_cast<int>(i), y[idx]);
        const Fp32Operand ox = x_buf_.read_fp32(lane, static_cast<int>(i));
        const Fp32Operand oy = y_buf_.read_fp32(lane, static_cast<int>(i));
        // Eqn 6 on the shifter/ACC path: align, add, renormalize. The DSPs
        // stay idle in this mode (Section II-D).
        const AlignDecision d = eu_.align(ox.biased_exp, oy.biased_exp);
        const std::int64_t mx = asr(
            ox.sign ? -static_cast<std::int64_t>(ox.man24) : ox.man24,
            d.shift_a);
        const std::int64_t my = asr(
            oy.sign ? -static_cast<std::int64_t>(oy.man24) : oy.man24,
            d.shift_b);
        const std::int64_t s = mx + my;
        BFP_REQUIRE(fits_signed(s, cfg_.psu_bits),
                    "fp32_add_stream: ACC overflow");
        const bool sign = s < 0;
        const std::uint64_t mag =
            sign ? static_cast<std::uint64_t>(-s)
                 : static_cast<std::uint64_t>(s);
        out.out[idx] = compose_normalized(sign, d.result_exp, mag,
                                          cfg_.fp32_round_nearest);
      }
    }
    out.compute_cycles += fp32_run_cycles(
        cfg_.array, static_cast<int>(lane_len));
  }
  counters_.add("pu.fp32_add_elems", x.size());
  counters_.add("pu.fp32_cycles", out.compute_cycles);
  return out;
}

VecRun ProcessingUnit::bf16_mul_stream(std::span<const float> x,
                                       std::span<const float> y) {
  BFP_REQUIRE(x.size() == y.size() && !x.empty(),
              "bf16_mul_stream: spans must be non-empty and equal length");
  VecRun out;
  out.out.resize(x.size());
  out.flops = 2 * x.size();

  const std::size_t total = x.size();
  const std::size_t per_run = static_cast<std::size_t>(kMaxFpStream) *
                              static_cast<std::size_t>(kBf16Lanes);
  for (std::size_t base = 0; base < total; base += per_run) {
    const std::size_t run_len = std::min(per_run, total - base);
    const std::size_t lane_len =
        (run_len + kBf16Lanes - 1) / static_cast<std::size_t>(kBf16Lanes);
    std::vector<std::vector<Bf16Pair>> lane_streams(
        static_cast<std::size_t>(kBf16Lanes));
    for (int lane = 0; lane < kBf16Lanes; ++lane) {
      auto& stream = lane_streams[static_cast<std::size_t>(lane)];
      stream.resize(lane_len);
      for (std::size_t i = 0; i < lane_len; ++i) {
        const std::size_t idx =
            base + static_cast<std::size_t>(lane) * lane_len + i;
        Bf16Pair pair;
        if (idx < total) {
          pair.x = decompose_bf16(bf16_from_float(x[idx]));
          pair.y = decompose_bf16(bf16_from_float(y[idx]));
        }
        stream[i] = pair;
      }
    }
    Bf16MulRun run = array_.run_bf16_mul(lane_streams);
    out.compute_cycles += run.cycles;
    for (int lane = 0; lane < kBf16Lanes; ++lane) {
      for (std::size_t i = 0; i < lane_len; ++i) {
        const std::size_t idx =
            base + static_cast<std::size_t>(lane) * lane_len + i;
        if (idx >= total) continue;
        const auto& raw = run.lanes[static_cast<std::size_t>(lane)][i];
        if (raw.zero) {
          out.out[idx] = compose(raw.sign, 1, 0);
          continue;
        }
        // Same normalizer as the reference: hidden bit at product bit 14.
        const float wide = compose_normalized(
            raw.sign, raw.exp_x + raw.exp_y - 127,
            static_cast<std::uint64_t>(raw.prod) << (kFp32FracBits - 14),
            /*round_nearest_even=*/true);
        out.out[idx] = bf16_to_float(bf16_from_float(wide));
      }
    }
  }
  counters_.add("pu.bf16_mul_elems", x.size());
  counters_.add("pu.bf16_cycles", out.compute_cycles);
  return out;
}

std::uint64_t ProcessingUnit::bfp_run_cycles(const PeArrayConfig& cfg,
                                             int n_x) {
  return static_cast<std::uint64_t>(cfg.rows) *
             static_cast<std::uint64_t>(n_x) +
         static_cast<std::uint64_t>(cfg.bfp_overhead_cycles());
}

std::uint64_t ProcessingUnit::fp32_run_cycles(const PeArrayConfig& cfg,
                                              int l) {
  return static_cast<std::uint64_t>(l) +
         static_cast<std::uint64_t>(cfg.fp32_pipeline_cycles());
}

std::uint64_t ProcessingUnit::gemm_cycles(const PuConfig& cfg, int m, int k,
                                          int n) {
  const int rows = cfg.array.rows;
  const int cols = cfg.array.cols;
  const int mb = (m + rows - 1) / rows;
  const int kb = (k + cols - 1) / cols;
  const int nb = (n + cols - 1) / cols;
  const int lanes = cfg.array.combined_mac ? 2 : 1;
  std::uint64_t cycles = 0;
  for (int j = 0; j < nb; j += lanes) {
    for (int ms = 0; ms < mb; ms += kPsuSlots) {
      const int chunk = std::min(kPsuSlots, mb - ms);
      cycles += static_cast<std::uint64_t>(kb) *
                bfp_run_cycles(cfg.array, chunk);
    }
  }
  return cycles;
}

double ProcessingUnit::bfp_peak_ops(const PuConfig& cfg) {
  const double macs_per_cycle =
      static_cast<double>(cfg.array.rows) * cfg.array.cols *
      (cfg.array.combined_mac ? 2.0 : 1.0);
  return macs_per_cycle * 2.0 * cfg.freq_hz;  // Eqn 7
}

double ProcessingUnit::fp32_peak_flops(const PuConfig& cfg) {
  return static_cast<double>(kFp32Lanes) * 2.0 * cfg.freq_hz;  // Eqn 8
}

double ProcessingUnit::bf16_peak_flops(const PuConfig& cfg) {
  return static_cast<double>(kBf16Lanes) * 2.0 * cfg.freq_hz;
}

std::uint64_t ProcessingUnit::bf16_run_cycles(int l) {
  return static_cast<std::uint64_t>(l) + 2;
}

void ProcessingUnit::reset() {
  array_.reset();
  eu_.reset();
  psu_.clear_all();
  counters_.reset();
}

}  // namespace bfpsim
