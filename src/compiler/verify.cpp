#include "compiler/verify.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <sstream>

#include "cluster/partitioner.hpp"
#include "compiler/compile.hpp"
#include "compiler/spec_graph.hpp"
#include "fabric/hbm.hpp"
#include "numerics/format/registry.hpp"
#include "sim/trace.hpp"

namespace bfpsim {

namespace {

/// PE array tile width — the column granularity of shared-exponent blocks
/// (Table I's 8x8 tiles). Splits off this grid are a bit-exactness hazard
/// because re-blocking changes which elements share an exponent.
constexpr int kBlockCols = 8;

/// Magnitude-interval ceiling: bounds that reach it mean "unknown", and
/// range warnings are suppressed above it (a capped bound proves nothing).
constexpr double kMagCap = 1e300;
/// fp32 range guard with 4 bits of headroom for rounding/quantization
/// amplification along the deepest committed-program chains.
constexpr double kFp32Guard = 3.4028234663852886e38 / 16.0;

const char* severity_name(VerifySeverity s) {
  return s == VerifySeverity::kError ? "error" : "warning";
}

/// The finding an operand-contract fault is reported as.
VerifyKind kind_of(OperandFault fault) {
  switch (fault) {
    case OperandFault::kSliceWindow: return VerifyKind::kMisalignedSplit;
    case OperandFault::kUnknownMode: return VerifyKind::kUnknownMode;
    case OperandFault::kNone:
    case OperandFault::kShape:
      break;
  }
  return VerifyKind::kShapeMismatch;
}

/// The numeric discipline one matmul runs under: storage format plus the
/// product/accumulate flavor (block PSU, exact or L-Mul element dot,
/// sliced fp32).
struct Discipline {
  std::string name;
  FormatSpec spec;
  bool approx_mul = false;
  bool sliced = false;
};

Discipline system_discipline(const AcceleratorSystem& sys) {
  const PuConfig& pu = sys.config().pu;
  Discipline d;
  d.name = pu.mode;
  d.spec = pu.format;
  if (is_numeric_mode(pu.mode)) {
    const NumericMode& m = numeric_mode(pu.mode);
    d.approx_mul = m.approx_mul;
    d.sliced = m.sliced;
  }
  return d;
}

Discipline mode_discipline(const NumericMode& m) {
  return Discipline{m.name, m.spec, m.approx_mul, m.sliced};
}

int bit_length_u128(unsigned __int128 v) {
  int n = 0;
  while (v != 0) {
    ++n;
    v >>= 1;
  }
  return n;
}

/// Worst-case accumulator analysis for one K-deep reduction under a
/// discipline. All bounds are data-independent (worst mantissa patterns at
/// the format's widths), so `ok` proves the carrier safe for any input:
///   * block modes — K is padded to the 8-column PE tile; every element
///     product of two's-complement wm-bit mantissas is <= 2^(2(wm-1)), and
///     Eqn-3 alignment only ever shifts magnitudes down, so
///     |acc| <= K_pad * 2^(2(wm-1));
///   * element exact — hidden-bit mantissas are <= 2^(wm+1)-1, products
///     square that;
///   * L-Mul — the adder product carries a single-width mantissa; after
///     the field carry it is < 2^(wm+2);
///   * sliced fp32 — the aligned add of two 24-bit-mantissa operands
///     needs 26 bits regardless of K.
struct CarrierBound {
  bool ok = true;
  int needed_bits = 0;        ///< carrier width the worst case requires at K
  std::uint64_t max_safe_k = 0;  ///< largest K the carrier provably holds
};

CarrierBound carrier_bound(const Discipline& d, std::uint64_t k,
                           int acc_bits) {
  CarrierBound out;
  const unsigned __int128 limit =
      acc_bits >= 64 ? ~static_cast<unsigned __int128>(0)
                     : (static_cast<unsigned __int128>(1) << (acc_bits - 1)) -
                           1;
  if (k == 0) {
    out.max_safe_k = ~std::uint64_t{0};
    return out;
  }
  if (d.sliced) {
    // fp32 carrier: 24-bit mantissas, one carry, one sign bit.
    out.needed_bits = 26;
    out.ok = acc_bits >= 26;
    out.max_safe_k = out.ok ? ~std::uint64_t{0} : 0;
    return out;
  }
  if (d.spec.shared_exponent) {
    const int prod_bits = 2 * (d.spec.wm - 1);
    const std::uint64_t kpad =
        (k + kBlockCols - 1) / kBlockCols * kBlockCols;
    const unsigned __int128 worst = static_cast<unsigned __int128>(kpad)
                                    << prod_bits;
    out.needed_bits = bit_length_u128(worst) + 1;
    out.ok = worst <= limit;
    const std::uint64_t max_kpad =
        static_cast<std::uint64_t>(limit >> prod_bits);
    out.max_safe_k = max_kpad / kBlockCols * kBlockCols;
    return out;
  }
  const std::uint64_t mant = (std::uint64_t{1} << (d.spec.wm + 1)) - 1;
  const std::uint64_t prod =
      d.approx_mul ? (std::uint64_t{1} << (d.spec.wm + 2)) : mant * mant;
  const unsigned __int128 worst = static_cast<unsigned __int128>(k) * prod;
  out.needed_bits = bit_length_u128(worst) + 1;
  out.ok = worst <= limit;
  out.max_safe_k = static_cast<std::uint64_t>(limit / prod);
  return out;
}

/// Abstract register state: exact shape (shapes are fully static, so this
/// domain is precise) plus a magnitude upper bound and sign knowledge for
/// the NaN/Inf-escape warnings.
struct AbsReg {
  bool set = false;
  TensorShape shape;
  double mag = 0.0;
  bool nonneg = false;
};

std::uint64_t tensor_bytes(const TensorShape& s) {
  return static_cast<std::uint64_t>(s.elements()) * 4;
}

/// Forward abstract interpreter over one program.
class ProgramVerifier {
 public:
  ProgramVerifier(const Program& program, const VerifyBindings& bindings,
                  const AcceleratorSystem& system,
                  const VerifyOptions& options)
      : prog_(program),
        bind_(bindings),
        sys_(system),
        opt_(options),
        sysdisc_(system_discipline(system)) {}

  VerifyReport run() {
    halt_pos_ = static_cast<int>(prog_.size());
    for (std::size_t i = 0; i < prog_.size(); ++i) {
      if (prog_.instructions()[i].op == Opcode::kHalt) {
        halt_pos_ = static_cast<int>(i);
        break;
      }
    }
    index_values();
    check_value_intervals();
    bind_prebound();
    interpret();
    check_epilogue();
    check_arena();
    return std::move(rep_);
  }

 private:
  void finding(VerifyKind kind, VerifySeverity sev, int inst,
               std::string msg) {
    VerifyFinding f;
    f.kind = kind;
    f.severity = sev;
    f.inst = inst;
    f.message = std::move(msg);
    if (inst >= 0 && inst < static_cast<int>(prog_.size())) {
      f.snippet = to_string(prog_.instructions()[static_cast<std::size_t>(
          inst)]);
    }
    rep_.findings.push_back(std::move(f));
    if (sev == VerifySeverity::kError) ++errors_;
  }

  void index_values() {
    by_reg_.assign(kNumTensorRegs, {});
    for (const VerifyValue& v : bind_.values) {
      if (v.reg < 0 || v.reg >= kNumTensorRegs) {
        finding(VerifyKind::kShapeMismatch, VerifySeverity::kError, -1,
                "declared value register " + std::to_string(v.reg) +
                    " out of range");
        continue;
      }
      by_reg_[static_cast<std::size_t>(v.reg)].push_back(&v);
    }
  }

  static int def_of(const VerifyValue& v) { return v.prebound ? -1 : v.def_inst; }
  /// A value occupies its register over [def, last_use]; prebound values
  /// from bind time (-1). Computed values nobody reads have an empty
  /// interval — clobbering them is harmless.
  static bool interval_empty(const VerifyValue& v) {
    return v.last_use_inst < def_of(v);
  }

  /// Liveness checks over the compiler's declared value intervals: no two
  /// live-overlapping values may share a register (the allocator would
  /// have had to retire a slot it still owes), and the peak number of
  /// simultaneously live values must fit the declared register window.
  void check_value_intervals() {
    for (int r = 0; r < kNumTensorRegs; ++r) {
      auto vals = by_reg_[static_cast<std::size_t>(r)];
      std::sort(vals.begin(), vals.end(),
                [](const VerifyValue* a, const VerifyValue* b) {
                  return def_of(*a) < def_of(*b);
                });
      for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
        const VerifyValue& u = *vals[i];
        const VerifyValue& v = *vals[i + 1];
        if (interval_empty(u) || interval_empty(v)) continue;
        if (std::max(def_of(u), def_of(v)) <=
            std::min(u.last_use_inst, v.last_use_inst)) {
          finding(VerifyKind::kDoubleRetire, VerifySeverity::kError,
                  std::max(def_of(v), 0),
                  "register r" + std::to_string(r) +
                      " holds two live values at once (intervals [" +
                      std::to_string(def_of(u)) + "," +
                      std::to_string(u.last_use_inst) + "] and [" +
                      std::to_string(def_of(v)) + "," +
                      std::to_string(v.last_use_inst) +
                      "] overlap): the allocator retired a live slot");
        }
      }
    }
    // Holder sweep: +1 at def, -1 after last use.
    std::vector<std::pair<int, int>> events;
    for (const VerifyValue& v : bind_.values) {
      if (interval_empty(v)) continue;
      events.emplace_back(def_of(v), +1);
      events.emplace_back(v.last_use_inst + 1, -1);
    }
    std::sort(events.begin(), events.end());
    int live = 0;
    for (const auto& [t, d] : events) {
      live += d;
      rep_.peak_live_values = std::max(rep_.peak_live_values, live);
    }
    if (rep_.peak_live_values > bind_.declared_peak_regs) {
      finding(VerifyKind::kHolderOverflow, VerifySeverity::kWarning, -1,
              "peak of " + std::to_string(rep_.peak_live_values) +
                  " simultaneously live values exceeds the allocator's " +
                  std::to_string(bind_.declared_peak_regs) +
                  "-register window");
    }
  }

  void bind_prebound() {
    for (const VerifyValue& v : bind_.values) {
      if (!v.prebound || v.reg < 0 || v.reg >= kNumTensorRegs) continue;
      AbsReg& r = regs_[static_cast<std::size_t>(v.reg)];
      r.set = true;
      r.shape = v.shape;
      r.mag = v.magnitude >= 0.0 ? v.magnitude : bind_.input_magnitude;
      r.nonneg = false;
      resident_ += tensor_bytes(v.shape);
    }
    peak_resident_ = resident_;
  }

  /// Read operand `j` of `op` from register `r`: use-before-def against
  /// the forward state, read-after-retire against the declared intervals.
  /// Returns nullptr when the read is invalid.
  const AbsReg* read(int r, int i, Opcode op, int j) {
    const AbsReg& a = regs_[static_cast<std::size_t>(r)];
    auto role = [&] {
      return std::string(opcode_name(op)) + " operand " + "ABC"[j];
    };
    if (!a.set) {
      finding(VerifyKind::kUseBeforeDef, VerifySeverity::kError, i,
              role() + " reads register r" + std::to_string(r) +
                  " that no write dominates (executor would fault on an "
                  "unset register)");
      return nullptr;
    }
    const auto& vals = by_reg_[static_cast<std::size_t>(r)];
    if (!vals.empty()) {
      bool covered = false;
      for (const VerifyValue* v : vals) {
        if (interval_empty(*v)) continue;
        if (def_of(*v) <= i && i <= v->last_use_inst) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        finding(VerifyKind::kReadAfterRetire, VerifySeverity::kError, i,
                role() + " reads register r" + std::to_string(r) +
                    " outside every declared live interval (value retired)");
      }
    }
    return &a;
  }

  void write(int r, const TensorShape& shape, double mag, bool nonneg,
             int i) {
    AbsReg& d = regs_[static_cast<std::size_t>(r)];
    if (d.set) resident_ -= tensor_bytes(d.shape);
    d.set = true;
    d.shape = shape;
    d.mag = std::min(mag, kMagCap);
    d.nonneg = nonneg;
    resident_ += tensor_bytes(shape);
    if (resident_ > peak_resident_) {
      peak_resident_ = resident_;
      peak_inst_ = i;
    }
    if (d.mag > kFp32Guard && d.mag < kMagCap && !range_warned_) {
      range_warned_ = true;
      finding(VerifyKind::kDomainError, VerifySeverity::kWarning, i,
              "value magnitude bound reaches the fp32 range (may overflow "
              "to Inf for worst-case inputs)");
    }
  }

  void warn_domain(int i, std::string msg) {
    finding(VerifyKind::kDomainError, VerifySeverity::kWarning, i,
            std::move(msg));
  }

  bool is_shared_block_system() const {
    return sys_.config().pu.format.shared_exponent;
  }

  /// The carrier bound of a matmul whose mode the operand contract has
  /// accepted.
  void check_matmul_carrier(const Instruction& inst, int i) {
    const int idx = inst.mode_index();
    const Discipline d =
        idx == 0 ? sysdisc_
                 : mode_discipline(
                       numeric_modes()[static_cast<std::size_t>(idx - 1)]);
    const int acc_bits = sys_.config().pu.psu_bits;
    const CarrierBound cb = carrier_bound(d, inst.k, acc_bits);
    if (!cb.ok) {
      finding(VerifyKind::kCarrierOverflow, VerifySeverity::kError, i,
              "K=" + std::to_string(inst.k) + " reduction under mode '" +
                  d.name + "' needs a " + std::to_string(cb.needed_bits) +
                  "-bit accumulator but the PSU carrier is " +
                  std::to_string(acc_bits) + " bits (largest safe K is " +
                  std::to_string(cb.max_safe_k) + ")");
    }
  }

  /// Walk to the halt, pricing each instruction whose contracts hold
  /// (a rejected program has no price to be exact about).
  void interpret() {
    const auto& insts = prog_.instructions();
    rep_.instruction_costs.assign(static_cast<std::size_t>(halt_pos_), {});
    rep_.price.instructions = static_cast<std::uint64_t>(halt_pos_);
    for (int i = 0; i < halt_pos_; ++i) {
      ++rep_.instructions_checked;
      step(insts[static_cast<std::size_t>(i)], i);
    }
    if (halt_pos_ < static_cast<int>(prog_.size())) {
      ++rep_.instructions_checked;  // the halt itself
    }
  }

  /// One abstract step. The operand contract (check_operands) says what
  /// the instruction reads, whether its shapes, fields and mode hold, and
  /// what it writes; this pass adds what is its own: def-use of the reads,
  /// the carrier bound, block-grid and domain warnings, and the magnitude/
  /// sign transfer. A faulted instruction still defines its destination
  /// (nominal m x n) so downstream analysis continues (the program is
  /// already rejected).
  void step(const Instruction& inst, int i) {
    const std::size_t errors = errors_;
    const Operands ops = operands(inst);
    const auto count = static_cast<std::size_t>(ops.count);
    std::array<const AbsReg*, 3> in{};
    std::array<TensorShape, 3> shapes{};
    bool defined = true;
    bool all_nonneg = true;
    for (std::size_t j = 0; j < count; ++j) {
      in[j] = read(ops.regs[j], i, inst.op, static_cast<int>(j));
      defined = defined && in[j] != nullptr;
      all_nonneg = all_nonneg && in[j] != nullptr && in[j]->nonneg;
      if (in[j] != nullptr) shapes[j] = in[j]->shape;
    }
    OperandCheck check;
    check.result = {inst.m, inst.n};
    if (defined) {
      check = check_operands(inst, std::span(shapes).first(count), sys_);
      if (!check.ok()) {
        finding(kind_of(check.fault), VerifySeverity::kError, i,
                check.message);
      }
    }
    if (!check.writes) return;

    auto mag_of = [&](std::size_t j, double absent) {
      return in[j] != nullptr ? in[j]->mag : absent;
    };
    const double am = mag_of(0, 0.0);
    const int n = inst.n;
    double mag = am;
    bool nonneg = all_nonneg;
    switch (inst.op) {
      case Opcode::kNop:
      case Opcode::kSync:
      case Opcode::kHalt:
      case Opcode::kRowMax:
      case Opcode::kTranspose:
        break;
      case Opcode::kBfpMatmul:
        if (defined && check.fault != OperandFault::kUnknownMode) {
          check_matmul_carrier(inst, i);
        }
        mag = static_cast<double>(std::max<int>(inst.k, 1)) *
              mag_of(0, bind_.input_magnitude) *
              mag_of(1, bind_.input_magnitude);
        break;
      case Opcode::kVecMul:
      case Opcode::kRowMulBcast:
      case Opcode::kColMulBcast:
        mag = am * mag_of(1, 0.0);
        break;
      case Opcode::kVecAdd:
      case Opcode::kColAddBcast:
        mag = am + mag_of(1, 0.0);
        break;
      case Opcode::kRowSub:
        mag = am + mag_of(1, 0.0);
        nonneg = false;
        break;
      case Opcode::kHostDiv:
        if (in[1] != nullptr && !in[1]->nonneg) {
          warn_domain(i, "host.div divisor may be zero or negative (Inf/NaN "
                         "escape)");
        }
        mag = kMagCap;  // divisor lower bound unknown
        break;
      case Opcode::kVecMulScalar:
      case Opcode::kVecAddScalar: {
        const double s = std::abs(static_cast<double>(inst.imm));
        mag = inst.op == Opcode::kVecMulScalar ? am * s : am + s;
        nonneg = all_nonneg && inst.imm >= 0.0F;
        break;
      }
      case Opcode::kVecExp:
        if (am > 88.0) {
          warn_domain(i, "vec.exp operand bound " + std::to_string(am) +
                             " exceeds exp's fp32 overflow threshold (~88)");
        }
        mag = std::exp(std::min(am, 700.0));
        nonneg = true;
        break;
      case Opcode::kVecTanh:
        mag = 1.0;
        break;
      case Opcode::kRowSum:
        mag = static_cast<double>(std::max(n, 1)) * am;
        break;
      case Opcode::kSliceCols:
        if (check.ok() && is_shared_block_system() &&
            (inst.k % kBlockCols != 0 || n % kBlockCols != 0)) {
          finding(VerifyKind::kMisalignedSplit, VerifySeverity::kWarning, i,
                  "slice.cols: window [" + std::to_string(inst.k) + ", " +
                      std::to_string(inst.k + n) + ") is off the " +
                      std::to_string(kBlockCols) +
                      "-column bfp block grid (re-blocking changes shared "
                      "exponents)");
        }
        break;
      case Opcode::kConcatCols:
        if (check.ok() && is_shared_block_system() &&
            shapes[0].cols % kBlockCols != 0) {
          finding(VerifyKind::kMisalignedSplit, VerifySeverity::kWarning, i,
                  "concat.cols: seam at column " +
                      std::to_string(shapes[0].cols) + " is off the " +
                      std::to_string(kBlockCols) + "-column bfp block grid");
        }
        mag = std::max(am, mag_of(1, 0.0));
        break;
      case Opcode::kHostRecip:
        if (in[0] != nullptr && !in[0]->nonneg) {
          warn_domain(i, "host.recip operand may be zero or negative (Inf/NaN "
                         "escape)");
        }
        mag = kMagCap;
        break;
      case Opcode::kHostRsqrt: {
        const double lower =
            in[0] == nullptr || in[0]->nonneg ? 0.0 : -in[0]->mag;
        if (lower + static_cast<double>(inst.imm) < 0.0) {
          warn_domain(i, "host.rsqrt operand plus eps may be negative (NaN "
                         "escape)");
        }
        mag = inst.imm > 0.0F
                  ? 1.0 / std::sqrt(static_cast<double>(inst.imm))
                  : kMagCap;
        nonneg = true;
        break;
      }
      case Opcode::kLayerNormM:
      case Opcode::kRmsNormM: {
        if (inst.imm < 0.0F) {
          warn_domain(i, std::string(opcode_name(inst.op)) +
                             ": negative eps can make the variance term "
                             "negative (NaN escape)");
        }
        // A normalized row is bounded by sqrt(cols) independent of the
        // data (the max z-score bound), so the macro output is bounded by
        // sqrt(cols)*|gamma| (+|beta|) even though its input is not.
        const int cols = in[0] != nullptr ? in[0]->shape.cols : n;
        const double beta =
            inst.op == Opcode::kLayerNormM ? mag_of(2, 0.0) : 0.0;
        mag = std::sqrt(static_cast<double>(std::max(cols, 1))) *
                  mag_of(1, 1.0) +
              beta;
        nonneg = false;
        break;
      }
      case Opcode::kSoftmaxM:
        mag = 1.0;
        nonneg = true;
        break;
      case Opcode::kGeluM:
      case Opcode::kSiluM:
        // gelu/silu are bounded by |x| + 0.5 (their negative lobes are
        // below 0.3 in magnitude).
        mag = am + 0.5;
        break;
      case Opcode::kRope:
        mag = am * (mag_of(1, 1.0) + mag_of(2, 1.0));
        nonneg = false;
        break;
      case Opcode::kBiasGelu:
      case Opcode::kBiasSilu:
        mag = am + mag_of(1, 0.0) + 0.5;
        break;
      case Opcode::kBiasResidual:
        mag = am + mag_of(1, 0.0) + mag_of(2, 0.0);
        break;
    }
    write(inst.dst, check.result, mag, nonneg, i);
    if (errors_ != errors) return;
    const InstructionCost cost =
        instruction_cost(inst, shapes[0], shapes[1], sys_);
    rep_.price.charge(cost);
    rep_.instruction_costs[static_cast<std::size_t>(i)] = cost;
  }


  void check_epilogue() {
    if (bind_.output_reg < 0) return;
    if (bind_.output_reg >= kNumTensorRegs) {
      finding(VerifyKind::kReadAfterRetire, VerifySeverity::kError, -1,
              "output register " + std::to_string(bind_.output_reg) +
                  " out of range");
      return;
    }
    const AbsReg& out = regs_[static_cast<std::size_t>(bind_.output_reg)];
    if (!out.set) {
      finding(VerifyKind::kReadAfterRetire, VerifySeverity::kError,
              halt_pos_ < static_cast<int>(prog_.size()) ? halt_pos_ : -1,
              "epilogue reads output register r" +
                  std::to_string(bind_.output_reg) +
                  " but no surviving write defines it");
      return;
    }
    const auto& vals = by_reg_[static_cast<std::size_t>(bind_.output_reg)];
    if (!vals.empty()) {
      bool covered = false;
      for (const VerifyValue* v : vals) {
        if (!interval_empty(*v) && v->last_use_inst >= halt_pos_) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        finding(VerifyKind::kReadAfterRetire, VerifySeverity::kError, -1,
                "output register r" + std::to_string(bind_.output_reg) +
                    "'s value retires before the halt (epilogue reads a "
                    "retired value)");
      }
    }
  }

  void check_arena() {
    rep_.peak_resident_bytes = peak_resident_;
    const std::uint64_t arena =
        opt_.arena_bytes != 0 ? opt_.arena_bytes : kHbmCapacityBytes;
    if (peak_resident_ > arena) {
      finding(VerifyKind::kArenaOverflow, VerifySeverity::kError,
              peak_inst_,
              "peak register-file footprint of " +
                  std::to_string(peak_resident_) + " bytes exceeds the " +
                  std::to_string(arena) + "-byte device arena");
    }
  }

  const Program& prog_;
  const VerifyBindings& bind_;
  const AcceleratorSystem& sys_;
  const VerifyOptions& opt_;
  Discipline sysdisc_;
  VerifyReport rep_;
  std::array<AbsReg, kNumTensorRegs> regs_{};
  std::vector<std::vector<const VerifyValue*>> by_reg_;
  std::uint64_t resident_ = 0;
  std::uint64_t peak_resident_ = 0;
  int peak_inst_ = -1;
  int halt_pos_ = 0;
  bool range_warned_ = false;
  std::size_t errors_ = 0;
};

}  // namespace

const char* verify_kind_name(VerifyKind kind) {
  switch (kind) {
    case VerifyKind::kUseBeforeDef: return "use-before-def";
    case VerifyKind::kReadAfterRetire: return "read-after-retire";
    case VerifyKind::kDoubleRetire: return "double-retire";
    case VerifyKind::kHolderOverflow: return "holder-overflow";
    case VerifyKind::kShapeMismatch: return "shape-mismatch";
    case VerifyKind::kMisalignedSplit: return "misaligned-split";
    case VerifyKind::kUnknownMode: return "unknown-mode";
    case VerifyKind::kCarrierOverflow: return "carrier-overflow";
    case VerifyKind::kArenaOverflow: return "arena-overflow";
    case VerifyKind::kDomainError: return "domain-error";
  }
  return "?";
}

std::size_t VerifyReport::errors() const {
  std::size_t n = 0;
  for (const VerifyFinding& f : findings) {
    if (f.severity == VerifySeverity::kError) ++n;
  }
  return n;
}

std::size_t VerifyReport::warnings() const {
  return findings.size() - errors();
}

std::string VerifyReport::to_json() const {
  std::ostringstream os;
  os << "{\"version\":1,\"context\":\"" << json_escape(context)
     << "\",\"instructions\":" << instructions_checked
     << ",\"peak_live_values\":" << peak_live_values
     << ",\"peak_resident_bytes\":" << peak_resident_bytes
     << ",\"errors\":" << errors() << ",\"warnings\":" << warnings();
  if (!skipped.empty()) {
    os << ",\"skipped\":\"" << json_escape(skipped) << "\"";
  }
  os << ",\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const VerifyFinding& f = findings[i];
    if (i != 0) os << ",";
    os << "{\"rule\":\"" << verify_kind_name(f.kind) << "\",\"severity\":\""
       << severity_name(f.severity) << "\",\"file\":\""
       << json_escape(context) << "\",\"line\":" << f.inst
       << ",\"message\":\"" << json_escape(f.message) << "\",\"snippet\":\""
       << json_escape(f.snippet) << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  if (findings.empty() && !skipped.empty()) {
    os << "verify: clean at the spec level (program-level check skipped: "
       << skipped << ")";
    return os.str();
  }
  if (findings.empty()) {
    os << "verify: clean (" << instructions_checked << " instructions, "
       << peak_live_values << " peak live values, " << peak_resident_bytes
       << " peak resident bytes)";
    return os.str();
  }
  os << "verify: " << errors() << " error(s), " << warnings()
     << " warning(s) over " << instructions_checked << " instructions";
  for (const VerifyFinding& f : findings) {
    os << "\n  [" << severity_name(f.severity) << "] "
       << verify_kind_name(f.kind) << " @" << f.inst << ": " << f.message;
  }
  if (!skipped.empty()) os << "\n  program-level check skipped: " << skipped;
  return os.str();
}

VerifyReport verify_program(const Program& program,
                            const VerifyBindings& bindings,
                            const AcceleratorSystem& system,
                            const VerifyOptions& options) {
  ProgramVerifier v(program, bindings, system, options);
  return v.run();
}

ExecutionStats price_program(const Program& program,
                             const VerifyBindings& bindings,
                             const AcceleratorSystem& system) {
  VerifyReport rep = verify_program(program, bindings, system);
  BFP_REQUIRE(rep.clean(), "price_program: " + rep.summary());
  return std::move(rep.price);
}

namespace {

/// Spec-level (program-free) analysis helpers.

void spec_finding(VerifyReport& rep, VerifyKind kind, VerifySeverity sev,
                  std::string msg, std::string snippet) {
  VerifyFinding f;
  f.kind = kind;
  f.severity = sev;
  f.inst = -1;
  f.message = std::move(msg);
  f.snippet = std::move(snippet);
  rep.findings.push_back(std::move(f));
}

/// Every GEMM reduction depth a spec's layer stack issues, with the
/// layer-kind key its numeric mode is annotated under.
struct GemmSite {
  std::string label;
  std::string kind;  ///< modes-map key ("" = system default)
  std::uint64_t k = 0;
};

std::vector<GemmSite> spec_gemm_sites(const ModelSpec& spec) {
  std::vector<GemmSite> sites;
  const auto d = static_cast<std::uint64_t>(spec.d_model);
  const auto f = static_cast<std::uint64_t>(spec.mlp_hidden);
  const auto hd = static_cast<std::uint64_t>(spec.head_dim());
  const std::uint64_t seq =
      spec.family == SpecFamily::kEncoder
          ? static_cast<std::uint64_t>(spec.tokens())
          : static_cast<std::uint64_t>(spec.context);
  sites.push_back({"qkv projection", "qkv", d});
  sites.push_back({"attention scores (QK^T)", "attention", hd});
  sites.push_back({"attention values (PV)", "attention", seq});
  sites.push_back({"output projection", "proj", d});
  sites.push_back({"mlp up", "mlp", d});
  sites.push_back({"mlp down", "mlp", f});
  if (spec.family == SpecFamily::kEncoder) {
    sites.push_back({"classifier head", "", d});
  } else {
    sites.push_back({"lm head", "", d});
  }
  return sites;
}

std::int64_t approx_spec_params(const ModelSpec& spec) {
  const auto d = static_cast<std::int64_t>(spec.d_model);
  const auto kv = static_cast<std::int64_t>(spec.kv_dim());
  const auto f = static_cast<std::int64_t>(spec.mlp_hidden);
  const std::int64_t attn = d * (d + 2 * kv) + d * d;
  const std::int64_t mlp = spec.activation == SpecActivation::kSwiGlu
                               ? 3 * d * f
                               : 2 * d * f;
  std::int64_t p = (attn + mlp) * spec.depth;
  if (spec.family == SpecFamily::kDecoder) {
    p += static_cast<std::int64_t>(spec.vocab) * d;
  }
  return p;
}

/// Largest decoder (in parameters) verify_model_spec will materialize and
/// compile for full program-level verification; bigger decoders get the
/// analytic checks only (the same carve-out `bfpsim compile` makes, which
/// costs billion-parameter decoders analytically). Encoders always
/// compile — their committed specs are all sub-second lowerings.
constexpr std::int64_t kMaxCompileParams = 8'000'000;

}  // namespace

VerifyReport verify_model_spec(const ModelSpec& spec,
                               const AcceleratorSystem& system, int cards,
                               const VerifyOptions& options) {
  VerifyReport rep;
  rep.context = spec.name;

  // ---- mode annotations (defensive: the parser validates these too) ----
  for (const auto& [kind, mode] : spec.modes) {
    if (!is_numeric_mode(mode)) {
      spec_finding(rep, VerifyKind::kUnknownMode, VerifySeverity::kError,
                   "layer kind '" + kind + "' is annotated with '" + mode +
                       "', which is not in the numeric-mode registry",
                   spec.name);
    }
  }

  // ---- geometry: divisibility and block alignment ----
  if (spec.heads > 0 && spec.d_model % spec.heads != 0) {
    spec_finding(rep, VerifyKind::kShapeMismatch, VerifySeverity::kError,
                 "d_model " + std::to_string(spec.d_model) +
                     " is not divisible by " + std::to_string(spec.heads) +
                     " heads",
                 spec.name);
  }
  if (spec.kv_heads > 0 && spec.heads % spec.kv_heads != 0) {
    spec_finding(rep, VerifyKind::kShapeMismatch, VerifySeverity::kError,
                 "GQA: " + std::to_string(spec.heads) +
                     " heads do not divide into " +
                     std::to_string(spec.kv_heads) + " kv groups",
                 spec.name);
  }
  if (system.config().pu.format.shared_exponent) {
    auto alignment = [&](int width, const char* what) {
      if (width % kBlockCols != 0) {
        spec_finding(
            rep, VerifyKind::kMisalignedSplit, VerifySeverity::kWarning,
            std::string(what) + " " + std::to_string(width) +
                " is off the " + std::to_string(kBlockCols) +
                "-column bfp block grid (head splits re-block shared "
                "exponents)",
            spec.name);
      }
    };
    alignment(spec.head_dim(), "head_dim");
    alignment(spec.d_model, "d_model");
    if (spec.family == SpecFamily::kDecoder) {
      alignment(spec.kv_dim(), "kv_dim");
    }
  }

  // ---- bitwidth: carrier bounds over the spec's reduction depths ----
  const Discipline sysdisc = system_discipline(system);
  const int acc_bits = system.config().pu.psu_bits;
  for (const GemmSite& site : spec_gemm_sites(spec)) {
    if (site.k > 0xFFFF) {
      spec_finding(rep, VerifyKind::kShapeMismatch, VerifySeverity::kError,
                   site.label + ": reduction depth K=" +
                       std::to_string(site.k) +
                       " exceeds the ISA's 16-bit shape field",
                   spec.name);
    }
    const std::string mode_name =
        site.kind.empty() ? std::string{} : spec.mode_for(site.kind);
    const Discipline d = mode_name.empty() || !is_numeric_mode(mode_name)
                             ? sysdisc
                             : mode_discipline(numeric_mode(mode_name));
    const CarrierBound cb = carrier_bound(d, site.k, acc_bits);
    if (!cb.ok) {
      spec_finding(rep, VerifyKind::kCarrierOverflow, VerifySeverity::kError,
                   site.label + ": K=" + std::to_string(site.k) +
                       " under mode '" + d.name + "' needs a " +
                       std::to_string(cb.needed_bits) +
                       "-bit accumulator but the PSU carrier is " +
                       std::to_string(acc_bits) + " bits (largest safe K " +
                       "is " + std::to_string(cb.max_safe_k) + ")",
                   spec.name);
    }
  }

  // ---- device memory: the paged-KV reservation of serve_decode ----
  if (spec.family == SpecFamily::kDecoder && spec.context > 0 &&
      options.page_tokens < 1) {
    spec_finding(rep, VerifyKind::kShapeMismatch, VerifySeverity::kError,
                 "paged KV: page_tokens must be >= 1, got " +
                     std::to_string(options.page_tokens),
                 spec.name);
  } else if (spec.family == SpecFamily::kDecoder && spec.context > 0) {
    const KvReservation kv = kv_reservation(
        decode_shape_of(spec), spec.context, options.page_tokens);
    const std::uint64_t arena = options.arena_bytes != 0
                                    ? options.arena_bytes
                                    : kv.default_arena();
    // Every concurrent stream pins its own pages.
    const std::uint64_t required =
        static_cast<std::uint64_t>(std::max(options.batch, 1)) *
        kv.context_pages * kv.page_cost;
    if (required > arena) {
      spec_finding(rep, VerifyKind::kArenaOverflow, VerifySeverity::kError,
                   "paged KV: " + std::to_string(std::max(options.batch, 1)) +
                       " full-context stream(s) pin " +
                       std::to_string(required) +
                       " bytes of KV pages but the arena holds " +
                       std::to_string(arena) + " bytes",
                   spec.name);
    }
  }

  // ---- multi-card shardability ----
  if (cards < 1) {
    spec_finding(rep, VerifyKind::kShapeMismatch, VerifySeverity::kError,
                 "cards must be >= 1, got " + std::to_string(cards),
                 spec.name);
  } else if (cards > 1 && spec.family == SpecFamily::kEncoder) {
    // partition_model's own rule, asked without weights. A spec that does
    // not map onto a VitConfig fails its lowering below instead.
    std::optional<VitConfig> cfg;
    try {
      cfg = vit_config_of(spec);
    } catch (const Error&) {
    }
    if (cfg) {
      const std::string pipe = partition_infeasibility(
          *cfg, PartitionStrategy::kPipeline, cards);
      const std::string tens = partition_infeasibility(
          *cfg, PartitionStrategy::kTensor, cards);
      if (!pipe.empty() && !tens.empty()) {
        spec_finding(rep, VerifyKind::kShapeMismatch, VerifySeverity::kError,
                     "no feasible partitioning across " +
                         std::to_string(cards) + " cards (pipeline: " + pipe +
                         "; tensor: " + tens + ")",
                     spec.name);
      } else if (!pipe.empty() || !tens.empty()) {
        spec_finding(rep, VerifyKind::kMisalignedSplit,
                     VerifySeverity::kWarning,
                     std::string(pipe.empty() ? "tensor" : "pipeline") +
                         " partitioning is infeasible across " +
                         std::to_string(cards) + " cards (" +
                         (pipe.empty() ? tens : pipe) + "); only " +
                         (pipe.empty() ? "pipeline" : "tensor") + " splits",
                     spec.name);
      }
    }
  } else if (cards > 1) {
    if (spec.heads < cards && spec.depth < cards) {
      spec_finding(rep, VerifyKind::kShapeMismatch, VerifySeverity::kError,
                   "no feasible partitioning across " +
                       std::to_string(cards) + " cards (" +
                       std::to_string(spec.heads) + " heads, depth " +
                       std::to_string(spec.depth) + ")",
                   spec.name);
    } else if (spec.heads % cards != 0) {
      spec_finding(rep, VerifyKind::kMisalignedSplit,
                   VerifySeverity::kWarning,
                   std::to_string(spec.heads) +
                       " heads do not split evenly across " +
                       std::to_string(cards) +
                       " cards (tensor partitioning degrades to pipeline)",
                   spec.name);
    }
  }

  // ---- program-level: compile the graph and verify the instructions ----
  const std::int64_t params = approx_spec_params(spec);
  if (spec.family == SpecFamily::kDecoder && params > kMaxCompileParams) {
    rep.skipped = std::to_string(params) + " parameters exceed the " +
                  std::to_string(kMaxCompileParams) +
                  "-parameter compile limit";
  } else {
    const int tokens = spec.family == SpecFamily::kDecoder
                           ? std::min(spec.context, 32)
                           : 0;
    try {
      const Graph g = build_fused_spec_graph(spec, tokens);
      CompileOptions copt;
      copt.macro_kernels = true;
      const CompiledModel cm = compile(g, system, copt);
      VerifyReport pr = verify_program(cm.program(), cm.verify_bindings(),
                                       system, options);
      rep.instructions_checked = pr.instructions_checked;
      rep.peak_live_values = pr.peak_live_values;
      rep.peak_resident_bytes = pr.peak_resident_bytes;
      for (VerifyFinding& f : pr.findings) {
        rep.findings.push_back(std::move(f));
      }
    } catch (const Error& e) {
      // compile()'s own verifier post-pass (or graph construction)
      // rejected the lowering; surface it as a finding instead of
      // throwing out of a query API.
      spec_finding(rep, VerifyKind::kShapeMismatch, VerifySeverity::kError,
                   std::string("lowering failed: ") + e.what(), spec.name);
    }
  }
  return rep;
}

}  // namespace bfpsim
