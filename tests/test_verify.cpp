// Tests for the static ISA program verifier (src/compiler/verify.*).
//
// Four layers:
//   1. A mutation corpus — one hand-built program per reject class, each
//      paired with an executor "witness" showing the fault the verifier
//      predicts (the REJECT side of the soundness contract).
//   2. The operand contract — for every opcode and each single-field
//      perturbation of a valid instance, the verifier reports an error of
//      the mapped kind exactly when the executor throws.
//   3. A seeded differential fuzz harness pinning the ACCEPT side on hand
//      bases and on compiled programs: any mutant the verifier passes with
//      zero errors must run contract-clean on the Executor under the same
//      bindings and memory limit (save a NaN/Inf refusal the verifier
//      warned of, see fuzz_base).
//   4. Spec-level checks: every committed spec verifies clean in every
//      registry mode, compilation is byte-deterministic with the verifier
//      post-pass enabled, and the JSON report keeps bfpsim-lint's shape.
#include "compiler/verify.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compiler/compile.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"
#include "isa/executor.hpp"
#include "numerics/format/registry.hpp"

namespace bfpsim {
namespace {

#if defined(BFPSIM_FAST_TESTS)
constexpr int kFuzzMutantsPerBase = 80;   // ~320 mutants under sanitizers
constexpr int kCompiledMutantsPerBase = 3;   // 72 compiled-program mutants
#else
constexpr int kFuzzMutantsPerBase = 300;  // 1200 mutants in the tier-1 run
constexpr int kCompiledMutantsPerBase = 12;  // 288 compiled-program mutants
#endif

bool has_kind(const VerifyReport& rep, VerifyKind kind) {
  for (const VerifyFinding& f : rep.findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

bool has_error_kind(const VerifyReport& rep, VerifyKind kind) {
  for (const VerifyFinding& f : rep.findings) {
    if (f.kind == kind && f.severity == VerifySeverity::kError) return true;
  }
  return false;
}

/// One pre-bound input of the binding contract under test.
struct Input {
  int reg = 0;
  int rows = 0;
  int cols = 0;
  double magnitude = 0.0625;
};

VerifyBindings bindings_of(const std::vector<Input>& inputs,
                           int output_reg) {
  VerifyBindings b;
  for (const Input& in : inputs) {
    VerifyValue v;
    v.reg = in.reg;
    v.shape = {in.rows, in.cols};
    v.prebound = true;
    v.last_use_inst = 1 << 20;  // inputs stay live through the epilogue
    v.magnitude = in.magnitude;
    b.values.push_back(v);
  }
  b.output_reg = output_reg;
  return b;
}

/// Bind the inputs on an executor with seeded data in (0, magnitude]. All
/// values are strictly positive and small, so the only way a run can throw
/// is a contract violation — exactly what the verifier must predict.
void bind_inputs(Executor& ex, const std::vector<Input>& inputs, Rng& rng) {
  for (const Input& in : inputs) {
    std::vector<float> data(static_cast<std::size_t>(in.rows) *
                            static_cast<std::size_t>(in.cols));
    for (float& x : data) {
      x = rng.uniform(static_cast<float>(in.magnitude) / 2.0F,
                      static_cast<float>(in.magnitude));
    }
    ex.set_tensor(in.reg, in.rows, in.cols, data);
  }
}

Program program_of(const std::vector<Instruction>& insts) {
  Program p;
  for (const Instruction& inst : insts) p.push(inst);
  return p;
}

/// The registry index annotation (mode_index = i + 1) of a named mode.
int mode_annotation(const std::string& name) {
  const auto& modes = numeric_modes();
  for (std::size_t i = 0; i < modes.size(); ++i) {
    if (modes[i].name == name) return static_cast<int>(i) + 1;
  }
  ADD_FAILURE() << "mode not in registry: " << name;
  return 0;
}

// ---------------------------------------------------------------------------
// Mutation corpus: one REJECT per class, each with an executor witness.
// ---------------------------------------------------------------------------

class VerifyCorpus : public ::testing::Test {
 protected:
  AcceleratorSystem system_;
  Rng rng_{2026};
};

TEST_F(VerifyCorpus, UseBeforeDefRejectedAndExecutorFaults) {
  ProgramBuilder pb;
  pb.vec_mul(2, 0, 1).halt();  // r1 never bound
  const Program p = pb.build();
  const std::vector<Input> inputs = {{0, 4, 4}};
  const VerifyReport rep =
      verify_program(p, bindings_of(inputs, 2), system_);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kUseBeforeDef));

  Executor ex(system_);
  bind_inputs(ex, inputs, rng_);
  EXPECT_THROW(ex.run(p), Error);  // "reading an unset register"
}

TEST_F(VerifyCorpus, ShapeMismatchRejectedAndExecutorFaults) {
  ProgramBuilder pb;
  pb.vec_add(2, 0, 1).halt();
  const Program p = pb.build();
  const std::vector<Input> inputs = {{0, 4, 4}, {1, 4, 5}};
  const VerifyReport rep =
      verify_program(p, bindings_of(inputs, 2), system_);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kShapeMismatch));

  Executor ex(system_);
  bind_inputs(ex, inputs, rng_);
  EXPECT_THROW(ex.run(p), Error);
}

TEST_F(VerifyCorpus, SliceOutOfRangeRejectedAndExecutorFaults) {
  ProgramBuilder pb;
  pb.slice_cols(1, 0, 4, /*start=*/6, /*width=*/4).halt();
  const Program p = pb.build();
  const std::vector<Input> inputs = {{0, 4, 8}};
  const VerifyReport rep =
      verify_program(p, bindings_of(inputs, 1), system_);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kMisalignedSplit));

  Executor ex(system_);
  bind_inputs(ex, inputs, rng_);
  EXPECT_THROW(ex.run(p), Error);
}

TEST_F(VerifyCorpus, OffGridSliceWarnsButStaysClean) {
  // In-range but off the 8-column bfp block grid: a warning under the
  // shared-exponent system, never an error (the executor runs it fine).
  ProgramBuilder pb;
  pb.slice_cols(1, 0, 4, /*start=*/3, /*width=*/4).halt();
  const Program p = pb.build();
  const std::vector<Input> inputs = {{0, 4, 8}};
  const VerifyReport rep =
      verify_program(p, bindings_of(inputs, 1), system_);
  EXPECT_TRUE(rep.clean());
  if (system_.config().pu.format.shared_exponent) {
    EXPECT_TRUE(has_kind(rep, VerifyKind::kMisalignedSplit));
  }

  Executor ex(system_);
  bind_inputs(ex, inputs, rng_);
  EXPECT_NO_THROW(ex.run(p));
}

TEST_F(VerifyCorpus, UnknownModeRejectedAndExecutorFaults) {
  Instruction mm;
  mm.op = Opcode::kBfpMatmul;
  mm.dst = 2;
  mm.src_a = 0;
  mm.src_b = 1;
  mm.m = 4;
  mm.k = 8;
  mm.n = 4;
  mm.flags = 200;  // mode annotation far outside the registry
  Instruction halt;
  halt.op = Opcode::kHalt;
  const Program p = program_of({mm, halt});
  const std::vector<Input> inputs = {{0, 4, 8}, {1, 8, 4}};
  const VerifyReport rep =
      verify_program(p, bindings_of(inputs, 2), system_);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kUnknownMode));

  Executor ex(system_);
  bind_inputs(ex, inputs, rng_);
  EXPECT_THROW(ex.run(p), Error);  // "mode annotation out of range"
}

TEST_F(VerifyCorpus, UnregisteredSystemModeRejectedAndExecutorFaults) {
  SystemConfig cfg;
  cfg.pu.mode = "no-such-mode";
  const AcceleratorSystem system(cfg);
  ProgramBuilder pb;
  pb.bfp_matmul(2, 0, 1, 4, 8, 4).halt();
  const Program p = pb.build();
  const std::vector<Input> inputs = {{0, 4, 8}, {1, 8, 4}};
  const VerifyBindings b = bindings_of(inputs, 2);
  const VerifyReport rep = verify_program(p, b, system);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kUnknownMode));
  EXPECT_THROW((void)price_program(p, b, system), Error);

  Executor ex(system);
  bind_inputs(ex, inputs, rng_);
  EXPECT_THROW(ex.run(p), Error);  // the system's mode is not registered
}

TEST_F(VerifyCorpus, CarrierOverflowRejectedAndExecutorFaults) {
  // bf16 element products of the all-ones mantissa (1.9921875^2 carries a
  // 65025 mantissa product); at K = 65535 the int32 PSU carrier overflows
  // around the 33027th accumulate. The bound is data-independent, so the
  // verifier rejects; the witness run realizes the worst case.
  const int bf16 = mode_annotation("bf16");
  ASSERT_GT(bf16, 0);
  const int k = 65535;
  ProgramBuilder pb;
  pb.bfp_matmul(2, 0, 1, 1, k, 1, bf16).halt();
  const Program p = pb.build();
  const std::vector<Input> inputs = {{0, 1, k, 2.0}, {1, k, 1, 2.0}};
  const VerifyReport rep =
      verify_program(p, bindings_of(inputs, 2), system_);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kCarrierOverflow));

  Executor ex(system_);
  const float worst = 1.9921875F;  // bf16-exact, mantissa all ones
  ex.set_tensor(0, 1, k, std::vector<float>(static_cast<std::size_t>(k),
                                            worst));
  ex.set_tensor(1, k, 1, std::vector<float>(static_cast<std::size_t>(k),
                                            worst));
  EXPECT_THROW(ex.run(p), HardwareContractError);
}

TEST_F(VerifyCorpus, CarrierSafeKAcceptedAndExecutorRunsWorstCase) {
  // The accept twin: K = 16384 stays within the 32-bit carrier even at the
  // worst mantissa pattern, so the verifier passes and the same worst-case
  // binding executes clean.
  const int bf16 = mode_annotation("bf16");
  const int k = 16384;
  ProgramBuilder pb;
  pb.bfp_matmul(2, 0, 1, 1, k, 1, bf16).halt();
  const Program p = pb.build();
  const std::vector<Input> inputs = {{0, 1, k, 2.0}, {1, k, 1, 2.0}};
  const VerifyReport rep =
      verify_program(p, bindings_of(inputs, 2), system_);
  EXPECT_TRUE(rep.clean()) << rep.summary();

  Executor ex(system_);
  const float worst = 1.9921875F;
  ex.set_tensor(0, 1, k, std::vector<float>(static_cast<std::size_t>(k),
                                            worst));
  ex.set_tensor(1, k, 1, std::vector<float>(static_cast<std::size_t>(k),
                                            worst));
  EXPECT_NO_THROW(ex.run(p));
}

TEST_F(VerifyCorpus, ArenaOverflowRejectedAndExecutorFaults) {
  // r0 (64x64, 16 KiB) plus the vec.add result peaks at 32 KiB.
  ProgramBuilder pb;
  pb.vec_add(1, 0, 0).halt();
  const Program p = pb.build();
  const std::vector<Input> inputs = {{0, 64, 64}};
  VerifyOptions opt;
  opt.arena_bytes = 20000;
  const VerifyReport tight =
      verify_program(p, bindings_of(inputs, 1), system_, opt);
  EXPECT_FALSE(tight.clean());
  EXPECT_TRUE(has_error_kind(tight, VerifyKind::kArenaOverflow));
  EXPECT_EQ(tight.peak_resident_bytes, 32768u);

  opt.arena_bytes = 40000;
  const VerifyReport roomy =
      verify_program(p, bindings_of(inputs, 1), system_, opt);
  EXPECT_TRUE(roomy.clean()) << roomy.summary();

  Executor ex(system_);
  bind_inputs(ex, inputs, rng_);
  ex.set_memory_limit(20000);
  EXPECT_THROW(ex.run(p), Error);

  Executor ex2(system_);
  bind_inputs(ex2, inputs, rng_);
  ex2.set_memory_limit(40000);
  EXPECT_NO_THROW(ex2.run(p));
  EXPECT_EQ(ex2.resident_bytes(), 32768u);
}

TEST_F(VerifyCorpus, EpilogueOfUnwrittenOutputRejectedAndExecutorFaults) {
  // The "retarget the final write" mutation: the program computes into r3
  // but the contract reads r9, which nothing defines.
  ProgramBuilder pb;
  pb.vec_mul(3, 0, 0).halt();
  const Program p = pb.build();
  const std::vector<Input> inputs = {{0, 4, 4}};
  const VerifyReport rep =
      verify_program(p, bindings_of(inputs, 9), system_);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kReadAfterRetire));

  Executor ex(system_);
  bind_inputs(ex, inputs, rng_);
  EXPECT_NO_THROW(ex.run(p));
  EXPECT_THROW(ex.tensor(9), Error);  // the epilogue read faults
}

TEST_F(VerifyCorpus, ReadOutsideDeclaredIntervalRejected) {
  // The allocator declares r5's value retired after instruction 1, but
  // instruction 3 still reads it — the interval bookkeeping that licenses
  // register reuse is wrong.
  ProgramBuilder pb;
  pb.vec_mul_scalar(5, 0, 2.0F)   // 0: def r5
      .vec_mul_scalar(6, 5, 1.0F)  // 1: declared last use of r5
      .vec_mul_scalar(7, 6, 1.0F)  // 2
      .vec_add(8, 5, 7)            // 3: stale read of r5
      .halt();                     // 4
  const Program p = pb.build();
  VerifyBindings b = bindings_of({{0, 4, 4}}, 8);
  auto computed = [](int reg, int def, int last, int rows, int cols) {
    VerifyValue v;
    v.reg = reg;
    v.def_inst = def;
    v.last_use_inst = last;
    v.shape = {rows, cols};
    return v;
  };
  b.values.push_back(computed(5, 0, 1, 4, 4));  // retires before inst 3
  b.values.push_back(computed(6, 1, 2, 4, 4));
  b.values.push_back(computed(7, 2, 3, 4, 4));
  b.values.push_back(computed(8, 3, 4, 4, 4));  // covers the halt epilogue
  const VerifyReport rep = verify_program(p, b, system_);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kReadAfterRetire));
}

TEST_F(VerifyCorpus, OverlappingValuesOnOneRegisterRejected) {
  // Two live values declared on r5 at once: the allocator handed out a
  // slot it still owes. The executor witness for this class is the stale
  // read above — once the second value lands, the first reader sees the
  // wrong tensor (here with a different shape, which faults).
  ProgramBuilder pb;
  pb.vec_mul_scalar(5, 0, 2.0F)  // 0: def A on r5 (4x4)
      .row_sum(5, 1, 4, 4)       // 1: def B on r5 (4x1) while A is live
      .vec_add(6, 5, 0)          // 2: A's reader gets B -> shape fault
      .halt();
  const Program p = pb.build();
  VerifyBindings b = bindings_of({{0, 4, 4}, {1, 4, 4}}, 6);
  VerifyValue a;
  a.reg = 5;
  a.def_inst = 0;
  a.last_use_inst = 2;
  a.shape = {4, 4};
  VerifyValue bb;
  bb.reg = 5;
  bb.def_inst = 1;
  bb.last_use_inst = 2;
  bb.shape = {4, 1};
  VerifyValue out;
  out.reg = 6;
  out.def_inst = 2;
  out.last_use_inst = 3;
  out.shape = {4, 4};
  b.values.push_back(a);
  b.values.push_back(bb);
  b.values.push_back(out);
  const VerifyReport rep = verify_program(p, b, system_);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kDoubleRetire));

  Executor ex(system_);
  bind_inputs(ex, {{0, 4, 4}, {1, 4, 4}}, rng_);
  EXPECT_THROW(ex.run(p), Error);  // the stale reader's shape check fires
}

TEST_F(VerifyCorpus, HolderPeakAboveDeclaredWindowWarns) {
  ProgramBuilder pb;
  pb.vec_mul_scalar(1, 0, 1.0F)
      .vec_mul_scalar(2, 0, 1.0F)
      .vec_mul_scalar(3, 0, 1.0F)
      .vec_add(4, 1, 2)
      .vec_add(5, 4, 3)
      .halt();
  const Program p = pb.build();
  VerifyBindings b = bindings_of({{0, 2, 2}}, 5);
  auto computed = [](int reg, int def, int last) {
    VerifyValue v;
    v.reg = reg;
    v.def_inst = def;
    v.last_use_inst = last;
    v.shape = {2, 2};
    return v;
  };
  b.values.push_back(computed(1, 0, 3));
  b.values.push_back(computed(2, 1, 3));
  b.values.push_back(computed(3, 2, 4));
  b.values.push_back(computed(4, 3, 4));
  b.values.push_back(computed(5, 4, 5));
  b.declared_peak_regs = 3;  // peak is 4 (prebound r0 + three temps)
  const VerifyReport rep = verify_program(p, b, system_);
  EXPECT_TRUE(rep.clean());  // a warning, not an error
  EXPECT_TRUE(has_kind(rep, VerifyKind::kHolderOverflow));
  EXPECT_GT(rep.peak_live_values, 3);
}

TEST_F(VerifyCorpus, DomainWarningsOnRiskyHostOps) {
  // rsqrt/div/exp over possibly-negative operands warn but never reject:
  // NaN/Inf propagate silently through the executor, so this class stays
  // advisory by design.
  ProgramBuilder pb;
  pb.host_rsqrt(1, 0, -0.5F).host_div(2, 0, 0).vec_exp(3, 2).halt();
  const Program p = pb.build();
  const VerifyReport rep =
      verify_program(p, bindings_of({{0, 2, 2}}, 3), system_);
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_TRUE(has_kind(rep, VerifyKind::kDomainError));
}

TEST_F(VerifyCorpus, JsonReportKeepsLintShape) {
  ProgramBuilder pb;
  pb.vec_mul(2, 0, 1).halt();
  VerifyReport rep =
      verify_program(pb.build(), bindings_of({{0, 2, 2}}, 2), system_);
  rep.context = "corpus/use-before-def";
  const std::string js = rep.to_json();
  EXPECT_NE(js.find("\"version\":1"), std::string::npos);
  EXPECT_NE(js.find("\"findings\":["), std::string::npos);
  EXPECT_NE(js.find("\"rule\":\"use-before-def\""), std::string::npos);
  EXPECT_NE(js.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(js.find("\"file\":\"corpus/use-before-def\""),
            std::string::npos);
  EXPECT_NE(js.find("\"line\":0"), std::string::npos);
  EXPECT_NE(js.find("\"snippet\":\"vec.mul"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The operand contract: one rule, so the verifier rejects exactly the
// operand faults the executor throws on.
// ---------------------------------------------------------------------------

/// An instruction and the shapes of the operands it reads from r0, r1, r2.
struct ContractCase {
  Instruction inst;
  std::vector<TensorShape> shapes;
};

/// A valid instance of `op`: m = 4, k = 8, n = 16.
ContractCase contract_case(Opcode op) {
  constexpr int m = 4;
  constexpr int n = 16;
  const TensorShape mn{m, n};
  const TensorShape row{1, n};
  ContractCase c;
  c.inst.op = op;
  c.inst.dst = 3;
  c.inst.src_a = 0;
  c.inst.src_b = 1;
  c.inst.m = m;
  c.inst.n = n;
  switch (op) {
    case Opcode::kNop:
    case Opcode::kSync:
    case Opcode::kHalt:
      break;
    case Opcode::kBfpMatmul:
      c.inst.k = 8;
      c.shapes = {{m, 8}, {8, n}};
      break;
    case Opcode::kVecMulScalar:
    case Opcode::kVecAddScalar:
    case Opcode::kVecExp:
    case Opcode::kVecTanh:
    case Opcode::kRowSum:
    case Opcode::kRowMax:
    case Opcode::kHostRsqrt:
    case Opcode::kHostRecip:
    case Opcode::kTranspose:
    case Opcode::kSoftmaxM:
    case Opcode::kGeluM:
    case Opcode::kSiluM:
      c.shapes = {mn};
      break;
    case Opcode::kVecMul:
    case Opcode::kVecAdd:
    case Opcode::kHostDiv:
      c.shapes = {mn, mn};
      break;
    case Opcode::kRowSub:
    case Opcode::kRowMulBcast:
      c.shapes = {mn, {m, 1}};
      break;
    case Opcode::kColAddBcast:
    case Opcode::kColMulBcast:
    case Opcode::kRmsNormM:
    case Opcode::kBiasGelu:
    case Opcode::kBiasSilu:
      c.shapes = {mn, row};
      break;
    case Opcode::kLayerNormM:
      c.shapes = {mn, row, row};
      break;
    case Opcode::kBiasResidual:
      c.shapes = {mn, row, mn};
      break;
    case Opcode::kRope:
      c.shapes = {mn, mn, mn};
      break;
    case Opcode::kSliceCols:
      c.inst.k = 8;  // the window [8, 16) of a 4 x 16 operand
      c.inst.n = 8;
      c.shapes = {mn};
      break;
    case Opcode::kConcatCols:
      c.shapes = {mn, {m, 8}};
      break;
  }
  if (c.shapes.size() == 3) c.inst.set_src_c(2);
  return c;
}

/// The base case and each single-field perturbation of it: operand rows
/// and cols by +-1, m/k/n by +-1, an empty window and, for the matmul,
/// every mode annotation up to one past the registry.
std::vector<ContractCase> perturbations(const ContractCase& base) {
  std::vector<ContractCase> out = {base};
  for (std::size_t j = 0; j < base.shapes.size(); ++j) {
    for (const auto& [dr, dc] : {std::pair{-1, 0}, {1, 0}, {0, -1}, {0, 1}}) {
      ContractCase c = base;
      c.shapes[j].rows += dr;
      c.shapes[j].cols += dc;
      if (c.shapes[j].rows >= 1 && c.shapes[j].cols >= 1) out.push_back(c);
    }
  }
  for (std::uint16_t Instruction::*field :
       {&Instruction::m, &Instruction::k, &Instruction::n}) {
    for (const int d : {-1, 1}) {
      ContractCase c = base;
      if (c.inst.*field + d < 0) continue;
      c.inst.*field = static_cast<std::uint16_t>(c.inst.*field + d);
      out.push_back(c);
    }
  }
  ContractCase empty = base;
  empty.inst.n = 0;
  out.push_back(empty);
  if (base.inst.op == Opcode::kBfpMatmul) {
    for (std::size_t idx = 1; idx <= numeric_modes().size() + 1; ++idx) {
      ContractCase c = base;
      c.inst.flags = static_cast<std::uint16_t>(idx);
      out.push_back(c);
    }
  }
  return out;
}

VerifyKind kind_of_fault(OperandFault fault) {
  switch (fault) {
    case OperandFault::kNone:
    case OperandFault::kShape:
      break;
    case OperandFault::kSliceWindow:
      return VerifyKind::kMisalignedSplit;
    case OperandFault::kUnknownMode:
      return VerifyKind::kUnknownMode;
  }
  return VerifyKind::kShapeMismatch;
}

TEST(OperandContract, VerifierRejectsExactlyWhatExecutorFaults) {
  SystemConfig unregistered;
  unregistered.pu.mode = "no-such-mode";
  std::map<OperandFault, int> faults;
  int cases = 0;
  Rng rng(17);
  for (const SystemConfig& cfg : {SystemConfig{}, unregistered}) {
    const AcceleratorSystem system(cfg);
    for (int v = 0; v <= kMaxOpcode; ++v) {
      const ContractCase base = contract_case(static_cast<Opcode>(v));
      for (const ContractCase& c : perturbations(base)) {
        std::vector<Input> inputs;
        for (std::size_t j = 0; j < c.shapes.size(); ++j) {
          inputs.push_back(
              {static_cast<int>(j), c.shapes[j].rows, c.shapes[j].cols});
        }
        const OperandCheck check = check_operands(c.inst, c.shapes, system);
        Instruction halt;
        halt.op = Opcode::kHalt;
        const Program p = program_of({c.inst, halt});
        const VerifyReport rep = verify_program(
            p, bindings_of(inputs, check.writes ? c.inst.dst : -1), system);
        Executor ex(system);
        bind_inputs(ex, inputs, rng);
        bool threw = false;
        try {
          ex.run(p);
        } catch (const Error&) {
          threw = true;
        }
        const std::string what = to_string(c.inst) + " on " + cfg.pu.mode;
        ++cases;
        ++faults[check.fault];
        EXPECT_EQ(threw, !check.ok()) << what;
        EXPECT_EQ(!rep.clean(), threw) << what << "\n" << rep.summary();
        if (threw) {
          EXPECT_TRUE(has_error_kind(rep, kind_of_fault(check.fault)))
              << what << "\n" << rep.summary();
        }
      }
    }
  }
  EXPECT_GT(cases, 500);
  EXPECT_GT(faults[OperandFault::kNone], 0);
  EXPECT_GT(faults[OperandFault::kShape], 0);
  EXPECT_GT(faults[OperandFault::kSliceWindow], 0);
  EXPECT_GT(faults[OperandFault::kUnknownMode], 0);
}

// ---------------------------------------------------------------------------
// Differential fuzz: verifier-ACCEPT must imply a contract-clean run.
// ---------------------------------------------------------------------------

/// One fuzz base: a well-formed program over small positive inputs. The
/// hand-built bases deliberately avoid raw host.div/recip/rsqrt and
/// vec.exp — those can produce NaN/Inf, which the verifier only warns of
/// and the fp32 datapath refuses at run time (see fuzz_base). The compiled
/// bases carry them.
struct FuzzBase {
  std::string name;
  std::vector<Instruction> insts;
  std::vector<Input> inputs;
  int output_reg = 0;
  SystemConfig system;  ///< bfp8 unless a compiled base names its mode
  /// Roomy for the base, tight enough that dimension mutations can
  /// overflow it.
  std::uint64_t arena = 1 << 20;
};

std::vector<FuzzBase> fuzz_bases() {
  std::vector<FuzzBase> bases;
  {
    FuzzBase b;
    b.name = "attention";
    ProgramBuilder pb;
    pb.bfp_matmul(4, 0, 1, 8, 8, 8)   // Q
        .bfp_matmul(5, 0, 2, 8, 8, 8)  // K
        .transpose(6, 5, 8, 8)
        .bfp_matmul(7, 4, 6, 8, 8, 8)  // scores
        .softmax_m(8, 7, 8, 8)
        .bfp_matmul(9, 0, 3, 8, 8, 8)  // V
        .bfp_matmul(10, 8, 9, 8, 8, 8)
        .halt();
    b.insts = pb.build().instructions();
    b.inputs = {{0, 8, 8}, {1, 8, 8}, {2, 8, 8}, {3, 8, 8}};
    b.output_reg = 10;
    bases.push_back(std::move(b));
  }
  {
    FuzzBase b;
    b.name = "mlp";
    ProgramBuilder pb;
    pb.layernorm_m(7, 0, 5, 6, 8, 8, 1e-5F)
        .bfp_matmul(8, 7, 1, 8, 8, 16)
        .bias_gelu(9, 8, 2, 8, 16)
        .bfp_matmul(10, 9, 3, 8, 16, 8)
        .bias_residual(11, 10, 4, 0, 8, 8)
        .halt();
    b.insts = pb.build().instructions();
    b.inputs = {{0, 8, 8}, {1, 8, 16}, {2, 1, 16},
                {3, 16, 8}, {4, 1, 8}, {5, 1, 8}, {6, 1, 8}};
    b.output_reg = 11;
    bases.push_back(std::move(b));
  }
  {
    FuzzBase b;
    b.name = "slice-reduce";
    ProgramBuilder pb;
    pb.slice_cols(1, 0, 8, 0, 8)
        .slice_cols(2, 0, 8, 8, 8)
        .vec_mul(3, 1, 2)
        .concat_cols(4, 3, 1)
        .row_sum(5, 4, 8, 16)
        .row_sub(6, 4, 5, 8, 16)
        .vec_tanh(7, 6)
        .halt();
    b.insts = pb.build().instructions();
    b.inputs = {{0, 8, 16}};
    b.output_reg = 7;
    bases.push_back(std::move(b));
  }
  {
    FuzzBase b;
    b.name = "broadcast-rope";
    ProgramBuilder pb;
    pb.rope(4, 0, 1, 2, 8, 8)
        .col_add_bcast(5, 4, 3, 8, 8)
        .col_mul_bcast(6, 5, 3, 8, 8)
        .vec_mul_scalar(7, 6, 0.5F)
        .vec_add_scalar(8, 7, 0.25F)
        .silu_m(9, 8)
        .row_max(10, 9, 8, 8)
        .row_mul_bcast(11, 9, 10, 8, 8)
        .halt();
    b.insts = pb.build().instructions();
    b.inputs = {{0, 8, 8}, {1, 8, 8}, {2, 8, 8}, {3, 1, 8}};
    b.output_reg = 11;
    bases.push_back(std::move(b));
  }
  return bases;
}

/// The compiled vit-tiny-test and llama-tiny (8 tokens) programs, fused
/// and --no-fuse, each compiled for and fuzzed on every registry mode.
/// Their constants and inputs become pre-bound inputs at their declared
/// magnitudes (run-time inputs at 1.0); the arena is twice the program's
/// peak.
std::vector<FuzzBase> compiled_fuzz_bases() {
  std::vector<FuzzBase> bases;
  for (const char* name : {"vit-tiny-test", "llama-tiny"}) {
    const ModelSpec spec = load_model_spec(name);
    const int tokens = spec.family == SpecFamily::kDecoder ? 8 : 0;
    for (const NumericMode& mode : numeric_modes()) {
      for (const bool fuse : {true, false}) {
        FuzzBase b;
        b.name = std::string(name) + " " + mode.name +
                 (fuse ? "" : " no-fuse");
        b.system.pu.mode = mode.name;
        b.system.pu.format = mode.spec;
        const AcceleratorSystem system(b.system);
        CompileOptions copt;
        copt.macro_kernels = fuse;
        const CompiledModel cm =
            compile(fuse ? build_fused_spec_graph(spec, tokens)
                         : build_spec_graph(spec, tokens),
                    system, copt);
        const VerifyBindings vb = cm.verify_bindings();
        for (const VerifyValue& v : vb.values) {
          if (!v.prebound) continue;
          b.inputs.push_back({v.reg, v.shape.rows, v.shape.cols,
                              v.magnitude >= 0.0 ? v.magnitude : 1.0});
        }
        b.insts = cm.program().instructions();
        b.output_reg = vb.output_reg;
        b.arena = 2 * verify_program(cm.program(), vb, system)
                          .peak_resident_bytes;
        bases.push_back(std::move(b));
      }
    }
  }
  return bases;
}

/// Ops whose flags field carries semantics the fuzzer understands (matmul
/// mode annotation; third source register in the high byte). Flags on
/// other ops select hardware variants (e.g. the split-exp softmax) whose
/// availability is a system property, not a program property — the fuzzer
/// leaves them alone.
bool flags_mutable(Opcode op) {
  return op == Opcode::kBfpMatmul || op == Opcode::kLayerNormM ||
         op == Opcode::kRope || op == Opcode::kBiasResidual;
}

/// Apply 1-3 random field mutations. Opcodes and imm are never touched:
/// the opcode set is covered by the bases, and imm mutations only shift
/// float values (which cannot fault).
void mutate(std::vector<Instruction>& insts, Rng& rng) {
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  static const int kDims[] = {0, 1, 7, 8, 9, 15, 16, 17, 64, 255, 4096};
  for (int e = 0; e < edits; ++e) {
    Instruction& inst =
        insts[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(insts.size()) - 1))];
    switch (rng.uniform_int(0, 6)) {
      case 0:
        inst.dst = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
        break;
      case 1:
        inst.src_a = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
        break;
      case 2:
        inst.src_b = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
        break;
      case 3:
        inst.m = static_cast<std::uint16_t>(
            kDims[rng.uniform_int(0, 10)]);
        break;
      case 4:
        inst.k = static_cast<std::uint16_t>(
            kDims[rng.uniform_int(0, 10)]);
        break;
      case 5:
        inst.n = static_cast<std::uint16_t>(
            kDims[rng.uniform_int(0, 10)]);
        break;
      default:
        if (flags_mutable(inst.op)) {
          if (inst.op == Opcode::kBfpMatmul) {
            inst.flags = static_cast<std::uint16_t>(
                rng.bernoulli(0.2) ? 200 : rng.uniform_int(0, 8));
          } else {
            inst.flags = static_cast<std::uint16_t>(
                (rng.uniform_int(0, 31) << 8) | (inst.flags & 0xFF));
          }
        } else {
          inst.dst = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
        }
        break;
    }
  }
}

/// The index of the instruction of `p` that throws when run one
/// instruction at a time on `ex` (whose register file persists across
/// run() calls, so this replays a whole-program run), or -1.
int faulting_instruction(Executor& ex, const Program& p) {
  const std::vector<Instruction>& insts = p.instructions();
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (insts[i].op == Opcode::kHalt) break;
    try {
      ex.run(program_of({insts[i]}));
    } catch (const Error&) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Whether a domain-error warning sits on instruction `fault` or on an
/// instruction whose result reaches it through a chain of register
/// def-use edges (the last write of each read register before the read).
bool domain_warned_upstream(const Program& p, const VerifyReport& rep,
                            int fault) {
  const std::vector<Instruction>& insts = p.instructions();
  std::vector<bool> upstream(insts.size(), false);
  std::vector<bool> wanted(256, false);
  upstream[static_cast<std::size_t>(fault)] = true;
  const auto want_operands = [&](const Instruction& inst) {
    const Operands ops = operands(inst);
    for (int j = 0; j < ops.count; ++j) wanted[ops.regs[j]] = true;
  };
  want_operands(insts[static_cast<std::size_t>(fault)]);
  for (int i = fault - 1; i >= 0; --i) {
    const Instruction& inst = insts[static_cast<std::size_t>(i)];
    if (inst.op == Opcode::kNop || inst.op == Opcode::kSync ||
        !wanted[inst.dst]) {
      continue;
    }
    upstream[static_cast<std::size_t>(i)] = true;
    wanted[inst.dst] = false;
    want_operands(inst);
  }
  for (const VerifyFinding& f : rep.findings) {
    if (f.kind == VerifyKind::kDomainError && f.inst >= 0 &&
        upstream[static_cast<std::size_t>(f.inst)]) {
      return true;
    }
  }
  return false;
}

/// What a fuzz campaign saw.
struct FuzzTally {
  int accepted = 0;
  int rejected = 0;
  /// Accepted mutants the fp32 datapath refused at run time for a NaN/Inf
  /// operand after the verifier warned of a domain escape.
  int warned_nonfinite = 0;
  std::map<std::string, int> reject_kinds;
};

/// Check that `base` verifies and runs clean, then that every one of
/// `draws` mutants the verifier accepts runs contract-clean.
void fuzz_base(const FuzzBase& base, int draws, Rng& rng, FuzzTally& tally) {
  const AcceleratorSystem system(base.system);
  VerifyOptions opt;
  opt.arena_bytes = base.arena;
  const VerifyBindings bindings = bindings_of(base.inputs, base.output_reg);
  {
    const Program p = program_of(base.insts);
    const VerifyReport rep = verify_program(p, bindings, system, opt);
    ASSERT_TRUE(rep.clean())
        << base.name << " base rejected: " << rep.summary();
    Executor ex(system);
    bind_inputs(ex, base.inputs, rng);
    ex.set_memory_limit(opt.arena_bytes);
    ASSERT_NO_THROW(ex.run(p)) << base.name;
    ASSERT_NO_THROW(ex.tensor(base.output_reg)) << base.name;
  }
  for (int it = 0; it < draws; ++it) {
    std::vector<Instruction> insts = base.insts;
    mutate(insts, rng);
    const Program p = program_of(insts);
    const VerifyReport rep = verify_program(p, bindings, system, opt);
    if (!rep.clean()) {
      ++tally.rejected;
      for (const VerifyFinding& f : rep.findings) {
        if (f.severity == VerifySeverity::kError) {
          ++tally.reject_kinds[verify_kind_name(f.kind)];
        }
      }
      continue;
    }
    ++tally.accepted;
    const Rng data_rng = rng;
    Executor ex(system);
    bind_inputs(ex, base.inputs, rng);
    ex.set_memory_limit(opt.arena_bytes);
    try {
      ex.run(p);
      ex.tensor(base.output_reg);
    } catch (const Error& e) {
      // A possible NaN/Inf escape is only a domain-error warning, yet the
      // sliced fp32 datapath refuses NaN/Inf operands: that fault depends
      // on the data and must have been warned of on the faulting
      // instruction or upstream of it. Any other fault is a soundness
      // failure.
      if (std::string(e.what()).find("NaN/Inf operands") !=
          std::string::npos) {
        Rng replay_rng = data_rng;
        Executor replay(system);
        bind_inputs(replay, base.inputs, replay_rng);
        replay.set_memory_limit(opt.arena_bytes);
        const int fault = faulting_instruction(replay, p);
        if (fault >= 0 && domain_warned_upstream(p, rep, fault)) {
          ++tally.warned_nonfinite;
          continue;
        }
      }
      ADD_FAILURE() << "verifier accepted a faulting mutant (" << base.name
                    << ", iteration " << it << "): " << e.what() << "\n"
                    << p.disassemble();
    }
  }
}

TEST(VerifyFuzz, AcceptedMutantsExecuteContractClean) {
  Rng rng(0xB1F5);
  FuzzTally tally;
  const std::vector<FuzzBase> bases = fuzz_bases();
  for (const FuzzBase& base : bases) {
    fuzz_base(base, kFuzzMutantsPerBase, rng, tally);
  }
  const int total = static_cast<int>(bases.size()) * kFuzzMutantsPerBase;
  EXPECT_EQ(tally.accepted + tally.rejected, total);
#if !defined(BFPSIM_FAST_TESTS)
  EXPECT_GE(total, 1000) << "the differential pin needs >= 1000 mutants";
#endif
  // The mutation operators must actually exercise both sides.
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  // The hand bases hold no host division, rsqrt or exp: every accepted
  // mutant runs clean.
  EXPECT_EQ(tally.warned_nonfinite, 0);
  // And the reject population must span the structural classes.
  EXPECT_GT(tally.reject_kinds["use-before-def"], 0);
  EXPECT_GT(tally.reject_kinds["shape-mismatch"], 0);
}

TEST(VerifyFuzz, CompiledProgramMutantsExecuteContractClean) {
  Rng rng(0xC0DE);
  FuzzTally tally;
  const std::vector<FuzzBase> bases = compiled_fuzz_bases();
  ASSERT_EQ(bases.size(), 2 * 2 * numeric_modes().size());
  for (const FuzzBase& base : bases) {
    fuzz_base(base, kCompiledMutantsPerBase, rng, tally);
  }
  EXPECT_EQ(tally.accepted + tally.rejected,
            static_cast<int>(bases.size()) * kCompiledMutantsPerBase);
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.reject_kinds["shape-mismatch"], 0);
  RecordProperty("warned_nonfinite", tally.warned_nonfinite);
}

// ---------------------------------------------------------------------------
// Compiler integration and spec-level verification.
// ---------------------------------------------------------------------------

TEST(VerifyCompile, CompiledProgramsCarryCleanBindings) {
  // compile() now runs the verifier as a mandatory post-pass, so simply
  // compiling proves acceptance; this re-runs it standalone to check the
  // bindings the compiler declares are themselves coherent.
  AcceleratorSystem system;
  const ModelSpec spec = load_model_spec("vit-tiny-test");
  const Graph g = build_fused_spec_graph(spec);
  CompileOptions copt;
  copt.macro_kernels = true;
  const CompiledModel cm = compile(g, system, copt);
  const VerifyReport rep =
      verify_program(cm.program(), cm.verify_bindings(), system);
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_EQ(rep.instructions_checked, cm.program().size());
  EXPECT_GT(rep.peak_live_values, 0);
  EXPECT_GT(rep.peak_resident_bytes, 0u);
}

TEST(VerifyCompile, CompilationIsByteIdenticalWithVerifierEnabled) {
  AcceleratorSystem system;
  const ModelSpec spec = load_model_spec("vit-tiny-test");
  CompileOptions copt;
  copt.macro_kernels = true;
  const CompiledModel a = compile(build_fused_spec_graph(spec), system, copt);
  const CompiledModel b = compile(build_fused_spec_graph(spec), system, copt);
  EXPECT_EQ(a.program().serialize(), b.program().serialize());
}

TEST(VerifySpecs, EveryCommittedSpecVerifiesCleanInEveryMode) {
  for (const RegisteredSpec& r : registered_specs()) {
    const ModelSpec spec = load_model_spec(r.name);
    for (const NumericMode& mode : numeric_modes()) {
      SystemConfig cfg;
      cfg.pu.mode = mode.name;
      cfg.pu.format = mode.spec;
      const AcceleratorSystem system(cfg);
      const VerifyReport rep = verify_model_spec(spec, system);
      EXPECT_TRUE(rep.clean())
          << r.name << " under " << mode.name << ": " << rep.summary();
    }
  }
}

TEST(VerifySpecs, UnevenHeadSplitWarnsWithoutFailing) {
  const ModelSpec spec = load_model_spec("deit-small");  // 6 heads
  AcceleratorSystem system;
  const VerifyReport rep = verify_model_spec(spec, system, /*cards=*/4);
  EXPECT_TRUE(rep.clean()) << rep.summary();
  // One warning, naming the strategy partition_model rejects.
  ASSERT_EQ(rep.findings.size(), 1u) << rep.summary();
  EXPECT_EQ(rep.findings[0].kind, VerifyKind::kMisalignedSplit);
  EXPECT_EQ(rep.findings[0].severity, VerifySeverity::kWarning);
  EXPECT_EQ(rep.findings[0].message.rfind("tensor partitioning", 0), 0u)
      << rep.findings[0].message;
}

// Encoder specs ask partition_model's own feasibility rule: when neither
// strategy splits, nothing can run across those cards.
TEST(VerifySpecs, EncoderPartitioningFollowsPartitionModel) {
  AcceleratorSystem system;
  // depth 12 % 5 and 6 heads % 5: both strategies rejected.
  const VerifyReport five =
      verify_model_spec(load_model_spec("deit-small"), system, /*cards=*/5);
  EXPECT_FALSE(five.clean());
  EXPECT_TRUE(has_error_kind(five, VerifyKind::kShapeMismatch));
  // Both strategies split vit-tiny-test two ways.
  const VerifyReport two =
      verify_model_spec(load_model_spec("vit-tiny-test"), system, 2);
  EXPECT_TRUE(two.findings.empty()) << two.summary();
}

// A decoder too large to compile keeps its spec-level checks, and its
// report says the program-level check did not run.
TEST(VerifySpecs, OversizedDecoderReportsSkippedProgramCheck) {
  AcceleratorSystem system;
  const VerifyReport big =
      verify_model_spec(load_model_spec("llm-decode"), system);
  EXPECT_TRUE(big.clean()) << big.summary();
  EXPECT_EQ(big.instructions_checked, 0u);
  EXPECT_NE(big.skipped.find("compile limit"), std::string::npos);
  EXPECT_NE(big.summary().find("program-level check skipped"),
            std::string::npos)
      << big.summary();
  EXPECT_NE(big.to_json().find("\"skipped\":"), std::string::npos);

  const VerifyReport small =
      verify_model_spec(load_model_spec("llama-tiny"), system);
  EXPECT_TRUE(small.skipped.empty());
  EXPECT_GT(small.instructions_checked, 0u);
  EXPECT_EQ(small.to_json().find("\"skipped\":"), std::string::npos);
}

TEST(VerifySpecs, InfeasiblePartitioningRejected) {
  ModelSpec spec = load_model_spec("vit-tiny-test");
  spec.heads = 2;
  spec.depth = 2;
  AcceleratorSystem system;
  const VerifyReport rep = verify_model_spec(spec, system, /*cards=*/7);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kShapeMismatch));
}

TEST(VerifySpecs, PagedKvOverCommitRejected) {
  const ModelSpec spec = load_model_spec("llama-tiny");
  AcceleratorSystem system;
  VerifyOptions opt;
  opt.batch = 3;  // default arena holds exactly one full-context stream
  const VerifyReport rep =
      verify_model_spec(spec, system, /*cards=*/1, opt);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kArenaOverflow));
}

// serve_decode throws on page_tokens < 1 (kv_reservation's requirement), so
// the verifier must not pass such a reservation.
TEST(VerifySpecs, ZeroPageTokensRejected) {
  const ModelSpec spec = load_model_spec("llama-tiny");
  AcceleratorSystem system;
  VerifyOptions opt;
  opt.page_tokens = 0;
  const VerifyReport rep =
      verify_model_spec(spec, system, /*cards=*/1, opt);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_error_kind(rep, VerifyKind::kShapeMismatch));
  EXPECT_FALSE(has_error_kind(rep, VerifyKind::kArenaOverflow));
  EXPECT_THROW(kv_reservation(decode_shape_of(spec), spec.context, 0),
               Error);
}

}  // namespace
}  // namespace bfpsim
