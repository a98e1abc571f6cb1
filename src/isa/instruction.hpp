// Instruction set of the multi-mode processing unit.
//
// The paper's controller sequences three hardware modes (bfp8 MatMul, fp32
// mul, fp32 add) plus the quantizer and memory interface, "running with
// independent instructions" per unit (Section III-A). This ISA makes that
// concrete: a 128-bit instruction word that a host compiler emits and the
// unit's controller decodes. Vector transcendentals (exp/tanh) are macro
// instructions the controller expands into the mul/add micro-programs of
// src/numerics/nonlinear.*; divisions and square roots execute on the host
// CPU (Section III-B) and are modelled as explicit host opcodes so the
// Table IV latency attribution stays honest.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace bfpsim {

enum class Opcode : std::uint8_t {
  kNop = 0,
  // Linear mode.
  kBfpMatmul = 1,     ///< C[dst] = A[src_a] (m x k) * B[src_b] (k x n), bfp8
  // fp32 vector mode (elementwise over equal-shape tensors).
  kVecMul = 2,        ///< C = A * B on the sliced-multiplier path
  kVecAdd = 3,        ///< C = A + B on the shifter/ACC path
  kVecMulScalar = 4,  ///< C = A * imm
  kVecAddScalar = 5,  ///< C = A + imm
  // Macro vector ops (expanded to mul/add/EU micro-programs on-device).
  kVecExp = 6,
  kVecTanh = 7,
  // Row-wise reductions over an (m x n) tensor -> (m x 1).
  kRowSum = 8,        ///< ACC-path reduction
  kRowMax = 9,        ///< comparator tree (host-assisted in this design)
  // Broadcast combines: C[i][j] = A[i][j] op B[i] for row vectors.
  kRowSub = 10,
  kRowMulBcast = 11,
  // Host-executed scalar ops (Section III-B: no divider on the unit).
  kHostDiv = 12,      ///< C = A / B elementwise on host
  kHostRsqrt = 13,    ///< C = 1/sqrt(A + imm) elementwise on host
  kHostRecip = 14,    ///< C = 1 / A elementwise on host
  // Control.
  kSync = 15,
  // Column broadcasts (per-channel bias/scale: B is a 1 x n row vector).
  kColAddBcast = 16,  ///< C[i][j] = A[i][j] + B[j]
  kColMulBcast = 17,  ///< C[i][j] = A[i][j] * B[j]
  // Data layout (DMA/crossbar, no arithmetic).
  kTranspose = 18,    ///< C = A^T for an (m x n) view
  kSliceCols = 19,    ///< C = A[:, k : k+n] for an (m x ?) view
  kConcatCols = 20,   ///< C = [A | B] column-wise
  kHalt = 21,
  // Macro kernels (graph-compiler additions): the controller expands each
  // into the exact mul/add/EU/host micro-program of
  // src/numerics/nonlinear.* — the same arithmetic, in the same order, as
  // VitModel::forward_mixed runs, which is what lets compiled programs pin
  // bit- and cycle-identity against the legacy C++ model paths. Three-
  // operand macros carry their third register in the flags high byte
  // (`src_c`, see Instruction).
  kLayerNormM = 22,   ///< C = layernorm(A; gamma=B, beta=src_c, eps=imm)
  kRmsNormM = 23,     ///< C = rmsnorm(A; gamma=B, eps=imm)
  kSoftmaxM = 24,     ///< C = row softmax(A); flags bit0 = fast (split) exp
  kGeluM = 25,        ///< C = gelu(A) elementwise
  kSiluM = 26,        ///< C = silu(A) elementwise
  kRope = 27,         ///< C = A*cos[B] + rotate_half(A)*sin[src_c]
  // Fused ops produced by the compiler's fusion pass. Each charges the
  // same vector-latency passes as the unfused sequence (fusion saves
  // instruction issue and intermediate registers, not modelled datapath
  // cycles), so fusion never perturbs cycle-identity pins.
  kBiasGelu = 28,     ///< C = gelu(A + bias[B]) (column broadcast add)
  kBiasSilu = 29,     ///< C = silu(A + bias[B])
  kBiasResidual = 30, ///< C = residual[src_c] + (A + bias[B])
};

/// Highest valid opcode value (decode rejects anything above).
inline constexpr std::uint8_t kMaxOpcode = 30;

/// True for opcodes the host CPU executes (not the PU datapath).
bool is_host_op(Opcode op);

/// Decoded instruction. Tensor operands are register indices into the
/// executor's tensor file; `imm` is a 32-bit float immediate; m/k/n carry
/// shapes (k unused by vector ops; n doubles as the row length for
/// reductions/broadcasts).
///
/// The 128-bit word is fully packed, so two conventions live in `flags`:
///  * three-operand macros (kLayerNormM, kRope, kBiasResidual) carry the
///    third register in the flags high byte — use src_c()/set_src_c();
///  * kBfpMatmul carries a NumericMode annotation in the flags low byte
///    (0 = the system's configured mode; i+1 = numeric_modes()[i]), the
///    per-layer format choice the graph compiler threads through to
///    AcceleratorSystem::gemm.
struct Instruction {
  Opcode op = Opcode::kNop;
  std::uint8_t dst = 0;
  std::uint8_t src_a = 0;
  std::uint8_t src_b = 0;
  float imm = 0.0F;
  std::uint16_t m = 0;
  std::uint16_t k = 0;
  std::uint16_t n = 0;
  std::uint16_t flags = 0;

  std::uint8_t src_c() const {
    return static_cast<std::uint8_t>(flags >> 8);
  }
  void set_src_c(std::uint8_t r) {
    flags = static_cast<std::uint16_t>((flags & 0x00FFU) |
                                       (static_cast<std::uint16_t>(r) << 8));
  }
  /// kBfpMatmul only: numeric-mode annotation (0 = system default).
  std::uint8_t mode_index() const {
    return static_cast<std::uint8_t>(flags & 0x00FFU);
  }

  bool operator==(const Instruction&) const = default;
};

/// Shape of a row-major tensor operand.
struct TensorShape {
  int rows = 0;
  int cols = 0;

  bool operator==(const TensorShape&) const = default;
  std::size_t elements() const {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }
};

/// The registers an instruction reads, in operand order: src_a, src_b,
/// then src_c for the three-operand opcodes. Operand j of the operand
/// contract (check_operands, isa/executor.hpp) is regs[j].
struct Operands {
  std::array<std::uint8_t, 3> regs{};
  int count = 0;
};

/// What `inst` reads (none for control opcodes and invalid opcode values).
Operands operands(const Instruction& inst);

/// 128-bit encoded instruction word.
using InstructionWord = std::array<std::uint8_t, 16>;

/// Encode / decode; decode validates the opcode field.
InstructionWord encode(const Instruction& inst);
Instruction decode(const InstructionWord& word);

/// Mnemonic dump, e.g. "vec.mul r3, r1, r2 [m=8 n=197]".
std::string to_string(const Instruction& inst);
const char* opcode_name(Opcode op);

}  // namespace bfpsim
