#include "isa/instruction.hpp"

#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "numerics/fp32.hpp"

namespace bfpsim {

bool is_host_op(Opcode op) {
  // Exhaustive over Opcode on purpose (no default): adding an opcode must
  // force a decision about which side of the host/device cost split it
  // lands on.
  switch (op) {
    case Opcode::kHostDiv:
    case Opcode::kHostRsqrt:
    case Opcode::kHostRecip:
    case Opcode::kRowMax:  // comparator tree is host-assisted here
      return true;
    case Opcode::kNop:
    case Opcode::kBfpMatmul:
    case Opcode::kVecMul:
    case Opcode::kVecAdd:
    case Opcode::kVecMulScalar:
    case Opcode::kVecAddScalar:
    case Opcode::kVecExp:
    case Opcode::kVecTanh:
    case Opcode::kRowSum:
    case Opcode::kRowSub:
    case Opcode::kRowMulBcast:
    case Opcode::kSync:
    case Opcode::kColAddBcast:
    case Opcode::kColMulBcast:
    case Opcode::kTranspose:
    case Opcode::kSliceCols:
    case Opcode::kConcatCols:
    case Opcode::kHalt:
    case Opcode::kLayerNormM:
    case Opcode::kRmsNormM:
    case Opcode::kSoftmaxM:
    case Opcode::kGeluM:
    case Opcode::kSiluM:
    case Opcode::kRope:
    case Opcode::kBiasGelu:
    case Opcode::kBiasSilu:
    case Opcode::kBiasResidual:
      return false;
  }
  return false;
}

namespace {
void put_u16(InstructionWord& w, int at, std::uint16_t v) {
  w[static_cast<std::size_t>(at)] = static_cast<std::uint8_t>(v & 0xFF);
  w[static_cast<std::size_t>(at + 1)] =
      static_cast<std::uint8_t>((v >> 8) & 0xFF);
}
std::uint16_t get_u16(const InstructionWord& w, int at) {
  return static_cast<std::uint16_t>(
      w[static_cast<std::size_t>(at)] |
      (static_cast<std::uint16_t>(w[static_cast<std::size_t>(at + 1)]) << 8));
}
void put_u32(InstructionWord& w, int at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    w[static_cast<std::size_t>(at + i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  }
}
std::uint32_t get_u32(const InstructionWord& w, int at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(w[static_cast<std::size_t>(at + i)])
         << (8 * i);
  }
  return v;
}
}  // namespace

InstructionWord encode(const Instruction& inst) {
  InstructionWord w{};
  w[0] = static_cast<std::uint8_t>(inst.op);
  w[1] = inst.dst;
  w[2] = inst.src_a;
  w[3] = inst.src_b;
  put_u32(w, 4, float_to_bits(inst.imm));
  put_u16(w, 8, inst.m);
  put_u16(w, 10, inst.k);
  put_u16(w, 12, inst.n);
  put_u16(w, 14, inst.flags);
  return w;
}

Instruction decode(const InstructionWord& word) {
  Instruction inst;
  BFP_REQUIRE(word[0] <= kMaxOpcode, "decode: invalid opcode");
  inst.op = static_cast<Opcode>(word[0]);
  inst.dst = word[1];
  inst.src_a = word[2];
  inst.src_b = word[3];
  inst.imm = bits_to_float(get_u32(word, 4));
  inst.m = get_u16(word, 8);
  inst.k = get_u16(word, 10);
  inst.n = get_u16(word, 12);
  inst.flags = get_u16(word, 14);
  return inst;
}

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kBfpMatmul: return "bfp.matmul";
    case Opcode::kVecMul: return "vec.mul";
    case Opcode::kVecAdd: return "vec.add";
    case Opcode::kVecMulScalar: return "vec.muls";
    case Opcode::kVecAddScalar: return "vec.adds";
    case Opcode::kVecExp: return "vec.exp";
    case Opcode::kVecTanh: return "vec.tanh";
    case Opcode::kRowSum: return "row.sum";
    case Opcode::kRowMax: return "row.max";
    case Opcode::kRowSub: return "row.sub";
    case Opcode::kRowMulBcast: return "row.mulb";
    case Opcode::kHostDiv: return "host.div";
    case Opcode::kHostRsqrt: return "host.rsqrt";
    case Opcode::kHostRecip: return "host.recip";
    case Opcode::kSync: return "sync";
    case Opcode::kColAddBcast: return "col.addb";
    case Opcode::kColMulBcast: return "col.mulb";
    case Opcode::kTranspose: return "transpose";
    case Opcode::kSliceCols: return "slice.cols";
    case Opcode::kConcatCols: return "concat.cols";
    case Opcode::kHalt: return "halt";
    case Opcode::kLayerNormM: return "ln.macro";
    case Opcode::kRmsNormM: return "rmsn.macro";
    case Opcode::kSoftmaxM: return "softmax.macro";
    case Opcode::kGeluM: return "gelu.macro";
    case Opcode::kSiluM: return "silu.macro";
    case Opcode::kRope: return "rope";
    case Opcode::kBiasGelu: return "bias.gelu";
    case Opcode::kBiasSilu: return "bias.silu";
    case Opcode::kBiasResidual: return "bias.residual";
  }
  return "?";
}

Operands operands(const Instruction& inst) {
  // Exhaustive over Opcode (no default): a new opcode must declare what it
  // reads before the executor, verifier or disassembler can handle it.
  int count = 0;
  switch (inst.op) {
    case Opcode::kNop:
    case Opcode::kSync:
    case Opcode::kHalt:
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
    case Opcode::kSliceCols:
    case Opcode::kSoftmaxM:
    case Opcode::kGeluM:
    case Opcode::kSiluM:
      count = 1;
      break;
    case Opcode::kBfpMatmul:
    case Opcode::kVecMul:
    case Opcode::kVecAdd:
    case Opcode::kRowSub:
    case Opcode::kRowMulBcast:
    case Opcode::kHostDiv:
    case Opcode::kColAddBcast:
    case Opcode::kColMulBcast:
    case Opcode::kConcatCols:
    case Opcode::kRmsNormM:
    case Opcode::kBiasGelu:
    case Opcode::kBiasSilu:
      count = 2;
      break;
    case Opcode::kLayerNormM:
    case Opcode::kRope:
    case Opcode::kBiasResidual:
      count = 3;
      break;
  }
  return Operands{{inst.src_a, inst.src_b, inst.src_c()}, count};
}

std::string to_string(const Instruction& inst) {
  std::ostringstream os;
  os << opcode_name(inst.op) << " r" << static_cast<int>(inst.dst) << ", r"
     << static_cast<int>(inst.src_a) << ", r"
     << static_cast<int>(inst.src_b);
  if (operands(inst).count == 3) os << ", r" << static_cast<int>(inst.src_c());
  if (inst.op == Opcode::kBfpMatmul && inst.mode_index() != 0) {
    os << ", mode=" << static_cast<int>(inst.mode_index());
  }
  if (inst.imm != 0.0F) os << ", imm=" << inst.imm;
  os << " [m=" << inst.m << " k=" << inst.k << " n=" << inst.n << "]";
  return os.str();
}

}  // namespace bfpsim
