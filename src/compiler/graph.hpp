// A small tensor-program graph IR — the front half of the "automatic
// compilation framework that provides full stack acceleration of
// Transformer models" the paper's conclusion announces as ongoing work.
//
// A Graph is a DAG of shaped tensor operations built in topological order.
// The compiler (compile.hpp) assigns each node to a hardware mode of the
// multi-mode unit (bfp8 MatMul / fp32 vector program / host op / DMA) and
// emits one executable ISA Program for the whole graph.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "isa/instruction.hpp"

namespace bfpsim {

enum class GraphOp {
  kInput,       ///< external tensor, bound at run time
  kConstant,    ///< weights / parameters captured at build time
  kMatMul,      ///< bfp8 MatMul mode
  kAdd,         ///< elementwise add (fp32 ACC path)
  kMul,         ///< elementwise multiply (fp32 PE path)
  kScale,       ///< multiply by immediate
  kBiasAdd,     ///< per-channel add (column broadcast)
  kTranspose,   ///< DMA layout change
  kSliceCols,   ///< DMA column slice
  kConcatCols,  ///< DMA column concatenation
  kLayerNorm,   ///< vector kernel (needs gamma/beta constant inputs)
  kSoftmax,     ///< vector kernel (row-wise)
  kGelu,        ///< vector kernel
  kSilu,        ///< vector kernel
  kRmsNorm,     ///< vector kernel (Llama-family; gamma constant input)
  kRope,        ///< rotary embedding (cos/sin constant inputs)
  // Fused forms the lowering pass produces (never built directly by the
  // front ends): one node charging exactly what its constituents would.
  kFusedBiasGelu,      ///< bias_add -> gelu
  kFusedBiasSilu,      ///< bias_add -> silu
  kFusedBiasResidual,  ///< bias_add -> residual add
};

const char* graph_op_name(GraphOp op);

using NodeId = int;

struct GraphNode {
  NodeId id = -1;
  GraphOp op = GraphOp::kInput;
  std::vector<NodeId> inputs;
  TensorShape shape;          ///< output shape
  float imm = 0.0F;           ///< kScale factor / LayerNorm eps
  int iarg = 0;               ///< kSliceCols start column
  std::vector<float> value;   ///< kConstant payload
  std::string name;           ///< optional label for reports
  /// kMatMul only: NumericMode registry name for this GEMM ("" = the
  /// system default). Threaded by the compiler into the ISA program's
  /// per-matmul mode annotation (Instruction flags low byte).
  std::string mode;
};

/// Builder-style DAG. All shape checking happens at graph-construction
/// time so the compiler can assume a valid program.
class Graph {
 public:
  NodeId input(TensorShape shape, std::string name = "input");
  NodeId constant(std::vector<float> value, TensorShape shape,
                  std::string name = "const");
  NodeId matmul(NodeId a, NodeId b, std::string name = "matmul");
  NodeId add(NodeId a, NodeId b, std::string name = "add");
  NodeId mul(NodeId a, NodeId b, std::string name = "mul");
  NodeId scale(NodeId a, float s, std::string name = "scale");
  NodeId bias_add(NodeId a, NodeId bias, std::string name = "bias");
  NodeId transpose(NodeId a, std::string name = "transpose");
  NodeId slice_cols(NodeId a, int start, int width,
                    std::string name = "slice");
  NodeId concat_cols(NodeId a, NodeId b, std::string name = "concat");
  NodeId layernorm(NodeId a, NodeId gamma, NodeId beta, float eps = 1e-5F,
                   std::string name = "layernorm");
  NodeId softmax(NodeId a, std::string name = "softmax");
  NodeId gelu(NodeId a, std::string name = "gelu");
  NodeId silu(NodeId a, std::string name = "silu");
  NodeId rmsnorm(NodeId a, NodeId gamma, float eps = 1e-5F,
                 std::string name = "rmsnorm");
  /// Rotary position embedding: cos/sin tables shaped like `a`.
  NodeId rope(NodeId a, NodeId cos_tab, NodeId sin_tab,
              std::string name = "rope");
  /// Fused forms (emitted by the fusion pass; see fuse.hpp).
  NodeId fused_bias_gelu(NodeId a, NodeId bias,
                         std::string name = "bias+gelu");
  NodeId fused_bias_silu(NodeId a, NodeId bias,
                         std::string name = "bias+silu");
  NodeId fused_bias_residual(NodeId a, NodeId bias, NodeId residual,
                             std::string name = "bias+res");

  /// Annotate a kMatMul node with a NumericMode registry name. The
  /// compiler validates the name and encodes it into the instruction.
  void annotate_matmul_mode(NodeId id, std::string mode);

  /// Mark the graph output (exactly one; called last).
  void set_output(NodeId id);

  const std::vector<GraphNode>& nodes() const { return nodes_; }
  const GraphNode& node(NodeId id) const;
  NodeId output() const;
  std::size_t size() const { return nodes_.size(); }

 private:
  NodeId push(GraphNode n);
  const TensorShape& shape_of(NodeId id) const;

  std::vector<GraphNode> nodes_;
  NodeId output_ = -1;
};

}  // namespace bfpsim
