// Declarative transformer model specs — the graph compiler's front end.
//
// A ModelSpec is a small JSON document describing either an encoder
// (ViT/BERT-style: bidirectional attention + GELU MLP + LayerNorm) or a
// decoder (GPT/Llama-style: causal attention with optional GQA and RoPE,
// GELU or SwiGLU MLP, LayerNorm or RMSNorm, tied or untied embeddings).
// The parser tracks line/column for every value so a misauthored spec
// fails with a pointed diagnostic instead of a stack trace; the CLI maps
// SpecError to exit code 3.
//
// Specs deliberately describe *architecture*, not weights: parameters are
// materialized from the spec's seed through the same seeded initializer
// the legacy C++ model classes use, which is what lets a degenerate spec
// (e.g. specs/deit-small.json) compile to bit-identical results against
// VitModel::forward_mixed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace bfpsim {

/// Parse/validation failure with a source position. `what()` carries the
/// full "line L, col C: message" diagnostic.
class SpecError : public Error {
 public:
  SpecError(const std::string& message, int line, int col)
      : Error("spec error at line " + std::to_string(line) + ", col " +
              std::to_string(col) + ": " + message),
        line_(line),
        col_(col) {}

  int line() const { return line_; }
  int col() const { return col_; }

 private:
  int line_;
  int col_;
};

enum class SpecFamily { kEncoder, kDecoder };
enum class SpecNorm { kLayerNorm, kRmsNorm };
enum class SpecActivation { kGelu, kSwiGlu };

const char* to_string(SpecFamily f);
const char* to_string(SpecNorm n);
const char* to_string(SpecActivation a);

/// One entry of an explicit "layers" list (optional — when absent the
/// layer stack defaults to depth x [attention, mlp]). Layers form a DAG
/// over the residual stream: each consumes the named producer's output.
struct SpecLayer {
  std::string name;
  std::string op;      ///< "attention" | "mlp"
  std::string input;   ///< producer layer name, or "embed" for the input
  int line = 0;        ///< source position (diagnostics)
  int col = 0;
};

/// A declarative transformer description.
struct ModelSpec {
  std::string name;
  SpecFamily family = SpecFamily::kEncoder;

  int d_model = 0;
  int depth = 0;
  int heads = 0;
  int kv_heads = 0;    ///< == heads unless GQA (decoder only)
  int mlp_hidden = 0;

  SpecNorm norm = SpecNorm::kLayerNorm;
  SpecActivation activation = SpecActivation::kGelu;
  bool rope = false;
  bool tied_embeddings = true;

  // Encoder geometry (tokens derives like VitConfig: patches + [CLS]).
  int image_size = 0;
  int patch_size = 0;
  int num_classes = 0;

  // Decoder geometry.
  int vocab = 0;
  int context = 0;

  std::uint64_t seed = 42;

  /// Per-layer-kind NumericMode annotations ("qkv" / "attention" /
  /// "proj" / "mlp" -> a registered numeric-mode name). Absent kinds run
  /// the system default (bfp8).
  std::map<std::string, std::string> modes{};

  /// Explicit layer stack in topological order (resolved by the parser;
  /// empty means the default depth x [attention, mlp] stack).
  std::vector<SpecLayer> layers{};

  int tokens() const {
    const int p = image_size / patch_size;
    return p * p + 1;
  }
  int head_dim() const { return d_model / heads; }
  int kv_dim() const { return kv_heads * head_dim(); }

  /// Numeric-mode name for a layer kind ("" = system default).
  std::string mode_for(const std::string& kind) const;
};

/// Parse and validate a spec document. Throws SpecError (with line/col)
/// on malformed JSON, missing/ill-typed fields, unknown ops, indivisible
/// GQA head groups, cyclic layer graphs, and unregistered numeric modes.
ModelSpec parse_model_spec(const std::string& text);

/// Read a spec file from disk and parse it. Throws Error when the file
/// cannot be read, SpecError on parse/validation failure.
ModelSpec load_model_spec_file(const std::string& path);

}  // namespace bfpsim
