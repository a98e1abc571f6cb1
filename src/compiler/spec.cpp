#include "compiler/spec.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "numerics/format/registry.hpp"

namespace bfpsim {

const char* to_string(SpecFamily f) {
  return f == SpecFamily::kEncoder ? "encoder" : "decoder";
}
const char* to_string(SpecNorm n) {
  return n == SpecNorm::kLayerNorm ? "layernorm" : "rmsnorm";
}
const char* to_string(SpecActivation a) {
  return a == SpecActivation::kGelu ? "gelu" : "swiglu";
}

std::string ModelSpec::mode_for(const std::string& kind) const {
  const auto it = modes.find(kind);
  return it == modes.end() ? std::string() : it->second;
}

namespace {

// ---------------------------------------------------------------------
// Minimal JSON (objects, arrays, strings, numbers, booleans, null) with a
// source position on every value. Insertion order of object members is
// preserved so diagnostics and determinism never depend on hashing.
// ---------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> members;  ///< object
  std::vector<JsonValue> items;                            ///< array
  int line = 1;
  int col = 1;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ < text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw SpecError(msg, line_, col_);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        // Allow // comments: specs are hand-authored configuration.
        while (pos_ < text_.size() && text_[pos_] != '\n') advance();
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    advance();
  }

  JsonValue parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    JsonValue v;
    v.line = line_;
    v.col = col_;
    const char c = peek();
    if (c == '{') {
      v.kind = JsonValue::Kind::kObject;
      advance();
      skip_ws();
      if (peek() == '}') {
        advance();
        return v;
      }
      while (true) {
        skip_ws();
        if (peek() != '"') fail("expected string key");
        const std::string key = parse_string_body();
        for (const auto& [k, ignored] : v.members) {
          (void)ignored;
          if (k == key) fail("duplicate key '" + key + "'");
        }
        skip_ws();
        expect(':');
        v.members.emplace_back(key, parse_value());
        skip_ws();
        if (peek() == ',') {
          advance();
          continue;
        }
        expect('}');
        break;
      }
      return v;
    }
    if (c == '[') {
      v.kind = JsonValue::Kind::kArray;
      advance();
      skip_ws();
      if (peek() == ']') {
        advance();
        return v;
      }
      while (true) {
        v.items.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          advance();
          continue;
        }
        expect(']');
        break;
      }
      return v;
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string_body();
      return v;
    }
    if (c == 't' || c == 'f') {
      v.kind = JsonValue::Kind::kBool;
      const char* word = c == 't' ? "true" : "false";
      for (const char* p = word; *p != '\0'; ++p) {
        if (peek() != *p) fail("invalid literal");
        advance();
      }
      v.boolean = c == 't';
      return v;
    }
    if (c == 'n') {
      for (const char* p = "null"; *p != '\0'; ++p) {
        if (peek() != *p) fail("invalid literal");
        advance();
      }
      return v;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      v.kind = JsonValue::Kind::kNumber;
      std::string num;
      while (pos_ < text_.size()) {
        const char d = peek();
        if (d == '-' || d == '+' || d == '.' || d == 'e' || d == 'E' ||
            (d >= '0' && d <= '9')) {
          num.push_back(advance());
        } else {
          break;
        }
      }
      std::size_t used = 0;
      try {
        v.number = std::stod(num, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != num.size()) fail("malformed number '" + num + "'");
      return v;
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  /// Parse a quoted string (cursor on the opening quote).
  std::string parse_string_body() {
    expect('"');
    std::string s;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = advance();
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = advance();
        switch (e) {
          case '"': s.push_back('"'); break;
          case '\\': s.push_back('\\'); break;
          case '/': s.push_back('/'); break;
          case 'n': s.push_back('\n'); break;
          case 't': s.push_back('\t'); break;
          default: fail("unsupported escape");
        }
      } else {
        s.push_back(c);
      }
    }
    return s;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

// ---------------------------------------------------------------------
// Spec extraction: typed field access with positioned diagnostics.
// ---------------------------------------------------------------------

[[noreturn]] void fail_at(const JsonValue& v, const std::string& msg) {
  throw SpecError(msg, v.line, v.col);
}

const JsonValue& require(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail_at(obj, "missing field '" + key + "'");
  return *v;
}

int get_int(const JsonValue& v, const std::string& key, int lo, int hi) {
  if (v.kind != JsonValue::Kind::kNumber ||
      v.number != std::floor(v.number)) {
    fail_at(v, "field '" + key + "' must be an integer");
  }
  const double n = v.number;
  if (n < static_cast<double>(lo) || n > static_cast<double>(hi)) {
    fail_at(v, "field '" + key + "' out of range [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "]");
  }
  return static_cast<int>(n);
}

int require_int(const JsonValue& obj, const std::string& key, int lo,
                int hi) {
  return get_int(require(obj, key), key, lo, hi);
}

std::string require_string(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = require(obj, key);
  if (v.kind != JsonValue::Kind::kString) {
    fail_at(v, "field '" + key + "' must be a string");
  }
  return v.str;
}

bool get_bool(const JsonValue& obj, const std::string& key, bool dflt) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return dflt;
  if (v->kind != JsonValue::Kind::kBool) {
    fail_at(*v, "field '" + key + "' must be true or false");
  }
  return v->boolean;
}

/// The layer kinds the `modes` map may annotate — the same four linear
/// groups PrecisionPolicy toggles.
bool known_mode_kind(const std::string& kind) {
  return kind == "qkv" || kind == "attention" || kind == "proj" ||
         kind == "mlp";
}

bool known_numeric_mode(const std::string& name) {
  for (const NumericMode& m : numeric_modes()) {
    if (m.name == name) return true;
  }
  return false;
}

void parse_modes(const JsonValue& v, ModelSpec& spec) {
  if (v.kind != JsonValue::Kind::kObject) {
    fail_at(v, "field 'modes' must be an object");
  }
  for (const auto& [kind, mv] : v.members) {
    if (!known_mode_kind(kind)) {
      fail_at(mv, "unknown layer kind '" + kind +
                      "' in modes (qkv|attention|proj|mlp)");
    }
    if (mv.kind != JsonValue::Kind::kString) {
      fail_at(mv, "mode for '" + kind + "' must be a string");
    }
    if (!known_numeric_mode(mv.str)) {
      fail_at(mv, "unknown numeric mode '" + mv.str +
                      "' (see `bfpsim info` for the registry)");
    }
    spec.modes[kind] = mv.str;
  }
}

void parse_layers(const JsonValue& v, ModelSpec& spec) {
  if (v.kind != JsonValue::Kind::kArray) {
    fail_at(v, "field 'layers' must be an array");
  }
  std::vector<SpecLayer> layers;
  for (std::size_t i = 0; i < v.items.size(); ++i) {
    const JsonValue& lv = v.items[i];
    if (lv.kind != JsonValue::Kind::kObject) {
      fail_at(lv, "layers[" + std::to_string(i) + "] must be an object");
    }
    SpecLayer layer;
    layer.line = lv.line;
    layer.col = lv.col;
    layer.name = require_string(lv, "name");
    layer.op = require_string(lv, "op");
    const JsonValue& opv = require(lv, "op");
    if (layer.op != "attention" && layer.op != "mlp") {
      fail_at(opv, "unknown op '" + layer.op + "' (attention|mlp)");
    }
    const JsonValue* in = lv.find("input");
    if (in != nullptr) {
      if (in->kind != JsonValue::Kind::kString) {
        fail_at(*in, "field 'input' must be a string");
      }
      layer.input = in->str;
    } else {
      layer.input = i == 0 ? std::string("embed") : layers.back().name;
    }
    for (const SpecLayer& prev : layers) {
      if (prev.name == layer.name) {
        fail_at(lv, "duplicate layer name '" + layer.name + "'");
      }
    }
    layers.push_back(std::move(layer));
  }

  // Resolve references and topologically order the DAG. "embed" is the
  // implicit source; a back-edge (cycle) is a spec error.
  for (const SpecLayer& layer : layers) {
    if (layer.input == "embed") continue;
    bool found = false;
    for (const SpecLayer& other : layers) {
      if (other.name == layer.input) {
        found = true;
        break;
      }
    }
    if (!found) {
      throw SpecError("unknown input layer '" + layer.input + "'",
                      layer.line, layer.col);
    }
  }
  std::vector<SpecLayer> ordered;
  std::vector<bool> placed(layers.size(), false);
  bool progress = true;
  while (ordered.size() < layers.size() && progress) {
    progress = false;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (placed[i]) continue;
      const std::string& in = layers[i].input;
      bool ready = in == "embed";
      for (std::size_t j = 0; j < layers.size() && !ready; ++j) {
        if (placed[j] && layers[j].name == in) ready = true;
      }
      if (ready) {
        ordered.push_back(layers[i]);
        placed[i] = true;
        progress = true;
      }
    }
  }
  if (ordered.size() < layers.size()) {
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (!placed[i]) {
        throw SpecError(
            "cyclic layer graph involving '" + layers[i].name + "'",
            layers[i].line, layers[i].col);
      }
    }
  }
  spec.layers = std::move(ordered);
}

}  // namespace

ModelSpec parse_model_spec(const std::string& text) {
  JsonParser parser(text);
  const JsonValue root = parser.parse();
  if (root.kind != JsonValue::Kind::kObject) {
    fail_at(root, "spec must be a JSON object");
  }

  ModelSpec spec;
  spec.name = require_string(root, "name");

  const JsonValue& famv = require(root, "family");
  const std::string family = require_string(root, "family");
  if (family == "encoder") {
    spec.family = SpecFamily::kEncoder;
  } else if (family == "decoder") {
    spec.family = SpecFamily::kDecoder;
  } else {
    fail_at(famv, "family must be 'encoder' or 'decoder'");
  }

  spec.d_model = require_int(root, "d_model", 1, 1 << 20);
  spec.depth = require_int(root, "depth", 1, 4096);
  spec.heads = require_int(root, "heads", 1, 4096);
  spec.mlp_hidden = require_int(root, "mlp_hidden", 1, 1 << 24);

  const JsonValue* kv = root.find("kv_heads");
  spec.kv_heads = kv != nullptr ? get_int(*kv, "kv_heads", 1, 4096)
                                : spec.heads;

  if (const JsonValue* v = root.find("norm"); v != nullptr) {
    const std::string n = require_string(root, "norm");
    if (n == "layernorm") {
      spec.norm = SpecNorm::kLayerNorm;
    } else if (n == "rmsnorm") {
      spec.norm = SpecNorm::kRmsNorm;
    } else {
      fail_at(*v, "norm must be 'layernorm' or 'rmsnorm'");
    }
  }
  if (const JsonValue* v = root.find("activation"); v != nullptr) {
    const std::string a = require_string(root, "activation");
    if (a == "gelu") {
      spec.activation = SpecActivation::kGelu;
    } else if (a == "swiglu") {
      spec.activation = SpecActivation::kSwiGlu;
    } else {
      fail_at(*v, "activation must be 'gelu' or 'swiglu'");
    }
  }
  spec.rope = get_bool(root, "rope", false);
  spec.tied_embeddings = get_bool(root, "tied_embeddings", true);

  if (const JsonValue* v = root.find("seed"); v != nullptr) {
    spec.seed = static_cast<std::uint64_t>(
        get_int(*v, "seed", 0, 1 << 30));
  }

  if (spec.family == SpecFamily::kEncoder) {
    spec.image_size = require_int(root, "image_size", 1, 1 << 16);
    spec.patch_size = require_int(root, "patch_size", 1, 1 << 16);
    spec.num_classes = require_int(root, "num_classes", 1, 1 << 24);
    if (spec.image_size % spec.patch_size != 0) {
      fail_at(require(root, "image_size"),
              "image_size must be a multiple of patch_size");
    }
    if (spec.kv_heads != spec.heads) {
      fail_at(*kv, "GQA (kv_heads < heads) is decoder-only");
    }
    if (spec.rope) {
      fail_at(*root.find("rope"), "rope is decoder-only");
    }
  } else {
    spec.vocab = require_int(root, "vocab", 1, 1 << 24);
    spec.context = require_int(root, "context", 1, 1 << 24);
  }

  // Structural divisibility: head geometry and GQA grouping.
  if (spec.d_model % spec.heads != 0) {
    fail_at(require(root, "d_model"),
            "d_model must be divisible by heads");
  }
  if (spec.heads % spec.kv_heads != 0) {
    fail_at(kv != nullptr ? *kv : require(root, "heads"),
            "indivisible GQA head groups: heads=" +
                std::to_string(spec.heads) +
                " is not a multiple of kv_heads=" +
                std::to_string(spec.kv_heads));
  }
  if (spec.activation == SpecActivation::kSwiGlu &&
      spec.family == SpecFamily::kEncoder) {
    fail_at(require(root, "activation"),
            "swiglu is decoder-only in this corpus");
  }

  if (const JsonValue* v = root.find("modes"); v != nullptr) {
    parse_modes(*v, spec);
  }
  if (const JsonValue* v = root.find("layers"); v != nullptr) {
    parse_layers(*v, spec);
    if (spec.layers.size() !=
        static_cast<std::size_t>(2 * spec.depth)) {
      fail_at(*v, "layers list must carry depth x [attention, mlp] = " +
                      std::to_string(2 * spec.depth) + " entries");
    }
  }

  // Reject unknown top-level fields: a typo'd knob silently ignored is
  // worse than a hard error.
  for (const auto& [key, value] : root.members) {
    static const char* kKnown[] = {
        "name",       "family",      "d_model",    "depth",
        "heads",      "kv_heads",    "mlp_hidden", "norm",
        "activation", "rope",        "tied_embeddings",
        "image_size", "patch_size",  "num_classes",
        "vocab",      "context",     "seed",       "modes",
        "layers",
    };
    bool known = false;
    for (const char* k : kKnown) {
      if (key == k) {
        known = true;
        break;
      }
    }
    if (!known) fail_at(value, "unknown field '" + key + "'");
  }
  return spec;
}

ModelSpec load_model_spec_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read spec file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_model_spec(ss.str());
}

}  // namespace bfpsim
