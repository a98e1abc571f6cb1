// bfpsim-lint: the project's determinism & bit-exactness checker.
//
// Precision-mode hardware flows get their invariants enforced by RTL lint
// and equivalence checking; this simulator's equivalents — bit-identical
// results for any ThreadPool size, replayable fault injection, integer-exact
// bfp arithmetic — live in C++ and can silently rot. bfpsim-lint encodes the
// project-specific rules that keep them honest as a token/regex pass plus a
// lightweight include-graph analysis over src/, bench/ and tools/.
//
// Rules (see ARCHITECTURE.md §12 for the full table):
//
//   unordered-container  std::unordered_map/set in timing-tagged code
//                        (sim/, serving/, cluster/, fabric/): iteration
//                        order is implementation-defined, so any walk over
//                        one can leak host entropy into cycle accounting.
//   nondet-rng           std::rand/srand/random_device/mt19937/
//                        default_random_engine anywhere outside common/rng,
//                        and chrono-derived RNG seeds anywhere: all
//                        randomness must flow through the seeded splitmix64
//                        Rng so every run is replayable.
//   float-accum          compound accumulation (+=, -=) into a float/double
//                        lvalue in bit-exact-tagged code (numerics/, pu/,
//                        reliability/abft): the exact-integer datapath must
//                        not grow a rounding-order dependence.
//   raw-alloc            raw `new` / malloc / calloc / realloc / free:
//                        ownership goes through containers or smart
//                        pointers. The sanctioned allocator implementation
//                        (src/common/arena*, tagged alloc-impl) is exempt:
//                        it IS the structured owner everything else uses.
//   counters-mutation    Counters mutation (.add/.merge/.reset on a
//                        counters object) in serving/cluster files other
//                        than the serial event-phase owners: merge order in
//                        the parallel phase is completion-order, i.e.
//                        nondeterministic.
//   nodiscard-status     status-returning APIs (bool push/try_*/fits_* in
//                        a header) must be [[nodiscard]]: a dropped
//                        admission or range check is exactly how a
//                        bit-exactness bug hides.
//   exhaustive-switch    `default:` arms in switches over the ISA Opcode /
//                        NumericMode discriminators in bit-exact code: a
//                        silently-absorbed new enum member is a
//                        bit-exactness hazard. Enumerate every member so
//                        adding one is a -Wswitch compile error, not a
//                        runtime fallthrough.
//   layering             #include edges must point down the module ladder
//                        (common < numerics < numerics.format < ... < runtime),
//                        mirroring src/CMakeLists.txt link order. The
//                        format layer (src/numerics/format/) ranks above
//                        the golden numerics it wraps.
//   test-only-header     a src/ header whose only includers are its own
//                        .cpp (and tests/, which is not counted): code
//                        that nothing but its tests reaches. Includers
//                        count from src/, bench/, tools/, examples/ and
//                        perfbench/ (the last two are read, not linted).
//
// Directives (in comments, anywhere on a line):
//   // bfpsim-lint: allow(<rule>)        suppress findings on this line
//   // bfpsim-lint: file-allow(<rule>)   suppress <rule> for the whole file
//   // bfpsim-lint: tag(<tag>)           add a scope tag (timing, bit-exact,
//                                        parallel-phase, serial-phase,
//                                        rng-impl, alloc-impl)
//   // bfpsim-lint: untag(<tag>)         remove a path-derived scope tag
//   // bfpsim-lint: module(<name>)       override the layering module
//
// Output: one human-readable line per finding, an optional machine-readable
// JSON report (--json <path>), exit 1 when findings remain, 0 when clean,
// 2 on usage/IO errors.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

struct Finding {
  std::string rule;
  std::string file;   // path relative to the scan root where possible
  int line = 0;
  std::string message;
  std::string snippet;
};

struct FileReport {
  std::string path;          // as scanned (absolute or as given)
  std::string rel;           // path used for tagging / reporting
  std::vector<std::string> lines;      // raw source lines
  std::vector<std::string> scrubbed;   // comments & string literals blanked
  std::set<std::string> tags;
  std::set<std::string> file_allows;
  // line number -> set of allowed rules on that line
  std::map<int, std::set<std::string>> line_allows;
  std::optional<std::string> module_override;
};

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `hay` contains `needle` bounded by non-identifier characters.
bool contains_word(std::string_view hay, std::string_view needle) {
  std::size_t pos = 0;
  while ((pos = hay.find(needle, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(hay[pos - 1]);
    const std::size_t end = pos + needle.size();
    const bool right_ok = end >= hay.size() || !is_ident_char(hay[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

// ---------------------------------------------------------------------------
// Source scrubbing: blank comments and string/char literals while keeping
// line structure, so rules never fire on prose or on the lint tool's own
// pattern tables. Comment *text* is still scanned separately for directives.
// ---------------------------------------------------------------------------

struct ScrubResult {
  std::vector<std::string> code;      // literals/comments replaced by spaces
  std::vector<std::string> comments;  // comment text per line (for directives)
};

ScrubResult scrub(const std::vector<std::string>& lines) {
  ScrubResult out;
  out.code.reserve(lines.size());
  out.comments.resize(lines.size());
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  St st = St::kCode;
  std::string raw_delim;  // for raw string literals: )delim"
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& in = lines[li];
    std::string code(in.size(), ' ');
    std::string& comment = out.comments[li];
    if (st == St::kLineComment) st = St::kCode;  // line comments end at EOL
    for (std::size_t i = 0; i < in.size(); ++i) {
      const char c = in[i];
      const char next = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (st) {
        case St::kCode:
          if (c == '/' && next == '/') {
            st = St::kLineComment;
            ++i;
          } else if (c == '/' && next == '*') {
            st = St::kBlockComment;
            ++i;
          } else if (c == 'R' && next == '"' &&
                     (i == 0 || !is_ident_char(in[i - 1]))) {
            // Raw string literal: R"delim( ... )delim"
            std::size_t paren = in.find('(', i + 2);
            if (paren != std::string::npos) {
              raw_delim = ")" + in.substr(i + 2, paren - (i + 2)) + "\"";
              st = St::kRawString;
              i = paren;
            }
          } else if (c == '"') {
            st = St::kString;
          } else if (c == '\'') {
            st = St::kChar;
          } else {
            code[i] = c;
          }
          break;
        case St::kLineComment:
          comment += c;
          break;
        case St::kBlockComment:
          if (c == '*' && next == '/') {
            st = St::kCode;
            ++i;
          } else {
            comment += c;
          }
          break;
        case St::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            st = St::kCode;
          }
          break;
        case St::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            st = St::kCode;
          }
          break;
        case St::kRawString: {
          const std::size_t end = in.find(raw_delim, i);
          if (end != std::string::npos) {
            i = end + raw_delim.size() - 1;
            st = St::kCode;
          } else {
            i = in.size();
          }
          break;
        }
      }
    }
    out.code.push_back(std::move(code));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------------

/// Extract every `name(arg)` occurrence after a `bfpsim-lint:` marker.
void parse_directives(FileReport& fr, const std::vector<std::string>& comments) {
  for (std::size_t li = 0; li < comments.size(); ++li) {
    const std::string& c = comments[li];
    std::size_t pos = c.find("bfpsim-lint:");
    if (pos == std::string::npos) continue;
    std::string_view rest = std::string_view(c).substr(pos + 12);
    // Parse a comma/space separated list of name(arg) items.
    std::size_t i = 0;
    while (i < rest.size()) {
      while (i < rest.size() && !std::isalpha(static_cast<unsigned char>(rest[i]))) ++i;
      std::size_t start = i;
      while (i < rest.size() && (is_ident_char(rest[i]) || rest[i] == '-')) ++i;
      std::string name(rest.substr(start, i - start));
      if (name.empty()) break;
      if (i >= rest.size() || rest[i] != '(') continue;
      const std::size_t close = rest.find(')', i);
      if (close == std::string_view::npos) break;
      const std::string arg = trim(rest.substr(i + 1, close - i - 1));
      i = close + 1;
      const int line_no = static_cast<int>(li) + 1;
      if (name == "allow") {
        fr.line_allows[line_no].insert(arg);
      } else if (name == "file-allow") {
        fr.file_allows.insert(arg);
      } else if (name == "tag") {
        fr.tags.insert(arg);
      } else if (name == "untag") {
        fr.tags.erase(arg);
      } else if (name == "module") {
        fr.module_override = arg;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

/// Module ladder, mirroring the link-dependency order of src/CMakeLists.txt
/// (each module may depend only on modules listed before it). An include
/// edge must never point from a lower rank to a higher one.
const std::vector<std::string>& module_ladder() {
  static const std::vector<std::string> kLadder = {
      "common",  "numerics", "numerics.format", "sim", "reliability",
      "dsp",     "bram",
      "pu",      "fabric",   "isa", "resource",
      "transformer", "serving", "cluster", "fleet", "compiler", "runtime",
  };
  return kLadder;
}

int module_rank(const std::string& m) {
  const auto& ladder = module_ladder();
  const auto it = std::find(ladder.begin(), ladder.end(), m);
  return it == ladder.end() ? -1 : static_cast<int>(it - ladder.begin());
}

/// The module a src/ file belongs to ("" when not under src/). The format
/// layer is a sub-module of numerics with its own (higher) ladder rank: it
/// may include the golden numerics it wraps, but never the reverse.
std::string module_of(const std::string& rel) {
  if (rel.rfind("src/numerics/format/", 0) == 0) return "numerics.format";
  if (rel.rfind("src/", 0) != 0) return "";
  const std::size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel.substr(4, slash - 4);
}

/// The module an include target ("numerics/format/registry.hpp") lives in.
std::string module_of_include(const std::string& target) {
  if (target.rfind("numerics/format/", 0) == 0) return "numerics.format";
  const std::size_t slash = target.find('/');
  if (slash == std::string::npos) return "";
  return target.substr(0, slash);
}

/// The quoted #include targets of `lines`, one per include line.
std::vector<std::string> quoted_includes(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const std::string& raw : lines) {
    const std::size_t inc = raw.find("#include \"");
    if (inc == std::string::npos) continue;
    const std::size_t b = inc + 10;
    const std::size_t e = raw.find('"', b);
    if (e != std::string::npos) out.push_back(raw.substr(b, e - b));
  }
  return out;
}

void apply_path_tags(FileReport& fr) {
  const std::string& rel = fr.rel;
  auto under = [&](const char* prefix) { return rel.rfind(prefix, 0) == 0; };
  // Timing-critical: anything whose iteration order or host behaviour can
  // leak into cycle accounting or the serving/cluster event loops.
  if (under("src/sim/") || under("src/serving/") || under("src/cluster/") ||
      under("src/fleet/") || under("src/fabric/")) {
    fr.tags.insert("timing");
  }
  // Bit-exact integer datapath: the golden numerics, the cycle-accurate PU,
  // the ISA interpreter that routes tensors through them, and the ABFT
  // checksums that must reproduce them bit for bit.
  if (under("src/numerics/") || under("src/pu/") || under("src/isa/") ||
      rel.rfind("src/reliability/abft", 0) == 0) {
    fr.tags.insert("bit-exact");
  }
  // Serving/cluster/fleet files are parallel-phase by default; only the
  // serial event-loop owners may mutate report counters.
  if (under("src/serving/") || under("src/cluster/") ||
      under("src/fleet/")) {
    const bool serial_owner = rel == "src/serving/event_loop.cpp" ||
                              rel == "src/cluster/cluster_serving.cpp" ||
                              rel == "src/fleet/fleet_loop.cpp";
    fr.tags.insert(serial_owner ? "serial-phase" : "parallel-phase");
  }
  // The one sanctioned RNG implementation.
  if (rel.rfind("src/common/rng", 0) == 0) fr.tags.insert("rng-impl");
  // The one sanctioned low-level allocator (the Arena): every other file
  // must go through it (or containers/smart pointers), so the raw-alloc
  // rule exempts only this implementation.
  if (rel.rfind("src/common/arena", 0) == 0) fr.tags.insert("alloc-impl");
}

// ---------------------------------------------------------------------------
// Rule engine
// ---------------------------------------------------------------------------

class Linter {
 public:
  void check(FileReport& fr) {
    check_unordered(fr);
    check_rng(fr);
    check_float_accum(fr);
    check_raw_alloc(fr);
    check_counters(fr);
    check_nodiscard(fr);
    check_exhaustive_switch(fr);
    check_layering(fr);
  }

  /// test-only-header, once the whole include graph is known: `includers`
  /// holds the files that include this src/ header.
  void check_test_only(FileReport& fr,
                       const std::set<std::string>& includers) {
    const std::string own_cpp =
        fr.rel.substr(0, fr.rel.rfind('.')) + ".cpp";
    for (const std::string& by : includers) {
      if (by != own_cpp && by != fr.rel) return;
    }
    report(fr, "test-only-header", 1,
           "no includer outside its own .cpp and tests/: wire `" +
               fr.rel.substr(4) + "` into the program or delete it");
  }

  const std::vector<Finding>& findings() const { return findings_; }
  std::uint64_t suppressed() const { return suppressed_; }

 private:
  void report(FileReport& fr, const std::string& rule, int line,
              std::string message) {
    if (fr.file_allows.count(rule) != 0) {
      ++suppressed_;
      return;
    }
    const auto it = fr.line_allows.find(line);
    if (it != fr.line_allows.end() && it->second.count(rule) != 0) {
      ++suppressed_;
      return;
    }
    Finding f;
    f.rule = rule;
    f.file = fr.rel;
    f.line = line;
    f.message = std::move(message);
    if (line >= 1 && line <= static_cast<int>(fr.lines.size())) {
      f.snippet = trim(fr.lines[static_cast<std::size_t>(line - 1)]);
    }
    findings_.push_back(std::move(f));
  }

  void check_unordered(FileReport& fr) {
    if (fr.tags.count("timing") == 0) return;
    for (std::size_t i = 0; i < fr.scrubbed.size(); ++i) {
      const std::string& s = fr.scrubbed[i];
      if (s.find("unordered_map") != std::string::npos ||
          s.find("unordered_set") != std::string::npos) {
        report(fr, "unordered-container", static_cast<int>(i) + 1,
               "unordered container in timing-tagged code: iteration order "
               "is implementation-defined and can leak into cycle "
               "accounting; use std::map / sorted vector / dense-id vector");
      }
    }
  }

  void check_rng(FileReport& fr) {
    if (fr.tags.count("rng-impl") != 0) return;
    static const char* kQualified[] = {
        "std::rand",    "std::random_device",        "std::mt19937",
        "std::minstd_rand", "std::default_random_engine",
    };
    for (std::size_t i = 0; i < fr.scrubbed.size(); ++i) {
      const std::string& s = fr.scrubbed[i];
      const char* which = nullptr;
      for (const char* b : kQualified) {
        if (s.find(b) != std::string::npos) {
          which = b;
          break;
        }
      }
      if (which == nullptr && contains_word(s, "srand")) which = "srand";
      if (which != nullptr) {
        report(fr, "nondet-rng", static_cast<int>(i) + 1,
               std::string("non-deterministic RNG primitive `") + which +
                   "`: all randomness must flow through the seeded "
                   "common/rng splitmix64 Rng");
      }
      // chrono-derived seeds: wall-clock entropy reaching an Rng.
      if (s.find("chrono") != std::string::npos &&
          (contains_word(s, "seed") || s.find("Rng(") != std::string::npos ||
           s.find("Rng{") != std::string::npos)) {
        report(fr, "nondet-rng", static_cast<int>(i) + 1,
               "chrono-derived RNG seed: wall-clock entropy makes runs "
               "unreplayable; seeds must be explicit constants or config");
      }
    }
  }

  void check_float_accum(FileReport& fr) {
    if (fr.tags.count("bit-exact") == 0) return;
    // Pass 1: collect identifiers declared as float/double in this file.
    std::set<std::string> fp_vars;
    for (const std::string& s : fr.scrubbed) {
      std::size_t pos = 0;
      while (pos < s.size()) {
        std::size_t f = s.find("float", pos);
        std::size_t d = s.find("double", pos);
        std::size_t hit = std::min(f, d);
        if (hit == std::string::npos) break;
        const std::size_t kw_len = (hit == f && f < d) ? 5 : 6;
        pos = hit + kw_len;
        // Word boundaries around the keyword.
        if ((hit > 0 && is_ident_char(s[hit - 1])) ||
            (hit + kw_len < s.size() && is_ident_char(s[hit + kw_len]))) {
          continue;
        }
        // Skip over whitespace/&/* to the declared name.
        std::size_t j = hit + kw_len;
        while (j < s.size() &&
               (std::isspace(static_cast<unsigned char>(s[j])) != 0)) {
          ++j;
        }
        std::size_t name_b = j;
        while (j < s.size() && is_ident_char(s[j])) ++j;
        if (j == name_b) continue;
        // A declaration, not a cast/return type: followed by '=', ';' or
        // '{' (brace-init). `float foo(` is a function/ctor — skip.
        std::size_t k = j;
        while (k < s.size() &&
               std::isspace(static_cast<unsigned char>(s[k])) != 0) {
          ++k;
        }
        if (k < s.size() && (s[k] == '=' || s[k] == ';' || s[k] == '{')) {
          fp_vars.insert(s.substr(name_b, j - name_b));
        }
      }
    }
    if (fp_vars.empty()) return;
    // Pass 2: flag compound accumulation into those identifiers.
    for (std::size_t i = 0; i < fr.scrubbed.size(); ++i) {
      const std::string& s = fr.scrubbed[i];
      for (const std::string& v : fp_vars) {
        std::size_t pos = 0;
        while ((pos = s.find(v, pos)) != std::string::npos) {
          const bool lb = pos == 0 || !is_ident_char(s[pos - 1]);
          std::size_t e = pos + v.size();
          const bool rb = e >= s.size() || !is_ident_char(s[e]);
          pos = e;
          if (!lb || !rb) continue;
          while (e < s.size() &&
                 std::isspace(static_cast<unsigned char>(s[e])) != 0) {
            ++e;
          }
          if (e + 1 < s.size() && (s[e] == '+' || s[e] == '-') &&
              s[e + 1] == '=') {
            report(fr, "float-accum", static_cast<int>(i) + 1,
                   "floating-point accumulation into `" + v +
                       "` in bit-exact code: the integer-exact datapath "
                       "must not depend on float summation order");
          }
        }
      }
    }
  }

  void check_raw_alloc(FileReport& fr) {
    if (fr.tags.count("alloc-impl") != 0) return;
    for (std::size_t i = 0; i < fr.scrubbed.size(); ++i) {
      const std::string& s = fr.scrubbed[i];
      bool hit = false;
      if (contains_word(s, "new")) {
        // `new` as a keyword: next non-space char starts a type (identifier
        // or '('). Excludes `operator new` declarations.
        const std::size_t pos = s.find("new");
        std::size_t j = pos + 3;
        while (j < s.size() &&
               std::isspace(static_cast<unsigned char>(s[j])) != 0) {
          ++j;
        }
        if (j < s.size() && (is_ident_char(s[j]) || s[j] == '(') &&
            s.find("operator") == std::string::npos) {
          hit = true;
        }
      }
      for (const char* fn : {"malloc", "calloc", "realloc", "free"}) {
        if (hit || !contains_word(s, fn)) continue;
        const std::size_t p = s.find(fn);
        std::size_t j = p + std::string_view(fn).size();
        while (j < s.size() &&
               std::isspace(static_cast<unsigned char>(s[j])) != 0) {
          ++j;
        }
        if (j >= s.size() || s[j] != '(') continue;
        // Only the C library functions: a member call (`mem.free(...)`,
        // `p->free(...)`, `DeviceMemory::free(...)`) or a declaration with
        // a return type (`void free(...)`) is something else by that name.
        std::size_t b = p;
        while (b > 0 &&
               std::isspace(static_cast<unsigned char>(s[b - 1])) != 0) {
          --b;
        }
        if (b > 0 && (is_ident_char(s[b - 1]) || s[b - 1] == '.' ||
                      s[b - 1] == '>' || s[b - 1] == ':')) {
          // ... except the std:: qualification, which is the C library.
          if (!(b >= 5 && s.compare(b - 5, 5, "std::") == 0)) continue;
        }
        hit = true;
      }
      if (hit) {
        report(fr, "raw-alloc", static_cast<int>(i) + 1,
               "raw allocation: use std::vector / std::unique_ptr so "
               "ownership and lifetime stay structured");
      }
    }
  }

  void check_counters(FileReport& fr) {
    if (fr.tags.count("parallel-phase") == 0) return;
    for (std::size_t i = 0; i < fr.scrubbed.size(); ++i) {
      const std::string& s = fr.scrubbed[i];
      for (const char* m : {".add(", ".merge(", ".reset("}) {
        const std::size_t pos = s.find(m);
        if (pos == std::string::npos) continue;
        // Only Counters-looking receivers: an identifier containing
        // `counters` immediately before the call.
        std::size_t b = pos;
        while (b > 0 && (is_ident_char(s[b - 1]) || s[b - 1] == '.' ||
                         s[b - 1] == '_')) {
          --b;
        }
        std::string recv = s.substr(b, pos - b);
        std::transform(recv.begin(), recv.end(), recv.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (recv.find("counter") != std::string::npos) {
          report(fr, "counters-mutation", static_cast<int>(i) + 1,
                 "Counters mutation outside the serial event phase: "
                 "parallel-phase updates merge in completion order, which "
                 "is nondeterministic; aggregate per-worker and merge in "
                 "index order from the serial phase");
          break;
        }
      }
    }
  }

  void check_nodiscard(FileReport& fr) {
    if (fr.rel.size() < 4 ||
        fr.rel.compare(fr.rel.size() - 4, 4, ".hpp") != 0) {
      return;
    }
    for (std::size_t i = 0; i < fr.scrubbed.size(); ++i) {
      const std::string& s = fr.scrubbed[i];
      const std::size_t bp = s.find("bool");
      if (bp == std::string::npos) continue;
      if (bp > 0 && is_ident_char(s[bp - 1])) continue;
      std::size_t j = bp + 4;
      while (j < s.size() &&
             std::isspace(static_cast<unsigned char>(s[j])) != 0) {
        ++j;
      }
      const std::size_t name_b = j;
      while (j < s.size() && is_ident_char(s[j])) ++j;
      const std::string name = s.substr(name_b, j - name_b);
      const bool status_name = name == "push" || name.rfind("try_", 0) == 0 ||
                               name.rfind("fits_", 0) == 0;
      if (!status_name) continue;
      if (j >= s.size() || s[j] != '(') continue;  // not a function
      const bool annotated =
          s.find("[[nodiscard]]") != std::string::npos ||
          (i > 0 &&
           fr.scrubbed[i - 1].find("[[nodiscard]]") != std::string::npos);
      if (!annotated) {
        report(fr, "nodiscard-status", static_cast<int>(i) + 1,
               "status-returning API `" + name +
                   "` must be [[nodiscard]]: an ignored admission/range "
                   "check silently breaks an exactness invariant");
      }
    }
  }

  /// True when a switch condition names one of the bit-exact enum
  /// discriminators: it mentions the `Opcode` or `NumericMode` type by
  /// name, or its final identifier is `op`/`opcode` (e.g. `inst.op`).
  static bool enum_discriminator(const std::string& cond) {
    if (contains_word(cond, "Opcode") || contains_word(cond, "NumericMode")) {
      return true;
    }
    std::size_t e = cond.size();
    while (e > 0 && !is_ident_char(cond[e - 1])) --e;
    std::size_t b = e;
    while (b > 0 && is_ident_char(cond[b - 1])) --b;
    const std::string last = cond.substr(b, e - b);
    return last == "op" || last == "opcode";
  }

  void check_exhaustive_switch(FileReport& fr) {
    if (fr.tags.count("bit-exact") == 0) return;
    // State for the switch body currently being tracked (depth relative to
    // the switch's own opening brace; 1 == the case-label level).
    bool active = false;
    int depth = 0;
    int switch_line = 0;
    for (std::size_t i = 0; i < fr.scrubbed.size(); ++i) {
      const std::string& s = fr.scrubbed[i];
      if (!active) {
        std::size_t sw = s.find("switch");
        while (sw != std::string::npos) {
          const bool lb = sw == 0 || !is_ident_char(s[sw - 1]);
          const bool rb = sw + 6 >= s.size() || !is_ident_char(s[sw + 6]);
          if (lb && rb) break;
          sw = s.find("switch", sw + 6);
        }
        if (sw == std::string::npos) continue;
        const std::size_t op = s.find('(', sw);
        if (op == std::string::npos) continue;  // condition on next line: skip
        // Walk to the matching ')' of the condition.
        int paren = 0;
        std::size_t cl = op;
        for (; cl < s.size(); ++cl) {
          if (s[cl] == '(') ++paren;
          if (s[cl] == ')' && --paren == 0) break;
        }
        if (cl >= s.size()) continue;
        if (!enum_discriminator(trim(s.substr(op + 1, cl - op - 1)))) continue;
        active = true;
        depth = 0;
        switch_line = static_cast<int>(i) + 1;
        // Fall through into body scanning from the rest of this line.
        for (std::size_t j = cl + 1; j < s.size(); ++j) {
          if (s[j] == '{') ++depth;
          if (s[j] == '}' && --depth == 0) { active = false; break; }
        }
        continue;
      }
      // Inside a tracked switch body: flag `default` labels at case level.
      if (depth == 1 && contains_word(s, "default")) {
        report(fr, "exhaustive-switch", static_cast<int>(i) + 1,
               "`default:` in a switch over Opcode/NumericMode (opened at "
               "line " + std::to_string(switch_line) +
               "): enumerate every member so a new enum value is a "
               "-Wswitch compile error, not a silent runtime fallthrough");
      }
      for (char c : s) {
        if (c == '{') ++depth;
        if (c == '}' && --depth == 0) { active = false; break; }
      }
    }
  }

  void check_layering(FileReport& fr) {
    std::string mod =
        fr.module_override ? *fr.module_override : module_of(fr.rel);
    if (mod.empty()) return;
    const int my_rank = module_rank(mod);
    if (my_rank < 0) return;
    for (std::size_t i = 0; i < fr.lines.size(); ++i) {
      const std::string& raw = fr.lines[i];
      const std::size_t inc = raw.find("#include \"");
      if (inc == std::string::npos) continue;
      const std::size_t b = inc + 10;
      const std::size_t e = raw.find('"', b);
      if (e == std::string::npos) continue;
      const std::string target = raw.substr(b, e - b);
      const std::string tmod = module_of_include(target);
      if (tmod.empty()) continue;
      const int trank = module_rank(tmod);
      if (trank < 0) continue;
      if (trank > my_rank) {
        report(fr, "layering", static_cast<int>(i) + 1,
               "upward include: module `" + mod + "` (rank " +
                   std::to_string(my_rank) + ") must not include `" + tmod +
                   "` (rank " + std::to_string(trank) +
                   "); the ladder follows src/CMakeLists.txt link order");
      }
    }
  }

  std::vector<Finding> findings_;
  std::uint64_t suppressed_ = 0;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool has_ext(const fs::path& p, std::string_view ext) {
  return p.extension() == ext;
}

std::vector<fs::path> collect_files(
    const fs::path& root, std::initializer_list<const char*> dirs = {
                              "src", "bench", "tools"}) {
  std::vector<fs::path> files;
  for (const char* dir : dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& ent : fs::recursive_directory_iterator(base)) {
      if (!ent.is_regular_file()) continue;
      const fs::path& p = ent.path();
      if (has_ext(p, ".cpp") || has_ext(p, ".hpp") || has_ext(p, ".h")) {
        files.push_back(p);
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool read_lines(const fs::path& p, std::vector<std::string>* lines) {
  std::ifstream in(p);
  if (!in) {
    std::cerr << "bfpsim-lint: cannot read " << p << "\n";
    return false;
  }
  for (std::string line; std::getline(in, line);) {
    lines->push_back(std::move(line));
  }
  return true;
}

std::string relative_to(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) return p.generic_string();
  const std::string s = rel.generic_string();
  // Paths outside the root keep their given spelling (fixture files).
  if (s.rfind("..", 0) == 0) return p.generic_string();
  return s;
}

int usage() {
  std::cerr
      << "usage: bfpsim_lint [--root <dir>] [--json <report.json>] [files...]\n"
      << "  With no files, scans <root>/{src,bench,tools} for .cpp/.hpp/.h.\n"
      << "  Exit codes: 0 clean, 1 findings, 2 usage/IO error.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string json_out;
  std::vector<fs::path> explicit_files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--root") {
      if (i + 1 >= argc) return usage();
      root = argv[++i];
    } else if (a == "--json") {
      if (i + 1 >= argc) return usage();
      json_out = argv[++i];
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "bfpsim-lint: unknown option " << a << "\n";
      return usage();
    } else {
      explicit_files.emplace_back(a);
    }
  }

  std::vector<fs::path> files =
      explicit_files.empty() ? collect_files(root) : explicit_files;
  if (files.empty()) {
    std::cerr << "bfpsim-lint: no input files under " << root << "\n";
    return 2;
  }

  Linter linter;
  std::uint64_t scanned = 0;
  // The include graph for test-only-header: include target -> includers.
  // It always covers the whole tree under the root, whatever was linted.
  std::map<std::string, std::set<std::string>> includers;
  std::set<std::string> seen;
  auto add_includes = [&](const std::string& rel,
                          const std::vector<std::string>& lines) {
    if (!seen.insert(rel).second) return;
    for (std::string& target : quoted_includes(lines)) {
      includers[std::move(target)].insert(rel);
    }
  };
  std::vector<FileReport> src_headers;
  for (const fs::path& p : files) {
    std::vector<std::string> lines;
    if (!read_lines(p, &lines)) return 2;
    FileReport fr;
    fr.path = p.generic_string();
    fr.rel = relative_to(p, root);
    fr.lines = std::move(lines);
    ScrubResult sr = scrub(fr.lines);
    fr.scrubbed = std::move(sr.code);
    apply_path_tags(fr);
    parse_directives(fr, sr.comments);
    linter.check(fr);
    ++scanned;
    add_includes(fr.rel, fr.lines);
    if (fr.rel.rfind("src/", 0) == 0 &&
        (has_ext(p, ".hpp") || has_ext(p, ".h"))) {
      src_headers.push_back(std::move(fr));
    }
  }
  for (const fs::path& p : collect_files(
           root, {"src", "bench", "tools", "examples", "perfbench"})) {
    const std::string rel = relative_to(p, root);
    if (seen.count(rel) != 0) continue;
    std::vector<std::string> lines;
    if (!read_lines(p, &lines)) return 2;
    add_includes(rel, lines);
  }
  for (FileReport& fr : src_headers) {
    linter.check_test_only(fr, includers[fr.rel.substr(4)]);
  }

  for (const Finding& f : linter.findings()) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n    " << f.snippet << "\n";
  }
  std::cout << "bfpsim-lint: " << scanned << " files, "
            << linter.findings().size() << " finding(s), "
            << linter.suppressed() << " suppressed\n";

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::cerr << "bfpsim-lint: cannot write " << json_out << "\n";
      return 2;
    }
    out << "{\n  \"version\": 1,\n  \"files_scanned\": " << scanned
        << ",\n  \"suppressed\": " << linter.suppressed()
        << ",\n  \"findings\": [";
    bool first = true;
    for (const Finding& f : linter.findings()) {
      out << (first ? "" : ",") << "\n    {\"rule\": \"" << json_escape(f.rule)
          << "\", \"file\": \"" << json_escape(f.file)
          << "\", \"line\": " << f.line << ", \"message\": \""
          << json_escape(f.message) << "\", \"snippet\": \""
          << json_escape(f.snippet) << "\"}";
      first = false;
    }
    out << (first ? "" : "\n  ") << "]\n}\n";
  }

  return linter.findings().empty() ? 0 : 1;
}
