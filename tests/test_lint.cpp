// Tests for bfpsim-lint (tools/bfpsim_lint.cpp).
//
// The checker is exercised as a subprocess, exactly the way the CI gate
// runs it: each known-bad fixture in tests/lint_fixtures/ must be flagged
// exactly once with the expected rule, per-line allow(<rule>) suppressions
// must be honored, the JSON report must round-trip through a parser, and —
// the gate itself — the real repository tree must come back clean.
//
// Paths are injected by CMake:
//   BFPSIM_LINT_BIN       — the built bfpsim_lint executable
//   BFPSIM_LINT_FIXTURES  — tests/lint_fixtures in the source tree
//   BFPSIM_SOURCE_ROOT    — the repository root
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <sys/wait.h>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON model + parser: enough for the lint report, strict enough
// that a malformed report fails loudly.
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  const JsonObject& obj() const { return std::get<JsonObject>(v); }
  const JsonArray& arr() const { return std::get<JsonArray>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  double num() const { return std::get<double>(v); }

  bool operator==(const JsonValue& o) const { return v == o.v; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': literal("true"); return JsonValue{true};
      case 'f': literal("false"); return JsonValue{false};
      case 'n': literal("null"); return JsonValue{nullptr};
      default: return JsonValue{number()};
    }
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) expect(*p);
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("dangling escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            const int code =
                std::stoi(s_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            // Reports only ever escape control characters.
            out += static_cast<char>(code);
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (start == pos_) fail("expected number");
    return std::stod(s_.substr(start, pos_ - start));
  }

  JsonValue array() {
    expect('[');
    JsonArray out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{out};
    }
    while (true) {
      out.push_back(value());
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return JsonValue{out};
      }
      expect(',');
    }
  }

  JsonValue object() {
    expect('{');
    JsonObject out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{out};
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out.emplace(std::move(key), value());
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return JsonValue{out};
      }
      expect(',');
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Re-serialize a JsonValue (sorted object keys) — parse(serialize(parse(x)))
/// must equal parse(x) for the report to count as round-trip clean.
std::string serialize(const JsonValue& v) {
  std::ostringstream out;
  struct W {
    std::ostringstream& o;
    void write(const JsonValue& val) {
      if (std::holds_alternative<std::nullptr_t>(val.v)) {
        o << "null";
      } else if (const bool* b = std::get_if<bool>(&val.v)) {
        o << (*b ? "true" : "false");
      } else if (const double* d = std::get_if<double>(&val.v)) {
        o << *d;
      } else if (const std::string* s = std::get_if<std::string>(&val.v)) {
        o << '"';
        for (const char c : *s) {
          if (c == '"' || c == '\\') o << '\\' << c;
          else if (c == '\n') o << "\\n";
          else if (c == '\t') o << "\\t";
          else o << c;
        }
        o << '"';
      } else if (val.is_array()) {
        o << '[';
        bool first = true;
        for (const auto& e : val.arr()) {
          if (!first) o << ',';
          first = false;
          write(e);
        }
        o << ']';
      } else {
        o << '{';
        bool first = true;
        for (const auto& [k, e] : val.obj()) {
          if (!first) o << ',';
          first = false;
          o << '"' << k << "\":";
          write(e);
        }
        o << '}';
      }
    }
  } w{out};
  w.write(v);
  return out.str();
}

// ---------------------------------------------------------------------------
// Subprocess harness
// ---------------------------------------------------------------------------

struct LintRun {
  int exit_code = -1;
  JsonValue report;
};

std::string shell_quote(const std::string& s) { return "'" + s + "'"; }

/// Run bfpsim_lint with `args`, capture the JSON report.
LintRun run_lint(const std::vector<std::string>& args) {
  static int counter = 0;
  const std::string json_path =
      "lint_report_" + std::to_string(counter++) + ".json";
  std::string cmd = shell_quote(BFPSIM_LINT_BIN);
  cmd += " --json " + shell_quote(json_path);
  for (const std::string& a : args) cmd += " " + shell_quote(a);
  cmd += " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  LintRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;

  std::ifstream in(json_path);
  EXPECT_TRUE(in.good()) << "lint produced no JSON report: " << json_path;
  std::ostringstream text;
  text << in.rdbuf();
  run.report = JsonParser(text.str()).parse();
  std::remove(json_path.c_str());
  return run;
}

std::string fixture(const std::string& name) {
  return std::string(BFPSIM_LINT_FIXTURES) + "/" + name;
}

long field_num(const JsonValue& report, const std::string& key) {
  return static_cast<long>(report.obj().at(key).num());
}

const JsonArray& findings_of(const JsonValue& report) {
  return report.obj().at("findings").arr();
}

/// Assert a fixture yields exactly one finding of `rule` (plus
/// `expect_suppressed` suppressed occurrences).
void expect_single_finding(const std::string& file, const std::string& rule,
                           long expect_suppressed = 0) {
  SCOPED_TRACE(file + " -> " + rule);
  const LintRun run =
      run_lint({"--root", BFPSIM_SOURCE_ROOT, fixture(file)});
  EXPECT_EQ(run.exit_code, 1) << "findings must exit nonzero";
  const JsonArray& f = findings_of(run.report);
  ASSERT_EQ(f.size(), 1u);
  const JsonObject& finding = f[0].obj();
  EXPECT_EQ(finding.at("rule").str(), rule);
  EXPECT_NE(finding.at("file").str().find(file), std::string::npos);
  EXPECT_GT(finding.at("line").num(), 0.0);
  EXPECT_FALSE(finding.at("message").str().empty());
  EXPECT_FALSE(finding.at("snippet").str().empty());
  EXPECT_EQ(field_num(run.report, "suppressed"), expect_suppressed);
  EXPECT_EQ(field_num(run.report, "files_scanned"), 1);
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(Lint, FlagsUnorderedContainerOnTimingPath) {
  expect_single_finding("bad_unordered.cpp", "unordered-container");
}

TEST(Lint, FlagsNondeterministicRng) {
  expect_single_finding("bad_rng.cpp", "nondet-rng");
}

TEST(Lint, FlagsFloatAccumulationInBitExactCode) {
  expect_single_finding("bad_float_accum.cpp", "float-accum");
}

TEST(Lint, FlagsRawAllocation) {
  expect_single_finding("bad_raw_alloc.cpp", "raw-alloc");
}

TEST(Lint, RawAllocExemptsTaggedAllocatorImplementation) {
  // The sanctioned allocator (src/common/arena*, or anything tagged
  // alloc-impl) is the one place raw allocation primitives may live; the
  // raw-alloc rule must skip it wholesale rather than demand per-line
  // allows inside the implementation.
  const LintRun run =
      run_lint({"--root", BFPSIM_SOURCE_ROOT, fixture("tagged_alloc_impl.cpp")});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_TRUE(findings_of(run.report).empty())
      << serialize(run.report.obj().at("findings"));
  EXPECT_EQ(field_num(run.report, "files_scanned"), 1);
}

TEST(Lint, FlagsCountersMutationInParallelPhase) {
  expect_single_finding("bad_counters.cpp", "counters-mutation");
}

TEST(Lint, FlagsMissingNodiscardAndHonorsInlineAllow) {
  // One bare status API flagged, one [[nodiscard]] API clean, one
  // suppressed via allow(nodiscard-status).
  expect_single_finding("bad_nodiscard.hpp", "nodiscard-status",
                        /*expect_suppressed=*/1);
}

TEST(Lint, FlagsUpwardIncludeAgainstModuleLadder) {
  expect_single_finding("bad_layering.cpp", "layering");
}

TEST(Lint, FlagsIsaIncludingTheCompiler) {
  // compiler (rank 15) may include isa (rank 9) and numerics.format, but
  // the reverse edge — the ISA layer importing graph-compiler headers —
  // is an upward include and must be flagged.
  expect_single_finding("bad_compiler_layering.cpp", "layering");
}

TEST(Lint, FlagsFloatAccumulationInFormatLayer) {
  // src/numerics/format/ joined the bit-exact rule set with the precision
  // zoo; the fixture declares that module + tag explicitly.
  expect_single_finding("bad_format_accum.cpp", "float-accum");
}

TEST(Lint, FlagsNumericsIncludingTheFormatLayer) {
  // numerics.format ranks above numerics on the ladder: the golden bfp /
  // quantizer code must never include the format layer built on top of it.
  expect_single_finding("bad_format_layering.cpp", "layering");
}

TEST(Lint, FlagsDefaultArmInOpcodeSwitch) {
  // The bad fixture also holds a RoundMode switch with a default, proving
  // the rule fires only on the Opcode discriminator.
  expect_single_finding("bad_exhaustive_switch.cpp", "exhaustive-switch");
}

TEST(Lint, ExhaustiveOpcodeSwitchIsClean) {
  // The twin enumerates every Opcode member and keeps a default on an
  // unrelated RoundMode switch: zero findings.
  const LintRun run = run_lint(
      {"--root", BFPSIM_SOURCE_ROOT, fixture("ok_exhaustive_switch.cpp")});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_TRUE(findings_of(run.report).empty())
      << serialize(run.report.obj().at("findings"));
  EXPECT_EQ(field_num(run.report, "files_scanned"), 1);
}

TEST(Lint, FlagsHeaderReachedOnlyByItsOwnCpp) {
  // A fixture tree: src/gadget/orphan.hpp has no includer but its own
  // .cpp; its twin wired.hpp is included by a tool. Exactly one finding,
  // on the orphan.
  const LintRun run = run_lint({"--root", fixture("test_only_tree")});
  EXPECT_EQ(run.exit_code, 1);
  const JsonArray& f = findings_of(run.report);
  ASSERT_EQ(f.size(), 1u) << serialize(run.report.obj().at("findings"));
  const JsonObject& finding = f[0].obj();
  EXPECT_EQ(finding.at("rule").str(), "test-only-header");
  EXPECT_EQ(finding.at("file").str(), "src/gadget/orphan.hpp");
  EXPECT_EQ(finding.at("line").num(), 1.0);
  EXPECT_FALSE(finding.at("snippet").str().empty());
  EXPECT_EQ(field_num(run.report, "files_scanned"), 5);
}

TEST(Lint, AllowSuppressionsSilenceEveryRule) {
  const LintRun run =
      run_lint({"--root", BFPSIM_SOURCE_ROOT, fixture("suppressed.cpp")});
  EXPECT_EQ(run.exit_code, 0) << "suppressed findings must not fail the run";
  EXPECT_TRUE(findings_of(run.report).empty());
  EXPECT_EQ(field_num(run.report, "suppressed"), 6);
}

TEST(Lint, AllFixturesTogetherFlagEachRuleExactlyOnce) {
  const LintRun run = run_lint({
      "--root", BFPSIM_SOURCE_ROOT,
      fixture("bad_unordered.cpp"), fixture("bad_rng.cpp"),
      fixture("bad_float_accum.cpp"), fixture("bad_raw_alloc.cpp"),
      fixture("bad_counters.cpp"), fixture("bad_nodiscard.hpp"),
      fixture("bad_layering.cpp"), fixture("bad_exhaustive_switch.cpp"),
  });
  EXPECT_EQ(run.exit_code, 1);
  std::map<std::string, int> by_rule;
  for (const JsonValue& f : findings_of(run.report)) {
    by_rule[f.obj().at("rule").str()] += 1;
  }
  const std::map<std::string, int> expected = {
      {"unordered-container", 1}, {"nondet-rng", 1}, {"float-accum", 1},
      {"raw-alloc", 1},           {"counters-mutation", 1},
      {"nodiscard-status", 1},    {"layering", 1},
      {"exhaustive-switch", 1},
  };
  EXPECT_EQ(by_rule, expected);
}

TEST(Lint, RepositoryTreeIsClean) {
  // The gate itself: src/ bench/ tools/ must lint clean, test-only-header
  // included (every src/ header is reached from outside tests/).
  const LintRun run = run_lint({"--root", BFPSIM_SOURCE_ROOT});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_TRUE(findings_of(run.report).empty())
      << serialize(run.report.obj().at("findings"));
  EXPECT_GT(field_num(run.report, "files_scanned"), 100);
}

TEST(Lint, JsonReportRoundTrips) {
  const LintRun run = run_lint({
      "--root", BFPSIM_SOURCE_ROOT,
      fixture("bad_unordered.cpp"), fixture("bad_nodiscard.hpp"),
  });
  // parse -> serialize -> parse must be a fixed point.
  const std::string once = serialize(run.report);
  const JsonValue reparsed = JsonParser(once).parse();
  EXPECT_TRUE(reparsed == run.report);
  EXPECT_EQ(serialize(reparsed), once);
  // Schema: every finding carries the full field set.
  for (const JsonValue& f : findings_of(run.report)) {
    const JsonObject& o = f.obj();
    EXPECT_EQ(o.count("rule"), 1u);
    EXPECT_EQ(o.count("file"), 1u);
    EXPECT_EQ(o.count("line"), 1u);
    EXPECT_EQ(o.count("message"), 1u);
    EXPECT_EQ(o.count("snippet"), 1u);
  }
}

TEST(Lint, UnknownOptionIsUsageError) {
  const std::string cmd =
      shell_quote(BFPSIM_LINT_BIN) + " --frobnicate > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

}  // namespace
