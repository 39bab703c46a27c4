#include "atpg/test_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <utility>

#include "base/error.h"
#include "base/store/fs_util.h"
#include "base/store/serial.h"
#include "base/string_util.h"

namespace fstg {

namespace {

/// Input-hardening bounds: test files are external input, so a pathological
/// or hostile file fails with a typed ParseError naming the line instead of
/// exhausting memory tokenizing it. The line bound still fits a maximum-
/// length input sequence at full input width.
constexpr std::size_t kMaxLineLength = 64u << 20;
constexpr std::size_t kMaxSequenceLength = 1'000'000;
constexpr std::size_t kMaxTests = 100'000'000;

/// Range-checked integer directive argument (see kiss2_parser.cpp for why
/// from_chars instead of stoi: full-token parse, typed overflow).
int int_field(const std::string& text, const char* what, int line_no,
              long long lo, long long hi) {
  long long v = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [p, ec] = std::from_chars(begin, end, v);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && (v < lo || v > hi)))
    throw ParseError(std::string(what) + " value " + text +
                         " out of range [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]",
                     line_no);
  if (ec != std::errc() || p != end)
    throw ParseError(std::string("bad integer for ") + what, line_no);
  return static_cast<int>(v);
}

std::uint32_t parse_binary(const std::string& s, int bits, int line) {
  if (static_cast<int>(s.size()) != bits)
    throw ParseError("field `" + s + "` is not " + std::to_string(bits) +
                         " bits wide",
                     line);
  std::uint32_t v = 0;
  for (int b = 0; b < bits; ++b) {
    const char c = s[static_cast<std::size_t>(bits - 1 - b)];
    if (c == '1')
      v |= 1u << b;
    else if (c != '0')
      throw ParseError("field `" + s + "` is not binary", line);
  }
  return v;
}

/// Ternary input field: 0/1/x per bit, MSB first. An 'x' reads as value 0
/// with the X bit set (the canonical form the simulator uses).
std::pair<std::uint32_t, std::uint32_t> parse_ternary(const std::string& s,
                                                      int bits, int line) {
  if (static_cast<int>(s.size()) != bits)
    throw ParseError("field `" + s + "` is not " + std::to_string(bits) +
                         " bits wide",
                     line);
  std::uint32_t v = 0;
  std::uint32_t x = 0;
  for (int b = 0; b < bits; ++b) {
    const char c = s[static_cast<std::size_t>(bits - 1 - b)];
    if (c == '1')
      v |= 1u << b;
    else if (c == 'x' || c == 'X')
      x |= 1u << b;
    else if (c != '0')
      throw ParseError("field `" + s + "` is not ternary (0/1/x)", line);
  }
  return {v, x};
}

/// Append a `bits`-wide field, MSB first. A bit set in `x` prints 'x'
/// regardless of the value bit underneath, so the written form is
/// canonical; state fields pass x = 0.
void append_field(std::string& out, std::uint32_t v, std::uint32_t x,
                  int bits) {
  for (int b = bits - 1; b >= 0; --b)
    out += ((x >> b) & 1u) ? 'x' : ((v >> b) & 1u) ? '1' : '0';
}

}  // namespace

std::string write_test_file(const TestFile& file) {
  std::string header = "# functional scan tests";
  if (!file.circuit.empty()) header += " for " + file.circuit;
  header += "\n";
  if (!file.circuit.empty()) header += ".circuit " + file.circuit + "\n";
  header += ".inputs " + std::to_string(file.input_bits) + "\n";
  header += ".sv " + std::to_string(file.state_bits) + "\n";
  header += ".tests " + std::to_string(file.tests.size()) + "\n";

  // Size the text exactly and fill it in place: test files run to
  // megabytes, and a growing stream buffer would copy (and fault in) the
  // whole text several times over.
  const auto in_width = static_cast<std::size_t>(file.input_bits);
  const auto sv_width = static_cast<std::size_t>(file.state_bits);
  std::size_t size = header.size();
  for (const FunctionalTest& t : file.tests.tests)
    size += 2 * (sv_width + 1) +
            (t.inputs.empty() ? 1 : t.inputs.size() * (in_width + 1) - 1);
  std::string out;
  out.reserve(size);
  out += header;
  for (const FunctionalTest& t : file.tests.tests) {
    append_field(out, static_cast<std::uint32_t>(t.init_state), 0,
                 file.state_bits);
    out += ' ';
    // An empty input sequence (scan-in immediately followed by scan-out)
    // writes as `-`; the parser maps it back to zero vectors.
    if (t.inputs.empty()) out += '-';
    for (std::size_t i = 0; i < t.inputs.size(); ++i) {
      if (i) out += ',';
      append_field(out, t.inputs[i],
                   i < t.input_x.size() ? t.input_x[i] : 0u, file.input_bits);
    }
    out += ' ';
    append_field(out, static_cast<std::uint32_t>(t.final_state), 0,
                 file.state_bits);
    out += '\n';
  }
  return out;
}

TestFile parse_test_file(const std::string& text) {
  TestFile file;
  int declared_tests = -1;
  int line_no = 0;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    if (raw.size() > kMaxLineLength)
      throw ParseError("line exceeds " + std::to_string(kMaxLineLength) +
                           " characters",
                       line_no);
    std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::string line{trim(raw)};
    if (line.empty()) continue;
    const std::vector<std::string> tok = split_ws(line);

    if (tok[0][0] == '.') {
      if (tok.size() < 2) throw ParseError("directive needs an argument", line_no);
      if (tok[0] == ".circuit") {
        file.circuit = tok[1];
      } else if (tok[0] == ".inputs") {
        file.input_bits = int_field(tok[1], ".inputs", line_no, 1, 31);
      } else if (tok[0] == ".sv") {
        file.state_bits = int_field(tok[1], ".sv", line_no, 1, 31);
      } else if (tok[0] == ".tests") {
        declared_tests = int_field(tok[1], ".tests", line_no, 0, 100'000'000);
      } else {
        throw ParseError("unknown directive " + tok[0], line_no);
      }
      continue;
    }

    if (file.input_bits <= 0 || file.state_bits <= 0)
      throw ParseError("test row before .inputs/.sv", line_no);
    if (tok.size() != 3)
      throw ParseError("expected `init inputs final`", line_no);

    FunctionalTest t;
    t.init_state =
        static_cast<int>(parse_binary(tok[0], file.state_bits, line_no));
    bool any_x = false;
    if (tok[1] != "-") {  // `-` marks an empty input sequence
      const std::vector<std::string> fields = split_char(tok[1], ',');
      if (fields.size() > kMaxSequenceLength)
        throw ParseError("input sequence exceeds " +
                             std::to_string(kMaxSequenceLength) + " cycles",
                         line_no);
      for (const std::string& field : fields) {
        const auto [v, x] = parse_ternary(field, file.input_bits, line_no);
        t.inputs.push_back(v);
        t.input_x.push_back(x);
        any_x = any_x || x != 0;
      }
    }
    // Canonical in-memory form: no X anywhere -> empty input_x, so a file
    // without 'x' parses to tests that compare equal to ATPG-built ones.
    if (!any_x) t.input_x.clear();
    t.final_state =
        static_cast<int>(parse_binary(tok[2], file.state_bits, line_no));
    if (file.tests.size() >= kMaxTests)
      throw ParseError(
          "test file exceeds " + std::to_string(kMaxTests) + " tests",
          line_no);
    file.tests.tests.push_back(std::move(t));
  }

  if (declared_tests >= 0 &&
      declared_tests != static_cast<int>(file.tests.size()))
    throw ParseError(".tests declares " + std::to_string(declared_tests) +
                         ", found " + std::to_string(file.tests.size()),
                     line_no);
  // A file with no directives at all (empty or comment-only) is rejected
  // rather than silently decoded as "zero tests over zero-bit fields":
  // truncation to nothing must be loud. A directive-only file that
  // declares its widths but no tests is a valid empty set.
  if (file.input_bits <= 0 || file.state_bits <= 0)
    throw ParseError("empty test file: missing .inputs/.sv declarations",
                     line_no);
  return file;
}

void save_test_file(const TestFile& file, const std::string& path) {
  // Atomic temp+rename write: a crash or ENOSPC mid-save can never leave a
  // truncated test file where a complete one (or nothing) was expected. No
  // fsync: a test file is an output a rerun regenerates (fs_util.h).
  std::string error;
  if (!store::atomic_replace_file(path, write_test_file(file), &error))
    throw Error("cannot write test file " + path + ": " + error);
}

TestFile load_test_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open test file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_test_file(ss.str());
}

void serialize_test_set(const TestSet& tests, store::BlobWriter& w) {
  w.u64(tests.size());
  for (const FunctionalTest& t : tests.tests) {
    w.i32(t.init_state);
    w.i32(t.final_state);
    w.vec_u32(t.inputs);
    w.vec_u32(t.input_x);
  }
}

bool deserialize_test_set(store::BlobReader& r, TestSet* out) {
  const std::uint64_t n = r.u64();
  // Each test record is at least two i32 + two 8-byte vector lengths.
  if (!r.ok() || n * 24 > r.remaining()) return false;
  TestSet tests;
  tests.tests.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    FunctionalTest t;
    t.init_state = r.i32();
    t.final_state = r.i32();
    t.inputs = r.vec_u32();
    t.input_x = r.vec_u32();
    if (!r.ok() || t.init_state < 0 || t.final_state < 0) return false;
    if (!t.input_x.empty() && t.input_x.size() != t.inputs.size())
      return false;
    tests.tests.push_back(std::move(t));
  }
  *out = std::move(tests);
  return true;
}

}  // namespace fstg
