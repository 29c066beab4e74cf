#include "selin/io/history_io.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

namespace selin {

namespace {

// std::isspace in the "C" locale, without the locale lookup.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// The longest valid line: res <pid> <seq> <Method> <arg> <result>.
constexpr size_t kMaxTokens = 6;

/// A line's whitespace-separated tokens up to its first '#', as views into
/// the line.  Tokens past the array are counted but not kept: the arity
/// errors need only the count.
struct Tokens {
  std::string_view tok[kMaxTokens];
  size_t n = 0;

  explicit Tokens(std::string_view line) {
    const char* p = line.data();
    const char* const end = p + line.size();
    while (p != end && *p != '#') {
      if (is_space(*p)) {
        ++p;
        continue;
      }
      const char* const start = p;
      while (p != end && *p != '#' && !is_space(*p)) ++p;
      if (n < kMaxTokens) {
        tok[n] = std::string_view(start, static_cast<size_t>(p - start));
      }
      ++n;
    }
  }
};

/// A pid or seq: the whole token is decimal digits, with a value below 2^32.
bool parse_u32(std::string_view token, uint32_t& out) {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::optional<Method> parse_method(std::string_view name) {
  static constexpr std::pair<std::string_view, Method> kTable[] = {
      {"Enqueue", Method::kEnqueue},     {"Dequeue", Method::kDequeue},
      {"Push", Method::kPush},           {"Pop", Method::kPop},
      {"Insert", Method::kInsert},       {"Remove", Method::kRemove},
      {"Contains", Method::kContains},   {"PqInsert", Method::kPqInsert},
      {"PqExtractMin", Method::kPqExtractMin},
      {"Inc", Method::kInc},             {"CounterRead", Method::kCounterRead},
      {"Read", Method::kRead},           {"Write", Method::kWrite},
      {"Decide", Method::kDecide},       {"Exchange", Method::kExchange},
      {"WriteSnap", Method::kWriteSnap},
  };
  for (const auto& [n, m] : kTable) {
    if (name == n) return m;
  }
  return std::nullopt;
}

bool method_takes_arg(Method m) {
  switch (m) {
    case Method::kEnqueue:
    case Method::kPush:
    case Method::kInsert:
    case Method::kRemove:
    case Method::kContains:
    case Method::kPqInsert:
    case Method::kWrite:
    case Method::kDecide:
    case Method::kExchange:
    case Method::kWriteSnap:
      return true;
    default:
      return false;
  }
}

std::optional<Value> parse_value(std::string_view token) {
  if (token.empty()) return std::nullopt;
  const char c = token[0];
  if (c == '+' || c == '-' || (c >= '0' && c <= '9')) {
    // from_chars takes '-' but not '+'; "+-1" stays an error.
    if (c == '+') {
      token.remove_prefix(1);
      if (!token.empty() && token[0] == '-') return std::nullopt;
    }
    Value v = 0;
    const char* const end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, v);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    return v;
  }
  if (token == "empty") return kEmpty;
  if (token == "ok") return kOk;
  if (token == "true") return kTrue;
  if (token == "false") return kFalse;
  if (token == "error") return kError;
  return std::nullopt;
}

std::optional<Event> parse_history_line(std::string_view line,
                                        size_t lineno) {
  const Tokens t(line);
  if (t.n == 0) return std::nullopt;
  const std::string_view* tok = t.tok;

  const bool is_inv = tok[0] == "inv";
  if (!is_inv && tok[0] != "res") {
    throw HistoryParseError(lineno, "expected 'inv' or 'res', got '" +
                                        std::string(tok[0]) + "'");
  }
  if (t.n < 4) {
    throw HistoryParseError(lineno, "too few fields");
  }
  OpDesc op;
  if (!parse_u32(tok[1], op.id.pid) || !parse_u32(tok[2], op.id.seq)) {
    throw HistoryParseError(lineno, "bad pid/seq");
  }
  const std::optional<Method> m = parse_method(tok[3]);
  if (!m.has_value()) {
    throw HistoryParseError(lineno,
                            "unknown method '" + std::string(tok[3]) + "'");
  }
  op.method = *m;
  size_t next = 4;
  if (method_takes_arg(*m)) {
    if (t.n <= next) {
      throw HistoryParseError(lineno, "method requires an argument");
    }
    const std::optional<Value> arg = parse_value(tok[next++]);
    if (!arg.has_value()) throw HistoryParseError(lineno, "bad argument");
    op.arg = *arg;
  }
  if (is_inv) {
    if (t.n != next) {
      throw HistoryParseError(lineno, "trailing tokens on invocation");
    }
    return Event::inv(op);
  }
  if (t.n != next + 1) {
    throw HistoryParseError(lineno, "response requires exactly one result");
  }
  const std::optional<Value> res = parse_value(tok[next]);
  if (!res.has_value()) throw HistoryParseError(lineno, "bad result");
  return Event::res(op, *res);
}

bool HistoryStreamReader::next_line(std::string_view& line) {
  if (in_ == nullptr) {
    if (text_.empty()) return false;
    const size_t nl = text_.find('\n');
    line = text_.substr(0, nl);
    text_.remove_prefix(nl == std::string_view::npos ? text_.size() : nl + 1);
    return true;
  }
  if (!std::getline(*in_, linebuf_)) return false;
  line = linebuf_;
  return true;
}

// Incremental well-formedness, same rules as well_formed(): violations
// surface at the offending line rather than at end-of-stream.
void HistoryStreamReader::check_well_formed(const Event& e) {
  const ProcId p = e.op.id.pid;
  ProcState& st = procs_[p];
  if (e.is_inv()) {
    if (st.open) {
      throw HistoryParseError(
          lineno_, "history not well-formed: process p" + std::to_string(p) +
                       " invokes while an operation is pending");
    }
    if (!st.seen.insert(e.op.id.seq)) {
      throw HistoryParseError(
          lineno_,
          "history not well-formed: duplicate invocation of " +
              to_string(e.op));
    }
    st.open = true;
    st.pending = e.op;
  } else {
    if (!st.open) {
      throw HistoryParseError(
          lineno_, "history not well-formed: response without pending "
                   "invocation: " + to_string(e));
    }
    if (!(st.pending == e.op)) {
      throw HistoryParseError(
          lineno_, "history not well-formed: response " + to_string(e) +
                       " does not match pending invocation");
    }
    st.open = false;
  }
}

std::optional<Event> HistoryStreamReader::next() {
  std::string_view line;
  while (next_line(line)) {
    ++lineno_;
    std::optional<Event> e = parse_history_line(line, lineno_);
    if (!e.has_value()) continue;
    check_well_formed(*e);
    ++count_;
    return e;
  }
  return std::nullopt;
}

size_t HistoryStreamReader::read_batch(std::vector<Event>& out, size_t max) {
  size_t n = 0;
  while (n < max) {
    std::optional<Event> e = next();
    if (!e.has_value()) break;
    out.push_back(*e);
    ++n;
  }
  return n;
}

History parse_history(std::istream& in) {
  History h;
  HistoryStreamReader(in).read_batch(h, std::numeric_limits<size_t>::max());
  return h;
}

History parse_history_string(std::string_view text) {
  History h;
  // One event per line at most.
  h.reserve(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) +
            1);
  HistoryStreamReader(text).read_batch(h, std::numeric_limits<size_t>::max());
  return h;
}

namespace {

std::string value_token(Value v) {
  if (v == kEmpty) return "empty";
  if (v == kOk) return "ok";
  if (v == kError) return "error";
  return std::to_string(v);
}

}  // namespace

void write_history(std::ostream& out, const History& h) {
  for (const Event& e : h) {
    out << (e.is_inv() ? "inv " : "res ") << e.op.id.pid << " " << e.op.id.seq
        << " " << method_name(e.op.method);
    if (method_takes_arg(e.op.method)) out << " " << value_token(e.op.arg);
    if (e.is_res()) out << " " << value_token(e.result);
    out << "\n";
  }
}

std::string history_to_string(const History& h) {
  std::ostringstream os;
  write_history(os, h);
  return os.str();
}

}  // namespace selin
