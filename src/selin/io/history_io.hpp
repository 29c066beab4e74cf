// Plain-text history serialization.
//
// Lets users check traces captured from *their own* systems with selin's
// membership engine (the Porcupine/lincheck offline-checker workflow), and
// makes witnesses/certificates exportable artifacts for the forensic stage
// of Section 8.3: a self-enforced object's certificate can be written to a
// file, shipped to an auditor, and re-validated with `selin_check`.
//
// Format — one event per line, '#' comments, blank lines ignored:
//
//     inv <pid> <seq> <Method> [arg]
//     res <pid> <seq> <Method> [arg] <result>
//
// where <pid> and <seq> are plain decimals below 2^32, <Method> is the enum
// spelling (Enqueue, Dequeue, Push, ...), [arg] is required exactly for
// methods that take one, and values are integers or the symbolic constants
// `empty`, `ok`, `true`, `false`, `error`.  Tokens are separated by any
// whitespace, so CRLF line endings parse too.
//
// Example:
//     inv 0 0 Enqueue 5
//     res 0 0 Enqueue 5 true
//     inv 1 0 Dequeue
//     res 1 0 Dequeue 5
#pragma once

#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "selin/history/history.hpp"

namespace selin {

class HistoryParseError : public std::runtime_error {
 public:
  HistoryParseError(size_t line, const std::string& what)
      : std::runtime_error("line " + std::to_string(line) + ": " + what),
        line_(line) {}
  size_t line() const { return line_; }

 private:
  size_t line_;
};

/// Parses the format above.  Throws HistoryParseError on malformed lines;
/// the returned history is additionally checked for well-formedness.
/// parse_history_string reads the text in place, without copying it.
History parse_history(std::istream& in);
History parse_history_string(std::string_view text);

/// Parses one line of the format above.  Returns nullopt for blank and
/// comment-only lines; throws HistoryParseError (tagged with `lineno`) on a
/// malformed line.  The one line parser every source shares: it works on
/// views into the line and allocates nothing unless it throws.
std::optional<Event> parse_history_line(std::string_view line, size_t lineno);

/// Incremental, line-at-a-time history reader — the io front end of the
/// multi-session service: `selin_check <object> f1 f2 ...` interleaves
/// reads from many files through one of these per file, feeding each batch
/// to its session without ever materializing a whole history.
/// parse_history and parse_history_string are this reader run to the end,
/// so every source goes through the same line parser and the same
/// well-formedness check.
///
/// Well-formedness is enforced *incrementally* with the same rules
/// well_formed() applies to complete histories (no overlapping operations
/// per process, no duplicate op ids, responses match their pending
/// invocation), so a violation surfaces at the offending line instead of at
/// end-of-stream.  The stream, or the text, must outlive the reader.
class HistoryStreamReader {
 public:
  explicit HistoryStreamReader(std::istream& in) : in_(&in) {}
  /// Reads the lines of `text` in place.
  explicit HistoryStreamReader(std::string_view text) : text_(text) {}

  /// Next event, or nullopt at end-of-stream.  Throws HistoryParseError on
  /// a malformed line or a well-formedness violation.
  std::optional<Event> next();

  /// Append up to `max` events to `out`; returns the number read (0 = end
  /// of stream).  The batched form sessions feed from.
  size_t read_batch(std::vector<Event>& out, size_t max);

  /// Lines consumed so far (= the line number of the last event returned).
  size_t line() const { return lineno_; }
  /// Events returned so far.
  size_t events() const { return count_; }

 private:
  /// Duplicate-op-id tracking in O(out-of-order degree) memory instead of
  /// O(total ops): seqs [0, contiguous) have all been seen; stragglers
  /// ahead of the contiguous prefix sit in `sparse` until the prefix
  /// absorbs them.  Monotone per-process seqs (what every selin producer
  /// emits) keep this at a single counter per process, so a multi-GB
  /// stream costs the reader O(processes), not O(events).
  struct SeenSeqs {
    uint32_t contiguous = 0;
    std::unordered_set<uint32_t> sparse;

    /// False iff `s` was already seen.
    bool insert(uint32_t s) {
      if (s < contiguous) return false;
      if (s > contiguous) return sparse.insert(s).second;
      ++contiguous;
      for (auto it = sparse.find(contiguous); it != sparse.end();
           it = sparse.find(contiguous)) {
        sparse.erase(it);
        ++contiguous;
      }
      return true;
    }
  };

  /// Everything the well-formedness check knows about one process, so an
  /// event costs one map lookup.
  struct ProcState {
    bool open = false;  // `pending` awaits its response
    OpDesc pending;
    SeenSeqs seen;
  };

  /// The next line of the source, without its '\n'; false at its end.
  bool next_line(std::string_view& line);
  /// Throws HistoryParseError if `e` breaks well-formedness.
  void check_well_formed(const Event& e);

  std::istream* in_ = nullptr;  // the stream source, or null for a text
  std::string_view text_;       // the text source's unread rest
  std::string linebuf_;         // the stream source's current line
  size_t lineno_ = 0;
  size_t count_ = 0;
  std::unordered_map<ProcId, ProcState> procs_;
};

/// Serializes a history in the format above (round-trips with parse).
void write_history(std::ostream& out, const History& h);
std::string history_to_string(const History& h);

/// Method-name spellings used by the format.
std::optional<Method> parse_method(std::string_view name);
bool method_takes_arg(Method m);

/// Parses `empty`/`ok`/`true`/`false`/`error` or a decimal integer with an
/// optional sign in the int64 range.
std::optional<Value> parse_value(std::string_view token);

}  // namespace selin
