// History text format: parsing, serialization, round-trips, error reporting.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "selin/io/history_io.hpp"
#include "selin/util/rng.hpp"
#include "test_util.hpp"

namespace selin {
namespace {

TEST(HistoryIo, ParsesBasicHistory) {
  History h = parse_history_string(
      "# a queue trace\n"
      "inv 0 0 Enqueue 5\n"
      "res 0 0 Enqueue 5 true\n"
      "inv 1 0 Dequeue\n"
      "res 1 0 Dequeue 5\n");
  ASSERT_EQ(h.size(), 4u);
  EXPECT_TRUE(h[0].is_inv());
  EXPECT_EQ(h[0].op.method, Method::kEnqueue);
  EXPECT_EQ(h[0].op.arg, 5);
  EXPECT_EQ(h[3].result, 5);
}

TEST(HistoryIo, SymbolicValues) {
  History h = parse_history_string(
      "inv 0 0 Dequeue\n"
      "res 0 0 Dequeue empty\n"
      "inv 0 1 Write 3\n"
      "res 0 1 Write 3 ok\n");
  EXPECT_EQ(h[1].result, kEmpty);
  EXPECT_EQ(h[3].result, kOk);
}

TEST(HistoryIo, CommentsAndBlankLines) {
  History h = parse_history_string(
      "\n# nothing\n  \n"
      "inv 2 7 Inc   # trailing comment\n"
      "res 2 7 Inc 1\n");
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].op.id.pid, 2u);
  EXPECT_EQ(h[0].op.id.seq, 7u);
}

TEST(HistoryIo, RoundTripsRandomHistories) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (ObjectKind kind : {ObjectKind::kQueue, ObjectKind::kStack,
                            ObjectKind::kRegister, ObjectKind::kCounter}) {
      History h = test::random_linearizable_history(kind, 3, 12, seed);
      History back = parse_history_string(history_to_string(h));
      ASSERT_EQ(back.size(), h.size());
      for (size_t i = 0; i < h.size(); ++i) {
        EXPECT_TRUE(back[i] == h[i]) << i;
      }
    }
  }
}

TEST(HistoryIo, ErrorsCarryLineNumbers) {
  try {
    parse_history_string("inv 0 0 Enqueue 1\nbogus line here\n");
    FAIL() << "expected parse error";
  } catch (const HistoryParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(HistoryIo, RejectsBadMethod) {
  EXPECT_THROW(parse_history_string("inv 0 0 Frobnicate 1\n"),
               HistoryParseError);
}

TEST(HistoryIo, RejectsMissingArgument) {
  EXPECT_THROW(parse_history_string("inv 0 0 Enqueue\n"), HistoryParseError);
}

TEST(HistoryIo, RejectsTrailingTokens) {
  EXPECT_THROW(parse_history_string("inv 0 0 Dequeue 5 extra\n"),
               HistoryParseError);
}

TEST(HistoryIo, RejectsResponseWithoutResult) {
  EXPECT_THROW(parse_history_string("inv 0 0 Dequeue\nres 0 0 Dequeue\n"),
               HistoryParseError);
}

TEST(HistoryIo, RejectsPidAndSeqThatAreNotPlainDecimals) {
  // A narrowing std::stoul once read these as pid 0, pid 4294967295, seq 7
  // and pid 3, merging processes of the trace.
  for (const char* bad : {"inv 4294967296 0 Dequeue", "inv -1 0 Dequeue",
                          "inv 0 7abc Dequeue", "inv +3 0 Dequeue"}) {
    try {
      parse_history_string(std::string("inv 5 0 Dequeue\n") + bad + "\n");
      FAIL() << "accepted: " << bad;
    } catch (const HistoryParseError& e) {
      EXPECT_EQ(e.line(), 2u) << bad;
      EXPECT_NE(std::string(e.what()).find("bad pid/seq"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
  const History h = parse_history_string("inv 4294967295 4294967295 Inc\n");
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].op.id.pid, 4294967295u);
  EXPECT_EQ(h[0].op.id.seq, 4294967295u);
}

TEST(HistoryIo, ValuesTakeASignAndTheInt64Range) {
  const History h = parse_history_string(
      "inv 0 0 Write +5\nres 0 0 Write +5 ok\n"
      "inv 0 1 Write -9223372036854775807\n"
      "res 0 1 Write -9223372036854775807 ok\n"
      "inv 0 2 Write 9223372036854775807\n");
  ASSERT_EQ(h.size(), 5u);
  EXPECT_EQ(h[0].op.arg, 5);
  EXPECT_EQ(h[2].op.arg, std::numeric_limits<Value>::min() + 1);
  EXPECT_EQ(h[4].op.arg, std::numeric_limits<Value>::max());
  for (const char* bad : {"+-5", "-+5", "+", "-", "5x", "9223372036854775808",
                          "-9223372036854775809", "0x10", "True"}) {
    EXPECT_FALSE(parse_value(bad).has_value()) << bad;
    EXPECT_THROW(
        parse_history_string(std::string("inv 0 0 Write ") + bad + "\n"),
        HistoryParseError)
        << bad;
  }
}

TEST(HistoryIo, RejectsMalformedHistory) {
  // Well-formedness is validated after parsing: response with no invocation.
  EXPECT_THROW(parse_history_string("res 0 0 Dequeue empty\n"),
               HistoryParseError);
}

TEST(HistoryStream, ReadsEventsIncrementally) {
  std::istringstream in(
      "# trace\n"
      "inv 0 0 Enqueue 5\n"
      "\n"
      "res 0 0 Enqueue 5 true\n"
      "inv 1 0 Dequeue\n"
      "res 1 0 Dequeue 5\n");
  HistoryStreamReader r(in);
  std::optional<Event> e = r.next();
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->is_inv());
  EXPECT_EQ(r.line(), 2u);  // comment line consumed, event on line 2
  size_t n = 1;
  while ((e = r.next()).has_value()) ++n;
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(r.events(), 4u);
  EXPECT_FALSE(r.next().has_value());  // sticky EOF
}

TEST(HistoryStream, ReadBatchChunksTheStream) {
  History h = test::random_linearizable_history(ObjectKind::kQueue, 3, 20, 9);
  std::istringstream in(history_to_string(h));
  HistoryStreamReader r(in);
  std::vector<Event> got;
  size_t n;
  while ((n = r.read_batch(got, 7)) > 0) {
    EXPECT_LE(n, 7u);
  }
  ASSERT_EQ(got.size(), h.size());
  for (size_t i = 0; i < h.size(); ++i) EXPECT_TRUE(got[i] == h[i]) << i;
}

TEST(HistoryStream, WellFormednessViolationsSurfaceAtTheLine) {
  // Response without a pending invocation: caught at line 1, not at EOF.
  {
    std::istringstream in("res 0 0 Dequeue empty\n");
    HistoryStreamReader r(in);
    try {
      r.next();
      FAIL() << "expected well-formedness error";
    } catch (const HistoryParseError& e) {
      EXPECT_EQ(e.line(), 1u);
    }
  }
  // Overlapping invocations by one process: caught at the second inv.
  {
    std::istringstream in("inv 0 0 Dequeue\ninv 0 1 Dequeue\n");
    HistoryStreamReader r(in);
    EXPECT_TRUE(r.next().has_value());
    EXPECT_THROW(r.next(), HistoryParseError);
  }
  // Duplicate op id (same pid.seq re-invoked after completing).
  {
    std::istringstream in(
        "inv 0 0 Dequeue\nres 0 0 Dequeue empty\ninv 0 0 Dequeue\n");
    HistoryStreamReader r(in);
    EXPECT_TRUE(r.next().has_value());
    EXPECT_TRUE(r.next().has_value());
    EXPECT_THROW(r.next(), HistoryParseError);
  }
  // Response not matching the pending invocation's descriptor.
  {
    std::istringstream in("inv 0 0 Enqueue 5\nres 0 0 Enqueue 6 true\n");
    HistoryStreamReader r(in);
    EXPECT_TRUE(r.next().has_value());
    EXPECT_THROW(r.next(), HistoryParseError);
  }
  // Out-of-order per-process seqs are legal; re-using one is not — the
  // duplicate check must catch both sides of the contiguous prefix.
  {
    std::istringstream in(
        "inv 0 5 Dequeue\nres 0 5 Dequeue empty\n"
        "inv 0 0 Dequeue\nres 0 0 Dequeue empty\n"
        "inv 0 5 Dequeue\n");
    HistoryStreamReader r(in);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.next().has_value()) << i;
    EXPECT_THROW(r.next(), HistoryParseError);
  }
  {
    std::istringstream in(
        "inv 0 0 Dequeue\nres 0 0 Dequeue empty\ninv 0 1 Dequeue\n"
        "res 0 1 Dequeue empty\ninv 0 0 Dequeue\n");
    HistoryStreamReader r(in);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.next().has_value()) << i;
    EXPECT_THROW(r.next(), HistoryParseError);
  }
}

TEST(HistoryStream, AgreesWithParseHistoryOnRandomTraces) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    History h =
        test::random_linearizable_history(ObjectKind::kStack, 3, 15, seed);
    std::string text = history_to_string(h);
    History parsed = parse_history_string(text);
    std::istringstream in(text);
    HistoryStreamReader r(in);
    History streamed;
    while (auto e = r.next()) streamed.push_back(*e);
    ASSERT_EQ(streamed.size(), parsed.size());
    for (size_t i = 0; i < parsed.size(); ++i) {
      EXPECT_TRUE(streamed[i] == parsed[i]) << i;
    }
  }
}

TEST(HistoryIo, CertificateExportImportAudit) {
  // End-to-end forensic flow: run a faulty impl under self-enforcement,
  // export the certificate as text, re-import, and convict offline.
  auto impl = make_thm51_queue(0);
  auto obj = make_linearizable_object(make_queue_spec());
  SelfEnforced se(2, *impl, *obj);
  (void)se.apply(0, Method::kDequeue);  // the lie
  std::string exported = history_to_string(se.certificate(0));
  History reimported = parse_history_string(exported);
  EXPECT_FALSE(obj->contains(reimported));
}

// ---- one parser, three sources ---------------------------------------------

const ObjectKind kKinds[] = {
    ObjectKind::kQueue,  ObjectKind::kStack,    ObjectKind::kSet,
    ObjectKind::kPqueue, ObjectKind::kCounter,  ObjectKind::kRegister,
    ObjectKind::kConsensus,
};

/// What one source made of a text: its events, or the line it rejected.
/// Exceptions other than HistoryParseError escape and fail the test.
struct Parsed {
  History events;
  std::optional<size_t> error_line;
};

template <class ReadAll>
Parsed read_with(ReadAll&& read_all) {
  Parsed p;
  try {
    read_all(p.events);
  } catch (const HistoryParseError& e) {
    p.error_line = e.line();
  }
  return p;
}

/// The text through parse_history_string, parse_history over a stream, and
/// HistoryStreamReader::read_batch at chunk sizes 1, 7 and all.
std::vector<Parsed> parse_every_way(const std::string& text) {
  std::vector<Parsed> out;
  out.push_back(read_with([&](History& h) { h = parse_history_string(text); }));
  out.push_back(read_with([&](History& h) {
    std::istringstream in(text);
    h = parse_history(in);
  }));
  for (size_t chunk :
       {size_t{1}, size_t{7}, std::numeric_limits<size_t>::max()}) {
    out.push_back(read_with([&](History& h) {
      std::istringstream in(text);
      HistoryStreamReader r(in);
      while (r.read_batch(h, chunk) > 0) {
      }
    }));
  }
  return out;
}

/// Every source gives the same events, or rejects the same line.
Parsed expect_sources_agree(const std::string& text) {
  std::vector<Parsed> got = parse_every_way(text);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[i].error_line, got[0].error_line) << "source " << i;
    if (!got[0].error_line && !got[i].error_line) {
      EXPECT_TRUE(got[i].events == got[0].events) << "source " << i;
    }
  }
  return std::move(got[0]);
}

/// A history as lines of tokens, with randomized formatting that must not
/// change what parses: tabs and runs of spaces between tokens, leading
/// whitespace, trailing '#' comments, blank and comment-only lines.  Line
/// endings (CRLF or LF) and the final newline are chosen by join().
struct Text {
  std::vector<std::vector<std::string>> tokens;  // per event
  std::vector<size_t> event_line;                // event i is lines[...]
  std::vector<std::string> lines;

  Text(const History& h, Rng& rng) {
    std::istringstream in(history_to_string(h));
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream words(line);
      std::vector<std::string> tok;
      std::string w;
      while (words >> w) tok.push_back(w);
      if (rng.chance(1, 8)) lines.push_back(rng.chance(1, 2) ? "" : " # note");
      event_line.push_back(lines.size());
      lines.push_back(spaced(tok, rng));
      tokens.push_back(std::move(tok));
    }
  }

  static std::string spaced(const std::vector<std::string>& tok, Rng& rng) {
    static const char* const kSeps[] = {" ", "\t", "   ", " \t "};
    std::string s = rng.chance(1, 4) ? "\t" : "";
    for (size_t i = 0; i < tok.size(); ++i) {
      if (i > 0) s += kSeps[rng.below(std::size(kSeps))];
      s += tok[i];
    }
    if (rng.chance(1, 4)) s += rng.chance(1, 2) ? "  # trailing" : "#x";
    return s;
  }

  std::string join(Rng& rng) const {
    std::string s;
    for (size_t i = 0; i < lines.size(); ++i) {
      s += lines[i];
      if (i + 1 < lines.size() || rng.chance(1, 2)) {
        s += rng.chance(1, 3) ? "\r\n" : "\n";
      }
    }
    return s;
  }
};

TEST(HistorySources, AgreeOnEventsAcrossFormatVariants) {
  for (size_t k = 0; k < std::size(kKinds); ++k) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(object_kind_name(kKinds[k])) + " seed " +
                   std::to_string(seed));
      const History h =
          test::random_linearizable_history(kKinds[k], 3, 25, 40 * seed + k);
      Rng rng(seed * 1009 + k);
      const Text t(h, rng);
      for (const Parsed& p : parse_every_way(t.join(rng))) {
        ASSERT_FALSE(p.error_line.has_value()) << "line " << *p.error_line;
        EXPECT_TRUE(p.events == h);
      }
    }
  }
}

enum class Corruption {
  kUnknownMethod,
  kMissingArgument,
  kExtraToken,
  kNineTokens,
  kBadPid,
  kResponseWithoutInvocation,
  kDuplicateOpId,
  kOverlappingInvocation,
};

/// Breaks `t` at a seeded event and returns the (1-based) line every source
/// must reject.
size_t corrupt(Text& t, const History& h, Corruption c, Rng& rng) {
  // Duplicates follow a response (the process is idle and its seq used);
  // overlaps follow an invocation (the process is busy).
  size_t i = rng.below(h.size());
  const bool want_inv = c == Corruption::kOverlappingInvocation;
  if (want_inv || c == Corruption::kDuplicateOpId) {
    while (h[i].is_inv() != want_inv) i = (i + 1) % h.size();
  }
  const size_t at = t.event_line[i];
  std::vector<std::string> tok = t.tokens[i];
  const std::string pid_seq = tok[1] + " " + tok[2];
  switch (c) {
    case Corruption::kUnknownMethod:
      tok[3] = "Frobnicate";
      break;
    case Corruption::kMissingArgument:
      tok.resize(3);
      tok.push_back("Enqueue");
      break;
    case Corruption::kExtraToken:
      tok.push_back("extra");
      break;
    case Corruption::kNineTokens:
      while (tok.size() < 9) tok.push_back("9");
      break;
    case Corruption::kBadPid: {
      static const char* const kBad[] = {"4294967296", "-1", "7abc", "+3"};
      tok[1] = kBad[rng.below(std::size(kBad))];
      break;
    }
    case Corruption::kResponseWithoutInvocation:
      t.lines.insert(t.lines.begin() + static_cast<long>(at),
                     "res 999 0 Dequeue empty");
      return at + 1;
    case Corruption::kDuplicateOpId:
      t.lines.insert(t.lines.begin() + static_cast<long>(at + 1),
                     "inv " + pid_seq + " Dequeue");
      return at + 2;
    case Corruption::kOverlappingInvocation:
      t.lines.insert(t.lines.begin() + static_cast<long>(at + 1),
                     "inv " + tok[1] + " 100000 Dequeue");
      return at + 2;
  }
  t.lines[at] = Text::spaced(tok, rng);
  return at + 1;
}

TEST(HistorySources, RejectTheSameLine) {
  for (size_t k = 0; k < std::size(kKinds); ++k) {
    for (int c = 0; c <= static_cast<int>(Corruption::kOverlappingInvocation);
         ++c) {
      for (uint64_t seed = 1; seed <= 2; ++seed) {
        SCOPED_TRACE(std::string(object_kind_name(kKinds[k])) +
                     " corruption " + std::to_string(c) + " seed " +
                     std::to_string(seed));
        const History h =
            test::random_linearizable_history(kKinds[k], 3, 20, 70 * seed + k);
        Rng rng(seed * 7919 + 31 * k + static_cast<uint64_t>(c));
        Text t(h, rng);
        const size_t bad = corrupt(t, h, static_cast<Corruption>(c), rng);
        for (const Parsed& p : parse_every_way(t.join(rng))) {
          EXPECT_EQ(p.error_line, std::optional<size_t>(bad));
        }
      }
    }
  }
}

// ---- text fuzz -------------------------------------------------------------
//
// Shredded history text either parses or is rejected with HistoryParseError
// -- no other exception, no crash, no out-of-bounds token -- and every source
// agrees on which.  What parses re-serializes and re-parses to the same
// events.  The assertions are mild; the real judge is the ASan/UBSan CI leg
// running these at raised SELIN_FUZZ_ROUNDS.

using test::fuzz_rounds;

void check_fuzzed(const std::string& text) {
  const Parsed p = expect_sources_agree(text);
  if (p.error_line) return;
  EXPECT_TRUE(parse_history_string(history_to_string(p.events)) == p.events);
}

/// A seeded, formatted history text of a random kind.
std::string fuzz_seed_text(Rng& rng, size_t ops) {
  const History h = test::random_linearizable_history(
      kKinds[rng.below(std::size(kKinds))], 2 + rng.below(3), ops, rng.next());
  return Text(h, rng).join(rng);
}

TEST(TextFuzz, ByteFlips) {
  const size_t rounds = 64 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    Rng rng(0x7E47 + round * 7919);
    std::string text = fuzz_seed_text(rng, 10 + rng.below(30));
    const size_t flips = 1 + rng.below(4);
    for (size_t f = 0; f < flips && !text.empty(); ++f) {
      text[rng.below(text.size())] = static_cast<char>(rng.below(256));
    }
    check_fuzzed(text);
  }
}

TEST(TextFuzz, TruncationAtEveryOffset) {
  const size_t rounds = 2 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    Rng rng(0x7E47C + round * 7919);
    const std::string text = fuzz_seed_text(rng, 6);
    for (size_t len = 0; len <= text.size(); ++len) {
      check_fuzzed(text.substr(0, len));
    }
  }
}

TEST(TextFuzz, DuplicatedAndDeletedTokens) {
  const size_t rounds = 64 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    Rng rng(0xD0B + round * 7919);
    const History h = test::random_linearizable_history(
        kKinds[rng.below(std::size(kKinds))], 3, 12, rng.next());
    Text t(h, rng);
    const size_t edits = 1 + rng.below(3);
    for (size_t e = 0; e < edits; ++e) {
      const size_t i = rng.below(t.tokens.size());
      std::vector<std::string> tok = t.tokens[i];
      const size_t j = rng.below(tok.size());
      if (rng.chance(1, 2)) {
        tok.insert(tok.begin() + static_cast<long>(j), tok[j]);
      } else {
        tok.erase(tok.begin() + static_cast<long>(j));
      }
      t.lines[t.event_line[i]] = Text::spaced(tok, rng);
    }
    check_fuzzed(t.join(rng));
  }
}

TEST(TextFuzz, LongLinesAndHugeTokens) {
  const size_t rounds = 8 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    Rng rng(0x10A6 + round * 7919);
    const History h = test::random_linearizable_history(
        kKinds[rng.below(std::size(kKinds))], 2, 8, rng.next());
    Text t(h, rng);
    const size_t i = rng.below(t.tokens.size());
    std::vector<std::string> tok = t.tokens[i];
    if (rng.chance(1, 2)) {
      // 100+ tokens: words, numbers and symbolic values past the array.
      static const char* const kWords[] = {"7", "-1", "ok", "Dequeue", "x"};
      const size_t extra = 100 + rng.below(100);
      for (size_t n = 0; n < extra; ++n) {
        tok.insert(tok.begin() + static_cast<long>(rng.below(tok.size() + 1)),
                   kWords[rng.below(std::size(kWords))]);
      }
    } else {
      // One 10,000-character token in any position: digits (an overlong
      // pid, seq or value), letters (an overlong keyword or method), or
      // characters that look like a sign and separators.
      static const char kFill[] = {'9', 'Q', '-', '+', '#'};
      const std::string huge(10000, kFill[rng.below(std::size(kFill))]);
      tok[rng.below(tok.size())] = huge;
    }
    t.lines[t.event_line[i]] = Text::spaced(tok, rng);
    check_fuzzed(t.join(rng));
  }
}

}  // namespace
}  // namespace selin
