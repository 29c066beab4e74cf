// Randomized shredding of the binary wire protocol (src/selin/net/wire.hpp).
//
// Three invariant families:
//
//   * Round-trip against the text-parser oracle: a random well-formed
//     history encoded as a kEvents frame and decoded back must equal both
//     the original AND the history recovered through the *text* pipeline
//     (history_to_string -> parse_history_string) — two independent
//     serializations agreeing on every event.
//
//   * Canonical form: any record that decodes re-encodes to the identical
//     bytes, so corrupt input either fails validation or lands on a real
//     event — never on a third state.
//
//   * No UB on garbage: truncated prefixes report kNeedMore (never a bogus
//     frame), oversized/corrupt headers report kBad, random byte soup and
//     random typed-body parses terminate cleanly.  The assertions are mild;
//     the real judge is the ASan/UBSan and TSan CI legs running this binary
//     at raised SELIN_FUZZ_ROUNDS.
//
// Round counts scale with SELIN_FUZZ_ROUNDS (default 1), the repo-wide fuzz
// idiom: plain ctest is a fast smoke, the CI fuzz legs raise it.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "selin/io/history_io.hpp"
#include "selin/net/wire.hpp"
#include "selin/util/rng.hpp"
#include "test_util.hpp"

namespace selin::net {
namespace {

using selin::test::fuzz_rounds;

bool events_equal(const Event& a, const Event& b) {
  return a.kind == b.kind && a.op == b.op && a.result == b.result;
}

const ObjectKind kKinds[] = {
    ObjectKind::kQueue,  ObjectKind::kStack,    ObjectKind::kSet,
    ObjectKind::kPqueue, ObjectKind::kCounter,  ObjectKind::kRegister,
    ObjectKind::kConsensus,
};

// ---- round-trip vs the text parser oracle ----------------------------------

TEST(WireFuzz, EventsRoundTripAgainstTextOracle) {
  const size_t rounds = 8 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    Rng rng(0x3317E0 + round * 7919);
    const ObjectKind kind = kKinds[rng.below(std::size(kKinds))];
    const History h = test::random_linearizable_history(
        kind, 2 + rng.below(4), 20 + rng.below(60), 0xFACE + round);

    // Binary round-trip.
    std::vector<uint8_t> wire;
    append_events(wire, /*session=*/7, /*seq=*/round, h);
    FrameView f;
    ASSERT_EQ(peek_frame(wire, f), DecodeStatus::kFrame);
    ASSERT_EQ(f.header.type, FrameType::kEvents);
    ASSERT_EQ(f.frame_len, wire.size());
    std::vector<Event> decoded;
    ASSERT_TRUE(decode_events(f.body, decoded));
    ASSERT_EQ(decoded.size(), h.size());

    // Text round-trip of the same history: the independent oracle.
    const History via_text = parse_history_string(history_to_string(h));
    ASSERT_EQ(via_text.size(), h.size());

    for (size_t i = 0; i < h.size(); ++i) {
      ASSERT_TRUE(events_equal(decoded[i], h[i])) << "wire mangled event " << i;
      ASSERT_TRUE(events_equal(decoded[i], via_text[i]))
          << "wire and text disagree at event " << i;
    }

    // Canonical form: re-encoding the decoded events reproduces the body.
    std::vector<uint8_t> rewire;
    append_events(rewire, 7, round, decoded);
    ASSERT_EQ(rewire, wire) << "decode/encode is not canonical";
  }
}

// Sentinel and extreme values survive the binary path (the text format is
// not expected to carry arbitrary int64s, so no oracle here).
TEST(WireFuzz, SentinelAndExtremeValuesRoundTrip) {
  const Value specials[] = {kEmpty,  kOk,     kError, kNoArg, 0, -1,
                            kTrue,   kFalse,  std::numeric_limits<Value>::max(),
                            std::numeric_limits<Value>::min() + 4};
  std::vector<Event> ev;
  uint32_t seq = 0;
  for (Value a : specials) {
    for (Value r : specials) {
      const OpDesc d{OpId{3, seq++}, Method::kWriteSnap, a};
      ev.push_back(Event::inv(d));
      ev.push_back(Event::res(d, r));
    }
  }
  std::vector<uint8_t> wire;
  append_events(wire, 1, 0, ev);
  FrameView f;
  ASSERT_EQ(peek_frame(wire, f), DecodeStatus::kFrame);
  std::vector<Event> decoded;
  ASSERT_TRUE(decode_events(f.body, decoded));
  ASSERT_EQ(decoded.size(), ev.size());
  for (size_t i = 0; i < ev.size(); ++i) {
    ASSERT_TRUE(events_equal(decoded[i], ev[i])) << i;
  }
}

// ---- typed control-frame bodies --------------------------------------------

TEST(WireFuzz, ControlFramesRoundTrip) {
  const size_t rounds = 16 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    Rng rng(0xC0DE + round);
    std::vector<uint8_t> w;
    FrameView f;

    const uint32_t sid = static_cast<uint32_t>(rng.next());
    {
      std::string name(rng.below(40), 'x');
      for (auto& ch : name) ch = static_cast<char>('a' + rng.below(26));
      const uint8_t kind = static_cast<uint8_t>(rng.below(7));
      w.clear();
      append_hello(w, kind, name);
      ASSERT_EQ(peek_frame(w, f), DecodeStatus::kFrame);
      HelloBody hb;
      ASSERT_TRUE(parse_hello(f.body, hb));
      EXPECT_EQ(hb.object_kind, kind);
      EXPECT_EQ(hb.name, name);
    }
    {
      const uint32_t cap = static_cast<uint32_t>(rng.next());
      const uint32_t batch = static_cast<uint32_t>(rng.next());
      w.clear();
      append_hello_ack(w, sid, cap, batch);
      ASSERT_EQ(peek_frame(w, f), DecodeStatus::kFrame);
      HelloAckBody ab;
      ASSERT_TRUE(parse_hello_ack(f.body, ab));
      EXPECT_EQ(ab.session, sid);
      EXPECT_EQ(ab.inbox_capacity, cap);
      EXPECT_EQ(ab.max_batch, batch);
    }
    {
      const uint32_t exp = static_cast<uint32_t>(rng.next());
      const uint32_t us = static_cast<uint32_t>(rng.next());
      w.clear();
      append_throttle(w, sid, exp + 1, exp, us);
      ASSERT_EQ(peek_frame(w, f), DecodeStatus::kFrame);
      ASSERT_EQ(f.header.type, FrameType::kThrottle);
      ThrottleBody tb;
      ASSERT_TRUE(parse_throttle(f.body, tb));
      EXPECT_EQ(tb.expected_seq, exp);
      EXPECT_EQ(tb.retry_after_us, us);
    }
    {
      const uint64_t fed = rng.next();
      const uint64_t bad = rng.next();
      const auto st = static_cast<WireStatus>(rng.below(3));
      w.clear();
      append_verdict(w, sid, kFlagFinal, st, fed, bad);
      ASSERT_EQ(peek_frame(w, f), DecodeStatus::kFrame);
      EXPECT_EQ(f.header.flags & kFlagFinal, kFlagFinal);
      VerdictBody vb;
      ASSERT_TRUE(parse_verdict(f.body, vb));
      EXPECT_EQ(vb.status, st);
      EXPECT_EQ(vb.events_fed, fed);
      EXPECT_EQ(vb.first_bad, bad);
    }
  }
}

// ---- truncation ------------------------------------------------------------

// Every strict prefix of a valid frame is kNeedMore — never a frame, never
// kBad (the stream is merely incomplete, and the reactor must keep it).
TEST(WireFuzz, TruncatedPrefixesNeedMore) {
  const History h =
      test::random_linearizable_history(ObjectKind::kQueue, 3, 30, 0xBEEF);
  std::vector<uint8_t> wire;
  append_events(wire, 9, 0, h);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameView f;
    ASSERT_EQ(peek_frame({wire.data(), cut}, f), DecodeStatus::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
  FrameView f;
  ASSERT_EQ(peek_frame(wire, f), DecodeStatus::kFrame);
}

// ---- hostile headers -------------------------------------------------------

TEST(WireFuzz, HostileHeadersRejected) {
  const auto mk = [](uint32_t magic, uint8_t ver, uint8_t type,
                     uint32_t body_len) {
    std::vector<uint8_t> b(kHeaderBytes, 0);
    put_u32(b.data(), magic);
    b[4] = ver;
    b[5] = type;
    put_u32(b.data() + 16, body_len);
    return b;
  };
  FrameView f;
  // Bad magic fails even on a short prefix (fast-fail beats kNeedMore).
  EXPECT_EQ(peek_frame(mk(0xDEADBEEF, kWireVersion, 3, 0), f),
            DecodeStatus::kBad);
  EXPECT_EQ(peek_frame(mk(kWireMagic, kWireVersion + 1, 3, 0), f),
            DecodeStatus::kBad);
  EXPECT_EQ(peek_frame(mk(kWireMagic, kWireVersion, 0, 0), f),
            DecodeStatus::kBad);
  EXPECT_EQ(peek_frame(mk(kWireMagic, kWireVersion, kMaxFrameType + 1, 0), f),
            DecodeStatus::kBad);
  // Oversized body: rejected outright — a hostile body_len must not make
  // the reactor buffer gigabytes waiting for kNeedMore to resolve.
  EXPECT_EQ(peek_frame(mk(kWireMagic, kWireVersion, 3, kMaxBody + 1), f),
            DecodeStatus::kBad);
  // Exactly kMaxBody is legal, merely incomplete here.
  EXPECT_EQ(peek_frame(mk(kWireMagic, kWireVersion, 3, kMaxBody), f),
            DecodeStatus::kNeedMore);
}

// ---- corruption ------------------------------------------------------------

// Single-byte corruption of a valid kEvents frame: every outcome is
// acceptable except an invalid decode or a non-canonical one.
TEST(WireFuzz, SingleByteCorruptionNeverConfuses) {
  const size_t rounds = 8 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    Rng rng(0xBADF00D + round);
    const History h = test::random_linearizable_history(
        ObjectKind::kSet, 2 + rng.below(3), 10 + rng.below(30),
        0x5EED + round);
    std::vector<uint8_t> wire;
    append_events(wire, 5, 0, h);

    for (size_t trial = 0; trial < 200; ++trial) {
      std::vector<uint8_t> dirty = wire;
      const size_t pos = rng.below(dirty.size());
      const uint8_t flip = static_cast<uint8_t>(1 + rng.below(255));
      dirty[pos] ^= flip;

      FrameView f;
      std::string why;
      const DecodeStatus st = peek_frame(dirty, f, &why);
      if (st != DecodeStatus::kFrame) continue;  // rejected: fine
      std::vector<Event> decoded;
      if (!decode_events(f.body, decoded)) continue;  // invalid record: fine
      // The corruption landed on a semantically valid frame (e.g. flipped a
      // value byte).  Then canonical form must hold exactly.
      std::vector<uint8_t> rewire;
      append_events(rewire, f.header.session, f.header.seq, decoded);
      ASSERT_EQ(rewire.size(), f.frame_len);
      ASSERT_EQ(std::memcmp(rewire.data() + kHeaderBytes,
                            f.body.data(), f.body.size()),
                0)
          << "decoded corrupt record re-encodes differently (byte " << pos
          << " ^ " << int(flip) << ")";
    }
  }
}

// Random byte soup: peek_frame and every typed-body parser must terminate
// cleanly on arbitrary input (the sanitizer legs make "cleanly" rigorous).
TEST(WireFuzz, RandomGarbageTerminates) {
  const size_t rounds = 64 * fuzz_rounds();
  for (size_t round = 0; round < rounds; ++round) {
    Rng rng(0xA11FEED + round);
    std::vector<uint8_t> soup(rng.below(3 * kHeaderBytes));
    for (auto& b : soup) b = static_cast<uint8_t>(rng.next());
    // Half the rounds, plant the real magic so parsing gets past the
    // fast-fail and into header/body validation.
    if (soup.size() >= 4 && rng.chance(1, 2)) put_u32(soup.data(), kWireMagic);

    FrameView f;
    (void)peek_frame(soup, f);

    HelloBody hb;
    (void)parse_hello(soup, hb);
    HelloAckBody ab;
    (void)parse_hello_ack(soup, ab);
    ThrottleBody tb;
    (void)parse_throttle(soup, tb);
    VerdictBody vb;
    (void)parse_verdict(soup, vb);
    std::vector<Event> ev;
    (void)decode_events(soup, ev);
    Event e;
    if (soup.size() >= kEventRecBytes) (void)get_event(soup.data(), e);
  }
}

// A kEvents body whose length is not a whole number of records is invalid,
// as is any record with out-of-range enums or nonzero reserved bytes.
TEST(WireFuzz, NonCanonicalRecordsRejected) {
  const History h =
      test::random_linearizable_history(ObjectKind::kStack, 2, 10, 0xD00D);
  std::vector<uint8_t> wire;
  append_events(wire, 1, 0, h);
  FrameView f;
  ASSERT_EQ(peek_frame(wire, f), DecodeStatus::kFrame);

  std::vector<Event> out;
  // Ragged length.
  ASSERT_FALSE(decode_events(f.body.subspan(0, f.body.size() - 1), out));

  std::vector<uint8_t> body(f.body.begin(), f.body.end());
  body[0] = 2;  // kind out of range
  ASSERT_FALSE(decode_events(body, out));
  body[0] = 0;
  body[1] = 255;  // method out of range
  ASSERT_FALSE(decode_events(body, out));
  body[1] = 0;
  body[2] = 1;  // reserved byte nonzero
  ASSERT_FALSE(decode_events(body, out));
  body[2] = 0;
  ASSERT_TRUE(decode_events(body, out)) << "restored body must decode again";
}

}  // namespace
}  // namespace selin::net
