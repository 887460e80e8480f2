// Unit tests for the backend-neutral connection state machine (rt::Conn)
// over a socketpair: framed round-trips, partial-write resume under a tiny
// send buffer, orderly-close detection, and — the reason this file exists —
// reader poisoning after stream corruption. The epoll reactor hosts exactly
// this object, so the poisoning / teardown contract is proved here on a
// socketpair rather than through the reactor.
#include "rt/conn.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "rt/socket.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace hpd::rt {
namespace {

/// A connected nonblocking socketpair, one Conn on each end.
struct ConnPair {
  Conn a;
  Conn b;

  ConnPair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      ADD_FAILURE() << "socketpair failed";
      return;
    }
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
    a.fd = Fd(fds[0]);
    b.fd = Fd(fds[1]);
  }
};

/// Collects every dispatched payload.
class CaptureSink final : public PayloadSink {
 public:
  void on_payload(Conn&, const std::vector<std::uint8_t>& payload) override {
    payloads.push_back(payload);
  }
  std::vector<std::vector<std::uint8_t>> payloads;
};

std::vector<std::uint8_t> payload_of(std::uint8_t kind, std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(kind + i);
  }
  return p;
}

TEST(Conn, FramedRoundTrip) {
  ConnPair cp;
  CaptureSink sink;
  std::array<std::uint8_t, 4096> scratch;

  const auto p1 = payload_of(1, 10);
  const auto p2 = payload_of(2, 300);
  cp.a.queue(wire::frame(p1));
  cp.a.queue(wire::frame(p2));
  ASSERT_EQ(cp.a.flush(), Conn::FlushStatus::kDrained);
  EXPECT_EQ(cp.a.backlog(), 0u);

  // Edge-triggered style: read until drained.
  while (cp.b.read_once(scratch, sink) == Conn::ReadStatus::kData) {
  }
  ASSERT_EQ(sink.payloads.size(), 2u);
  EXPECT_EQ(sink.payloads[0], p1);
  EXPECT_EQ(sink.payloads[1], p2);
  EXPECT_EQ(cp.b.read_once(scratch, sink), Conn::ReadStatus::kDrained);
}

TEST(Conn, HelloFrameDecodes) {
  const auto framed = hello_frame(/*self=*/3, /*cluster=*/8, /*epoch=*/5);
  wire::FrameReader r;
  r.feed(framed);
  const auto payload = r.next();
  ASSERT_TRUE(payload.has_value());
  ASSERT_GE(payload->size(), 5u);
  EXPECT_EQ((*payload)[0], kFrameHello);
  EXPECT_EQ((*payload)[1], kMagic[0]);
  EXPECT_EQ((*payload)[2], kMagic[1]);
  EXPECT_EQ((*payload)[3], kMagic[2]);
  EXPECT_EQ((*payload)[4], kMagic[3]);
  EXPECT_FALSE(r.next().has_value());  // exactly one frame
}

// Corruption poisons the reader permanently: the first bad CRC surfaces as
// kProtocolError, and so does every later read attempt — a framed stream
// that lost sync has no recoverable boundary, so the owner must drop the
// connection (the sender's session layer retransmits over a fresh one).
TEST(Conn, CorruptionPoisonsReaderPermanently) {
  ConnPair cp;
  CaptureSink sink;
  std::array<std::uint8_t, 4096> scratch;

  // One good frame, then one whose payload byte was flipped in transit
  // (CRC mismatch), then another good frame that must never be delivered.
  const auto good = payload_of(7, 20);
  std::vector<std::uint8_t> wire_bytes = wire::frame(good);
  std::vector<std::uint8_t> bad = wire::frame(payload_of(9, 20));
  bad[bad.size() / 2] ^= 0x40;
  wire_bytes.insert(wire_bytes.end(), bad.begin(), bad.end());
  const auto tail = wire::frame(payload_of(11, 20));
  wire_bytes.insert(wire_bytes.end(), tail.begin(), tail.end());

  cp.a.queue(wire_bytes);
  ASSERT_EQ(cp.a.flush(), Conn::FlushStatus::kDrained);

  Conn::ReadStatus st = Conn::ReadStatus::kData;
  while (st == Conn::ReadStatus::kData) {
    st = cp.b.read_once(scratch, sink);
  }
  EXPECT_EQ(st, Conn::ReadStatus::kProtocolError);
  // The good prefix was delivered before the corruption was hit.
  ASSERT_EQ(sink.payloads.size(), 1u);
  EXPECT_EQ(sink.payloads[0], good);
  EXPECT_TRUE(cp.b.reader.poisoned());

  // Poisoned is sticky: further reads keep failing even with fresh bytes
  // pending, and nothing more is ever dispatched.
  cp.a.queue(wire::frame(payload_of(13, 8)));
  ASSERT_EQ(cp.a.flush(), Conn::FlushStatus::kDrained);
  EXPECT_EQ(cp.b.read_once(scratch, sink), Conn::ReadStatus::kProtocolError);
  EXPECT_EQ(sink.payloads.size(), 1u);
}

// A malformed sink payload (wire::DecodeError from the protocol decoder)
// maps to kProtocolError exactly like reader corruption.
TEST(Conn, SinkDecodeErrorIsProtocolError) {
  class ThrowingSink final : public PayloadSink {
   public:
    void on_payload(Conn&, const std::vector<std::uint8_t>&) override {
      throw wire::DecodeError("malformed payload");
    }
  };
  ConnPair cp;
  ThrowingSink sink;
  std::array<std::uint8_t, 4096> scratch;

  cp.a.queue(wire::frame(payload_of(1, 4)));
  ASSERT_EQ(cp.a.flush(), Conn::FlushStatus::kDrained);
  EXPECT_EQ(cp.b.read_once(scratch, sink), Conn::ReadStatus::kProtocolError);
}

TEST(Conn, PartialWriteResumesAcrossFlushes) {
  ConnPair cp;
  // Shrink the kernel buffers so a modest burst actually blocks.
  const int small = 4096;
  ::setsockopt(cp.a.fd.get(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(cp.b.fd.get(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  const auto big = payload_of(5, 256 * 1024);
  cp.a.queue(wire::frame(big));
  // The first flush stalls against the full kernel buffer...
  ASSERT_EQ(cp.a.flush(), Conn::FlushStatus::kBlocked);
  EXPECT_GT(cp.a.backlog(), 0u);

  // ...and resumes exactly where it stopped as the receiver drains, until
  // the whole frame crossed intact.
  CaptureSink sink;
  std::array<std::uint8_t, 8192> scratch;
  for (int spins = 0; spins < 100000 && sink.payloads.empty(); ++spins) {
    (void)cp.b.read_once(scratch, sink);
    if (cp.a.backlog() > 0) {
      const auto st = cp.a.flush();
      ASSERT_NE(st, Conn::FlushStatus::kBroken);
    }
  }
  ASSERT_EQ(sink.payloads.size(), 1u);
  EXPECT_EQ(sink.payloads[0], big);
  EXPECT_EQ(cp.a.backlog(), 0u);
}

TEST(Conn, PeerCloseSurfacesAsClosed) {
  ConnPair cp;
  CaptureSink sink;
  std::array<std::uint8_t, 4096> scratch;

  cp.a.fd.reset();  // orderly close
  EXPECT_EQ(cp.b.read_once(scratch, sink), Conn::ReadStatus::kClosed);
  EXPECT_EQ(cp.b.drain_ignore(scratch), Conn::ReadStatus::kClosed);
}

// Send-only connections watch their fd just to notice the peer vanishing:
// drain_ignore discards inbound bytes and reports the close.
TEST(Conn, DrainIgnoreDiscardsAndDetectsClose) {
  ConnPair cp;
  std::array<std::uint8_t, 4096> scratch;

  cp.b.queue(wire::frame(payload_of(3, 64)));
  ASSERT_EQ(cp.b.flush(), Conn::FlushStatus::kDrained);
  EXPECT_EQ(cp.a.drain_ignore(scratch), Conn::ReadStatus::kData);
  while (cp.a.drain_ignore(scratch) == Conn::ReadStatus::kData) {
  }
  cp.b.fd.reset();
  Conn::ReadStatus st = cp.a.drain_ignore(scratch);
  while (st == Conn::ReadStatus::kData) {
    st = cp.a.drain_ignore(scratch);
  }
  EXPECT_EQ(st, Conn::ReadStatus::kClosed);
}

TEST(Conn, FlushOnBrokenPipeIsBroken) {
  ConnPair cp;
  cp.b.fd.reset();
  // Big enough that the kernel can't just absorb it into the dead socket's
  // buffer; MSG_NOSIGNAL in write_some keeps SIGPIPE away.
  cp.a.queue(payload_of(1, 64 * 1024));
  Conn::FlushStatus st = cp.a.flush();
  if (st != Conn::FlushStatus::kBroken) {
    st = cp.a.flush();  // second attempt observes the reset
  }
  EXPECT_EQ(st, Conn::FlushStatus::kBroken);
}

}  // namespace
}  // namespace hpd::rt
