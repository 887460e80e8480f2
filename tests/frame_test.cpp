// wire/frame: varint-length + CRC32C framing over a byte stream.
#include "wire/frame.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace hpd::wire {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> out;
  for (int v : vals) {
    out.push_back(static_cast<std::uint8_t>(v));
  }
  return out;
}

TEST(FrameCrc, KnownVector) {
  // The canonical CRC-32C check value: crc32c("123456789") = 0xE3069283.
  const std::string s = "123456789";
  std::vector<std::uint8_t> b(s.begin(), s.end());
  EXPECT_EQ(crc32c(b), 0xE3069283u);
}

TEST(FrameCrc, EmptyIsZero) {
  EXPECT_EQ(crc32c(std::span<const std::uint8_t>{}), 0u);
}

TEST(FrameRoundTrip, SingleFrame) {
  const auto payload = bytes_of({1, 2, 3, 250, 0, 7});
  const auto f = frame(payload);
  FrameReader r;
  r.feed(f);
  const auto got = r.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(r.next(), std::nullopt);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(FrameRoundTrip, EmptyPayload) {
  const auto f = frame(std::span<const std::uint8_t>{});
  FrameReader r;
  r.feed(f);
  const auto got = r.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(FrameRoundTrip, ManyConcatenatedFrames) {
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> payloads;
  Rng rng(7);
  for (int k = 0; k < 100; ++k) {
    std::vector<std::uint8_t> p(
        static_cast<std::size_t>(rng.uniform_int(0, 300)));
    for (auto& b : p) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    append_frame(stream, p);
    payloads.push_back(std::move(p));
  }
  FrameReader r;
  r.feed(stream);
  for (const auto& expect : payloads) {
    const auto got = r.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expect);
  }
  EXPECT_EQ(r.next(), std::nullopt);
}

TEST(FrameRoundTrip, ArbitraryChunking) {
  // Deliver the same stream one byte at a time; boundaries must not matter.
  std::vector<std::uint8_t> stream;
  for (int k = 0; k < 20; ++k) {
    std::vector<std::uint8_t> p(static_cast<std::size_t>(k) * 17 + 1);
    std::iota(p.begin(), p.end(), static_cast<std::uint8_t>(k));
    append_frame(stream, p);
  }
  FrameReader r;
  std::size_t frames = 0;
  for (const std::uint8_t b : stream) {
    r.feed(std::span<const std::uint8_t>(&b, 1));
    while (r.next().has_value()) {
      ++frames;
    }
  }
  EXPECT_EQ(frames, 20u);
}

TEST(FrameDecoder, TruncatedWaitsForMore) {
  const auto payload = bytes_of({9, 9, 9, 9});
  const auto f = frame(payload);
  FrameReader r;
  for (std::size_t cut = 0; cut + 1 < f.size(); ++cut) {
    FrameReader partial;
    partial.feed(std::span<const std::uint8_t>(f.data(), cut));
    EXPECT_EQ(partial.next(), std::nullopt) << "cut at " << cut;
  }
  r.feed(f);
  EXPECT_TRUE(r.next().has_value());
}

TEST(FrameDecoder, CorruptPayloadThrows) {
  const auto payload = bytes_of({1, 2, 3, 4, 5});
  auto f = frame(payload);
  for (std::size_t i = 0; i < f.size(); ++i) {
    auto bad = f;
    bad[i] ^= 0x40u;  // flip one bit anywhere: length, body, or checksum
    FrameReader r;
    r.feed(bad);
    bool fine = true;
    try {
      const auto got = r.next();
      // A length-prefix flip may just leave the reader waiting for more
      // bytes — that is acceptable; returning a *wrong payload* is not.
      fine = !got.has_value() || *got == payload;
    } catch (const FrameError&) {
      fine = true;  // detected
    }
    EXPECT_TRUE(fine) << "flip at byte " << i << " yielded a corrupt payload";
  }
}

TEST(FrameDecoder, ChecksumCoversEveryPayloadByte) {
  std::vector<std::uint8_t> payload(64, 0xAB);
  auto f = frame(payload);
  // Flip each payload byte (skip the 1-byte length prefix).
  for (std::size_t i = 1; i + 4 < f.size(); ++i) {
    auto bad = f;
    bad[i] ^= 0x01u;
    FrameReader r;
    r.feed(bad);
    EXPECT_THROW(r.next(), FrameError) << "payload flip at " << i;
  }
}

TEST(FrameDecoder, OversizedLengthRejected) {
  // 0xFF 0xFF 0xFF 0xFF 0x7F encodes ~34 GiB.
  const auto evil = bytes_of({0xFF, 0xFF, 0xFF, 0xFF, 0x7F});
  FrameReader r;
  r.feed(evil);
  EXPECT_THROW(r.next(), FrameError);
}

TEST(FrameDecoder, OverlongLengthPrefixRejected) {
  // Six continuation bytes: longer than any admissible length prefix.
  const auto evil = bytes_of({0x80, 0x80, 0x80, 0x80, 0x80, 0x80});
  FrameReader r;
  r.feed(evil);
  EXPECT_THROW(r.next(), FrameError);
}

TEST(FrameDecoder, ResyncAfterGoodFramesThenGarbage) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, bytes_of({1}));
  append_frame(stream, bytes_of({2, 2}));
  stream.push_back(0x05);  // claims 5 payload bytes...
  stream.insert(stream.end(), {1, 2, 3, 4, 5, 0, 0, 0, 0});  // ...bad crc
  FrameReader r;
  r.feed(stream);
  EXPECT_EQ(*r.next(), bytes_of({1}));
  EXPECT_EQ(*r.next(), bytes_of({2, 2}));
  EXPECT_THROW(r.next(), FrameError);
}

TEST(FrameDecoder, PoisonedAfterChecksumMismatch) {
  // A stream that lost sync cannot be trusted again: after the first
  // corruption the reader must refuse every further feed()/next(), even if
  // the later bytes happen to form valid frames. Recovery is a fresh
  // connection with a fresh reader (which is what rt::ReactorTransport does).
  std::vector<std::uint8_t> stream;
  append_frame(stream, bytes_of({1, 2, 3}));
  stream[2] ^= 0x10u;  // corrupt a payload byte: CRC mismatch
  FrameReader r;
  EXPECT_FALSE(r.poisoned());
  r.feed(stream);
  EXPECT_THROW(r.next(), FrameError);
  EXPECT_TRUE(r.poisoned());

  const auto good = frame(bytes_of({9}));
  EXPECT_THROW(r.feed(good), FrameError);
  EXPECT_THROW(r.next(), FrameError);
  EXPECT_TRUE(r.poisoned());
  EXPECT_EQ(r.buffered(), 0u);  // poisoning discards the untrusted buffer

  // A fresh reader on the same good bytes works: the stream, not the
  // frame format, is what went bad.
  FrameReader fresh;
  fresh.feed(good);
  EXPECT_EQ(*fresh.next(), bytes_of({9}));
}

TEST(FrameDecoder, PoisonedAfterBadLengthPrefix) {
  const auto evil = bytes_of({0xFF, 0xFF, 0xFF, 0xFF, 0x7F});
  FrameReader r;
  r.feed(evil);
  EXPECT_THROW(r.next(), FrameError);
  EXPECT_TRUE(r.poisoned());
  EXPECT_THROW(r.feed(bytes_of({0})), FrameError);
}

TEST(FrameWriter, RejectsOversizedPayload) {
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> huge(kMaxFramePayload + 1);
  EXPECT_THROW(append_frame(out, huge), FrameError);
}

TEST(FrameRoundTrip, LargePayloadCrossesChunks) {
  std::vector<std::uint8_t> payload(70000);
  Rng rng(42);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const auto f = frame(payload);
  FrameReader r;
  std::size_t off = 0;
  std::optional<std::vector<std::uint8_t>> got;
  while (off < f.size()) {
    const std::size_t chunk = std::min<std::size_t>(4096, f.size() - off);
    r.feed(std::span<const std::uint8_t>(f.data() + off, chunk));
    off += chunk;
    if (auto p = r.next()) {
      got = std::move(p);
    }
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

}  // namespace
}  // namespace hpd::wire
