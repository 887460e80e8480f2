#include "reference.hpp"

#include <algorithm>
#include <cstring>

#include "common.hpp"

namespace bench {
namespace {

constexpr std::size_t kWidth = 341;  // the pulse streams' clock width
constexpr std::size_t kClocks = 96;  // 128 KB of clocks
constexpr int kPairsPerProbe = 200;
constexpr std::size_t kValues = 1536;     // delta-varint encoded per probe
constexpr std::size_t kRing = 64u << 10;  // copy target, like a page cache

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 33;
}

}  // namespace

Reference::Reference()
    : clocks_(kClocks * kWidth), values_(kValues), encoded_(kValues * 10),
      ring_(kRing) {
  std::uint64_t s = 12345;
  for (std::size_t c = 0; c < kClocks; ++c) {
    for (std::size_t i = 0; i < kWidth; ++i) {
      clocks_[c * kWidth + i] = static_cast<std::uint32_t>(1000 + lcg(s) % 64);
    }
  }
  for (auto& v : values_) {
    v = lcg(s) % 100000;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {  // CRC-32C (Castagnoli) table
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    table_[i] = c;
  }
}

double Reference::probe() {
  const double t0 = thread_cpu_s();
  // Vector-clock comparisons (the engines' work).
  std::uint64_t leq = 0;
  for (int p = 0; p < kPairsPerProbe; ++p) {
    const std::uint32_t* a = &clocks_[(lcg(next_) % kClocks) * kWidth];
    const std::uint32_t* b = &clocks_[(lcg(next_) % kClocks) * kWidth];
    std::uint32_t n = 0;
    for (std::size_t i = 0; i < kWidth; ++i) {
      n += a[i] <= b[i] ? 1u : 0u;
    }
    leq += n;
  }
  // Delta-varint encoding and a CRC-32C over the bytes (the codec and
  // frame work of streams and checkpoints).
  std::size_t len = 0;
  std::uint64_t prev = 0;
  for (std::uint64_t v : values_) {
    std::uint64_t d = v ^ prev;
    prev = v;
    while (d >= 0x80) {
      encoded_[len++] = static_cast<std::uint8_t>(d | 0x80);
      d >>= 7;
    }
    encoded_[len++] = static_cast<std::uint8_t>(d);
  }
  std::uint32_t crc = ~0u;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table_[(crc ^ encoded_[i]) & 0xFF] ^ (crc >> 8);
  }
  // Copying the bytes out, as a write to the page cache does.
  for (int r = 0; r < 4; ++r) {
    if (ring_pos_ + len > ring_.size()) {
      ring_pos_ = 0;
    }
    std::memcpy(&ring_[ring_pos_], encoded_.data(), len);
    ring_pos_ += len;
  }
  sink_ = sink_ + leq + crc + ring_[ring_pos_ / 2];
  return (thread_cpu_s() - t0) / kQuietProbeS;
}

}  // namespace bench
