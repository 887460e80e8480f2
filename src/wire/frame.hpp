// Framed byte-stream layer for the live transport.
//
// wire/codec turns one protocol message into bytes; a byte *stream* (TCP /
// Unix-domain socket) additionally needs message boundaries and corruption
// detection. A frame is:
//
//   varint payload_len   (unsigned LEB128, 1..5 bytes; len <= kMaxFramePayload)
//   payload              (payload_len bytes)
//   crc32c               (4 bytes, little-endian, CRC-32C/Castagnoli of the
//                         payload bytes only)
//
// FrameWriter appends frames to a byte buffer; FrameReader consumes an
// arbitrarily-chunked stream (frames may arrive truncated, concatenated, or
// split at any byte) and yields whole payloads. Any corruption — a CRC
// mismatch, an over-long or over-sized length prefix — throws FrameError:
// a byte stream that lost sync cannot be trusted again, so the owner must
// drop the connection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

namespace hpd::wire {

class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hard upper bound on a frame payload (16 MiB). Far above any protocol
/// message; its real job is to reject garbage length prefixes early.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 24;

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected), the checksum used
/// by iSCSI and ext4. Software table implementation; `seed` allows chaining.
std::uint32_t crc32c(std::span<const std::uint8_t> bytes,
                     std::uint32_t seed = 0);

/// Append one frame holding `payload` to `out`.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

/// Convenience: one frame as a fresh buffer.
std::vector<std::uint8_t> frame(std::span<const std::uint8_t> payload);

/// Incremental decoder: feed() raw stream chunks in arrival order, then
/// call next() until it returns nullopt (= the buffered bytes hold no
/// complete frame yet). Throws FrameError on corruption, and the reader is
/// *poisoned* afterwards: a stream that lost sync cannot be trusted again
/// (there is no way to find the next frame boundary), so every later feed()
/// or next() also throws. The only recovery is a fresh connection with a
/// fresh reader — which is exactly what rt::ReactorTransport does.
class FrameReader {
 public:
  /// Append a chunk of the stream.
  void feed(std::span<const std::uint8_t> bytes);

  /// Extract the next complete payload, if any.
  std::optional<std::vector<std::uint8_t>> next();

  /// Bytes buffered but not yet returned (diagnostics / tests).
  std::size_t buffered() const { return buf_.size() - pos_; }

  /// True once corruption has been seen; the reader refuses further use.
  bool poisoned() const { return poisoned_; }

 private:
  [[noreturn]] void poison(const char* what);

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool poisoned_ = false;
};

}  // namespace hpd::wire
