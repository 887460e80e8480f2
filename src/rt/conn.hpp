// Backend-neutral connection state machine for the live transport.
//
// One Conn is one stream connection: outbound frames accumulate in `outbuf`
// and drain with partial-write resume (flush()); inbound bytes feed a
// wire::FrameReader whose whole payloads are dispatched to a PayloadSink
// (read_once()). Corruption poisons the reader permanently — a framed
// stream that lost sync has no recoverable boundary — so the only recovery
// is dropping the connection and letting the sender's session layer
// retransmit (kProtocolError). The epoll reactor (rt/reactor) hosts one per
// connection; the poisoning/teardown behavior is tested once, in conn_test.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "rt/socket.hpp"
#include "wire/frame.hpp"

namespace hpd::rt {

// Frame payload kinds: the first byte of every framed payload.
inline constexpr std::uint8_t kFrameHello = 1;
inline constexpr std::uint8_t kFrameData = 2;
inline constexpr std::uint8_t kFrameAck = 3;

inline constexpr std::uint8_t kMagic[4] = {'H', 'P', 'D', 'L'};

/// Handshake version carried in every connection's HELLO frame. v2 adds the
/// sender's session epoch to HELLO and (epoch, seq) bookkeeping to DATA.
inline constexpr std::uint64_t kLiveProtocolVersion = 2;

struct Conn;

/// Receiver of whole decoded frame payloads. Implementations may throw
/// wire::DecodeError for malformed payloads; read_once() maps that (and
/// FrameError from the reader itself) to ReadStatus::kProtocolError.
class PayloadSink {
 public:
  virtual ~PayloadSink() = default;
  virtual void on_payload(Conn& conn,
                          const std::vector<std::uint8_t>& payload) = 0;
};

/// One stream connection. Outgoing connections (dialled by the sender,
/// keyed by peer) only ever send; inbound (accepted) connections only
/// receive. `peer`/`hello_seen` are filled by the HELLO handshake.
struct Conn {
  Fd fd;
  wire::FrameReader reader;
  std::vector<std::uint8_t> outbuf;
  std::size_t out_pos = 0;  ///< flushed prefix of outbuf
  ProcessId peer = kNoProcess;
  bool hello_seen = false;
  /// Nonblocking connect still completing (reactor backend); no flush
  /// until the writable edge resolves it via rt::connect_finish.
  bool connecting = false;

  /// Queue already-framed bytes for transmission.
  void queue(std::span<const std::uint8_t> framed) {
    outbuf.insert(outbuf.end(), framed.begin(), framed.end());
  }

  /// Unsent bytes still queued.
  std::size_t backlog() const { return outbuf.size() - out_pos; }

  enum class FlushStatus {
    kDrained,  ///< outbuf fully flushed
    kBlocked,  ///< kernel buffer full; resume on the next writable edge
    kBroken,   ///< peer gone; drop the connection (retransmit recovers)
  };
  /// Drain outbuf with partial-write resume (EINTR/EAGAIN-safe).
  FlushStatus flush();

  enum class ReadStatus {
    kData,           ///< bytes consumed and dispatched; more may be pending
    kDrained,        ///< no bytes available right now
    kClosed,         ///< orderly close or hard error: peer is gone
    kProtocolError,  ///< corrupt/undecodable stream: drop the connection
  };
  /// One bounded nonblocking read into `scratch`, feeding the frame reader
  /// and dispatching every completed payload to `sink`. Level-triggered
  /// loops call this once per readiness event; edge-triggered loops call
  /// it until kDrained.
  ReadStatus read_once(std::span<std::uint8_t> scratch, PayloadSink& sink);

  /// Read and discard (send-only connections watch their fd only to see
  /// the peer's close). kClosed when the peer is gone.
  ReadStatus drain_ignore(std::span<std::uint8_t> scratch);
};

/// The framed HELLO carried first on every outgoing connection: magic,
/// protocol version, sender id, cluster size, sender session epoch.
std::vector<std::uint8_t> hello_frame(ProcessId self, std::size_t cluster,
                                      std::uint64_t epoch);

}  // namespace hpd::rt
