// Thin RAII layer over the POSIX sockets the live transport runs on:
// loopback TCP (127.0.0.1, ephemeral ports) or Unix-domain stream sockets
// (one path per node under a private directory). Everything here is
// nonblocking: dials go through connect_start / connect_finish.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace hpd::rt {

class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Move-only file-descriptor owner.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Where a node listens. For TCP, `port == 0` asks the kernel for an
/// ephemeral port and listen_on fills in the chosen one — the port then
/// stays stable across crash/revive (re-bound with SO_REUSEADDR).
struct SockAddr {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kUnix;
  std::string path;         ///< unix-domain socket path
  std::uint16_t port = 0;   ///< tcp port on 127.0.0.1
};

/// Bind + listen on `addr` (mutated: tcp port filled in). Non-blocking.
Fd listen_on(SockAddr& addr);

/// Accept one pending connection (non-blocking); invalid Fd if none.
Fd accept_conn(const Fd& listener);

void set_nonblocking(int fd);

// ---- Nonblocking-aware I/O helpers ------------------------------------------
// EINTR is retried internally; EAGAIN/EWOULDBLOCK surfaces as kAgain so an
// event loop can park the fd until the next readiness edge. All transient
// conditions are folded into the three outcomes a state machine actually
// branches on.

struct IoResult {
  enum class Status {
    kOk,      ///< `n` bytes transferred (n >= 1)
    kAgain,   ///< would block; retry on the next readiness edge
    kClosed,  ///< orderly EOF (read) or broken pipe / reset (write)
  };
  Status status = Status::kAgain;
  std::size_t n = 0;
};

/// One nonblocking read of at most `len` bytes.
IoResult read_some(int fd, std::uint8_t* buf, std::size_t len);

/// One nonblocking send (MSG_NOSIGNAL) of at most `len` bytes. A short
/// write returns kOk with the partial count — the caller resumes from
/// `n` (see Conn::flush for the canonical partial-write-resume loop).
IoResult write_some(int fd, const std::uint8_t* buf, std::size_t len);

/// Begin a nonblocking connect. kPending means the socket is mid-handshake:
/// wait for write readiness, then call connect_finish.
struct ConnectStart {
  enum class Status {
    kConnected,  ///< established immediately (typical for Unix sockets)
    kPending,    ///< in progress; finish on the next writable edge
    kFailed,     ///< refused / no listener
  };
  Status status = Status::kFailed;
  Fd fd;
};
ConnectStart connect_start(const SockAddr& addr);

/// Resolve a kPending connect once the fd reported writable: true if the
/// connection is established, false if it failed (SO_ERROR set).
bool connect_finish(const Fd& fd);

/// Create a private directory for unix socket paths (mkdtemp under
/// $TMPDIR). Returns the path; the caller removes it at shutdown.
std::string make_socket_dir();
void remove_socket_dir(const std::string& dir);

}  // namespace hpd::rt
