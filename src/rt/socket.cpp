#include "rt/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

namespace hpd::rt {

namespace {

[[noreturn]] void fail(const std::string& what) {
  // std::system_category().message is the thread-safe spelling of
  // strerror(errno) — reactor worker threads fail concurrently.
  throw TransportError(what + ": " + std::system_category().message(errno));
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw TransportError("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl(O_NONBLOCK)");
  }
}

Fd listen_on(SockAddr& addr) {
  const int domain = addr.kind == SockAddr::Kind::kTcp ? AF_INET : AF_UNIX;
  Fd fd(::socket(domain, SOCK_STREAM, 0));
  if (!fd.valid()) {
    fail("socket");
  }
  if (addr.kind == SockAddr::Kind::kTcp) {
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa = make_tcp_addr(addr.port);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      fail("bind(tcp)");
    }
    if (addr.port == 0) {
      socklen_t len = sizeof(sa);
      if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&sa), &len) <
          0) {
        fail("getsockname");
      }
      addr.port = ntohs(sa.sin_port);
    }
  } else {
    // A revived node re-binds the same path: unlink the corpse first.
    ::unlink(addr.path.c_str());
    sockaddr_un sa = make_unix_addr(addr.path);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      fail("bind(unix " + addr.path + ")");
    }
  }
  if (::listen(fd.get(), 128) < 0) {
    fail("listen");
  }
  set_nonblocking(fd.get());
  return fd;
}

Fd accept_conn(const Fd& listener) {
  const int fd = ::accept(listener.get(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return Fd{};
    }
    fail("accept");
  }
  set_nonblocking(fd);
  return Fd(fd);
}

IoResult read_some(int fd, std::uint8_t* buf, std::size_t len) {
  for (;;) {
    const ssize_t k = ::read(fd, buf, len);
    if (k > 0) {
      return {IoResult::Status::kOk, static_cast<std::size_t>(k)};
    }
    if (k == 0) {
      return {IoResult::Status::kClosed, 0};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::Status::kAgain, 0};
    }
    return {IoResult::Status::kClosed, 0};  // ECONNRESET and friends
  }
}

IoResult write_some(int fd, const std::uint8_t* buf, std::size_t len) {
  for (;;) {
    const ssize_t k = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (k > 0) {
      return {IoResult::Status::kOk, static_cast<std::size_t>(k)};
    }
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return {IoResult::Status::kAgain, 0};
    }
    return {IoResult::Status::kClosed, 0};  // EPIPE / ECONNRESET / ...
  }
}

ConnectStart connect_start(const SockAddr& addr) {
  const int domain = addr.kind == SockAddr::Kind::kTcp ? AF_INET : AF_UNIX;
  Fd fd(::socket(domain, SOCK_STREAM, 0));
  if (!fd.valid()) {
    fail("socket");
  }
  // Nonblocking *before* connect, so the dial itself can never park the
  // calling event loop.
  set_nonblocking(fd.get());
  int rc;
  if (addr.kind == SockAddr::Kind::kTcp) {
    sockaddr_in sa = make_tcp_addr(addr.port);
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    do {
      rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    } while (rc < 0 && errno == EINTR);
  } else {
    sockaddr_un sa = make_unix_addr(addr.path);
    do {
      rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    } while (rc < 0 && errno == EINTR);
  }
  ConnectStart out;
  if (rc == 0) {
    out.status = ConnectStart::Status::kConnected;
    out.fd = std::move(fd);
  } else if (errno == EINPROGRESS) {
    out.status = ConnectStart::Status::kPending;
    out.fd = std::move(fd);
  } else {
    // Refused, no listener, or (Unix) a momentarily full accept backlog:
    // the caller's cooldown + retransmit path recovers.
    out.status = ConnectStart::Status::kFailed;
  }
  return out;
}

bool connect_finish(const Fd& fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return false;
  }
  return err == 0;
}

std::string make_socket_dir() {
  // Single-threaded startup path: ReactorTransport reads TMPDIR once in its
  // constructor, before any worker thread exists.
  const char* base = std::getenv("TMPDIR");  // NOLINT(concurrency-mt-unsafe)
  std::string templ =
      std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
      "/hpd_live.XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    fail("mkdtemp");
  }
  return std::string(buf.data());
}

void remove_socket_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // best effort
}

}  // namespace hpd::rt
