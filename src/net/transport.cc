#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/metrics.h"

namespace bloc::net {

namespace {

/// Shared by both transports: frames look identical on the wire either way.
struct TransportMetrics {
  obs::Counter& frames_sent = obs::GetCounter("net.transport.frames_sent");
  obs::Counter& bytes_sent = obs::GetCounter("net.transport.bytes_sent");

  static const TransportMetrics& Get() {
    static const TransportMetrics metrics;
    return metrics;
  }
};

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void SendAll(int fd, const Buffer& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

void InProcTransport::Send(const Message& msg) {
  const Buffer frame = EncodeFrame(msg);
  const TransportMetrics& metrics = TransportMetrics::Get();
  metrics.frames_sent.Inc();
  metrics.bytes_sent.Inc(frame.size());
  for (Message& decoded : parser_.Feed(frame)) {
    sink_.OnMessage(std::move(decoded));
  }
}

TcpServer::TcpServer(MessageSink& sink, std::uint16_t port) : sink_(sink) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    ThrowErrno("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    ::close(listen_fd_);
    ThrowErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    ThrowErrno("listen");
  }
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  // Shutting down the listening socket unblocks accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(mutex_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  std::lock_guard lock(mutex_);
  for (int fd : connection_fds_) ::close(fd);
  connection_fds_.clear();
}

void TcpServer::AcceptLoop() {
  while (running_) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listening socket closed
    }
    std::lock_guard lock(mutex_);
    if (!running_) {
      ::close(fd);
      break;
    }
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { ConnectionLoop(fd); });
  }
}

void TcpServer::ConnectionLoop(int fd) {
  FrameParser parser;
  std::uint8_t buf[4096];
  while (running_) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed or shutdown
    }
    std::vector<Message> messages;
    try {
      messages = parser.Feed(std::span(buf, static_cast<std::size_t>(n)));
    } catch (const WireError&) {
      break;  // corrupt stream: drop the connection
    }
    for (Message& m : messages) {
      std::lock_guard lock(mutex_);
      sink_.OnMessage(std::move(m));
    }
  }
}

TcpTransport::TcpTransport(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) ThrowErrno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::invalid_argument("TcpTransport: bad host address");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd_);
    ThrowErrno("connect");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpTransport::Send(const Message& msg) {
  const Buffer frame = EncodeFrame(msg);
  const TransportMetrics& metrics = TransportMetrics::Get();
  metrics.frames_sent.Inc();
  metrics.bytes_sent.Inc(frame.size());
  SendAll(fd_, frame);
}

}  // namespace bloc::net
