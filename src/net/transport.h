// Transports that carry framed messages from anchors to the central server.
//
// InProcTransport still runs every message through the full encode ->
// frame-parse -> decode path, so the wire codec is exercised even in pure
// simulation; TcpTransport/TcpServer move the same frames over loopback (or
// real) TCP sockets with one reader thread per connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/messages.h"

namespace bloc::net {

/// Receiver interface: the server side of a transport. The sink takes
/// ownership of each decoded message, so a report's CSI is decoded once
/// and moved, never copied, on its way in.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void OnMessage(Message&& msg) = 0;
};

/// Sender interface: the anchor side of a transport.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void Send(const Message& msg) = 0;
};

/// Serializes, re-parses and delivers messages directly to a sink.
class InProcTransport : public Transport {
 public:
  explicit InProcTransport(MessageSink& sink) : sink_(sink) {}
  void Send(const Message& msg) override;

 private:
  MessageSink& sink_;
  FrameParser parser_;
};

/// A TCP server that accepts anchor connections on 127.0.0.1 and feeds every
/// decoded message to the sink. Thread-safe: messages from different
/// connections are serialized through one mutex before reaching the sink.
class TcpServer {
 public:
  /// Binds and starts listening; port 0 picks an ephemeral port.
  TcpServer(MessageSink& sink, std::uint16_t port = 0);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return port_; }
  /// Stops accepting, closes all connections, joins threads.
  void Stop();

 private:
  void AcceptLoop();
  void ConnectionLoop(int fd);

  MessageSink& sink_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::mutex mutex_;  // guards sink delivery and the thread list
  std::vector<std::thread> connection_threads_;
  std::vector<int> connection_fds_;
};

/// Client transport connecting to a TcpServer.
class TcpTransport : public Transport {
 public:
  TcpTransport(const std::string& host, std::uint16_t port);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void Send(const Message& msg) override;

 private:
  int fd_ = -1;
};

}  // namespace bloc::net
