#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "net/collector.h"
#include "net/transport.h"

namespace bloc::net {
namespace {

anchor::CsiReport MakeReport(std::uint32_t anchor_id, std::uint64_t round,
                             bool master) {
  anchor::CsiReport report;
  report.anchor_id = anchor_id;
  report.is_master = master;
  report.round_id = round;
  const dsp::CVec tag_csi = {{1, 0}};
  const dsp::CVec master_csi = {{0.5, 0.5}};
  report.AddBand({.data_channel = 1,
                  .freq_hz = 2.406e9,
                  .tag_csi = tag_csi,
                  .master_csi = master ? std::span<const dsp::cplx>{}
                                       : master_csi});
  return report;
}

AnchorHelloMsg MakeHello(std::uint32_t id, bool master) {
  AnchorHelloMsg hello;
  hello.anchor_id = id;
  hello.is_master = master;
  return hello;
}

TEST(Collector, GroupsRoundsByAnchor) {
  Collector collector;
  collector.OnMessage(MakeHello(1, true));
  collector.OnMessage(MakeHello(2, false));
  EXPECT_EQ(collector.Anchors().size(), 2u);

  collector.OnMessage(CsiReportMsg{MakeReport(1, 0, true)});
  EXPECT_FALSE(collector.TryGetRound(0).has_value());
  collector.OnMessage(CsiReportMsg{MakeReport(2, 0, false)});
  const auto round = collector.TryGetRound(0);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->reports.size(), 2u);
}

TEST(Collector, DropsDuplicateReports) {
  Collector collector;
  collector.OnMessage(MakeHello(1, true));
  collector.OnMessage(MakeHello(2, false));
  collector.OnMessage(CsiReportMsg{MakeReport(1, 0, true)});
  collector.OnMessage(CsiReportMsg{MakeReport(1, 0, true)});
  EXPECT_EQ(collector.dropped_duplicates(), 1u);
  EXPECT_FALSE(collector.TryGetRound(0).has_value());
}

TEST(Collector, WaitRoundTimesOut) {
  Collector collector;
  collector.OnMessage(MakeHello(1, true));
  EXPECT_FALSE(collector.WaitRound(7, 50).has_value());
}

TEST(Collector, IgnoresEstimates) {
  Collector collector;
  EXPECT_NO_THROW(collector.OnMessage(LocationEstimateMsg{}));
}

TEST(InProcTransport, DeliversThroughCodec) {
  Collector collector;
  InProcTransport transport(collector);
  transport.Send(MakeHello(5, true));
  transport.Send(CsiReportMsg{MakeReport(5, 3, true)});
  const auto round = collector.TryGetRound(3);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->reports[0].anchor_id, 5u);
  EXPECT_EQ(round->reports[0].band(0).tag_csi[0], (dsp::cplx{1, 0}));
}

TEST(TcpTransport, EndToEndOverLoopback) {
  Collector collector;
  TcpServer server(collector, 0);
  ASSERT_GT(server.port(), 0);

  // Two "anchors" connect and stream hello + report.
  TcpTransport anchor1("127.0.0.1", server.port());
  TcpTransport anchor2("127.0.0.1", server.port());
  anchor1.Send(MakeHello(1, true));
  anchor2.Send(MakeHello(2, false));
  // The two connections are ordered independently: wait until both hellos
  // registered, or a report racing ahead of the other anchor's hello would
  // "complete" the round with one report.
  for (int i = 0; i < 1000 && collector.Anchors().size() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(collector.Anchors().size(), 2u);
  anchor1.Send(CsiReportMsg{MakeReport(1, 0, true)});
  anchor2.Send(CsiReportMsg{MakeReport(2, 0, false)});

  // Generous deadline: sanitized runs on a loaded single-core machine can
  // starve the server thread for seconds.
  const auto round = collector.WaitRound(0, 10000);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->reports.size(), 2u);
  server.Stop();
}

TEST(TcpTransport, ManyMessagesOneConnection) {
  Collector collector;
  TcpServer server(collector, 0);
  TcpTransport anchor("127.0.0.1", server.port());
  anchor.Send(MakeHello(1, true));
  for (std::uint64_t r = 0; r < 50; ++r) {
    anchor.Send(CsiReportMsg{MakeReport(1, r, true)});
  }
  const auto last = collector.WaitRound(49, 10000);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->reports.size(), 1u);
  server.Stop();
}

TEST(Collector, WaitRoundConsumesAndTakeRoundDrains) {
  Collector collector;
  InProcTransport anchor(collector);
  anchor.Send(MakeHello(1, true));
  anchor.Send(CsiReportMsg{MakeReport(1, 0, true)});
  anchor.Send(CsiReportMsg{MakeReport(1, 1, true)});
  EXPECT_EQ(collector.pending_rounds(), 2u);

  // TryGetRound is a peek: the round stays pending.
  ASSERT_TRUE(collector.TryGetRound(0).has_value());
  EXPECT_EQ(collector.pending_rounds(), 2u);

  // WaitRound consumes its round.
  ASSERT_TRUE(collector.WaitRound(0, 1000).has_value());
  EXPECT_EQ(collector.pending_rounds(), 1u);
  EXPECT_FALSE(collector.TryGetRound(0).has_value());

  // TakeRound consumes without blocking; a second take finds nothing.
  ASSERT_TRUE(collector.TakeRound(1).has_value());
  EXPECT_FALSE(collector.TakeRound(1).has_value());
  EXPECT_EQ(collector.pending_rounds(), 0u);
}

TEST(Collector, EvictionHorizonBoundsPendingRounds) {
  Collector collector(Collector::Options{.max_pending_rounds = 2});
  InProcTransport anchor(collector);
  anchor.Send(MakeHello(1, true));
  for (std::uint64_t r = 0; r < 5; ++r) {
    anchor.Send(CsiReportMsg{MakeReport(1, r, true)});
  }
  // Rounds 0..2 were evicted (lowest id first) to admit 3 and 4.
  EXPECT_EQ(collector.pending_rounds(), 2u);
  EXPECT_EQ(collector.evicted_rounds(), 3u);
  EXPECT_FALSE(collector.TryGetRound(0).has_value());
  EXPECT_TRUE(collector.TryGetRound(3).has_value());
  EXPECT_TRUE(collector.TryGetRound(4).has_value());

  // A late report for an evicted round re-opens it, evicting the oldest
  // survivor -- the horizon holds regardless of arrival order.
  anchor.Send(CsiReportMsg{MakeReport(1, 0, true)});
  EXPECT_EQ(collector.pending_rounds(), 2u);
  EXPECT_EQ(collector.evicted_rounds(), 4u);
}

TEST(Collector, ConsumingStreamStaysBounded) {
  Collector collector(Collector::Options{.max_pending_rounds = 8});
  InProcTransport anchor(collector);
  anchor.Send(MakeHello(1, true));
  for (std::uint64_t r = 0; r < 1000; ++r) {
    anchor.Send(CsiReportMsg{MakeReport(1, r, true)});
    ASSERT_TRUE(collector.TakeRound(r).has_value()) << "round " << r;
    ASSERT_LE(collector.pending_rounds(), 8u);
  }
  EXPECT_EQ(collector.evicted_rounds(), 0u);
}

// Regression test for the data race on dropped_duplicates(): a reader
// polling the counter while OnMessage storms duplicates. Run under TSan
// (BLOC_TSAN) this fails on the pre-atomic implementation.
TEST(Collector, DuplicateCounterIsReadableDuringIngest) {
  Collector collector;
  InProcTransport anchor(collector);
  anchor.Send(MakeHello(1, true));

  std::atomic<bool> stop{false};
  std::size_t last = 0;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t now = collector.dropped_duplicates();
      EXPECT_GE(now, last);  // monotone under concurrent ingest
      last = now;
    }
  });
  for (int i = 0; i < 5000; ++i) {
    anchor.Send(CsiReportMsg{MakeReport(1, 7, true)});  // same round+anchor
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(collector.dropped_duplicates(), 4999u);
}

TEST(TcpTransport, ConnectFailureThrows) {
  // Port 1 on loopback is almost certainly closed.
  EXPECT_THROW(TcpTransport("127.0.0.1", 1), std::system_error);
  EXPECT_THROW(TcpTransport("not-an-ip", 80), std::invalid_argument);
}

TEST(TcpServer, StopIsIdempotent) {
  Collector collector;
  TcpServer server(collector, 0);
  server.Stop();
  EXPECT_NO_THROW(server.Stop());
}

TEST(TcpServer, SurvivesClientDisconnect) {
  Collector collector;
  TcpServer server(collector, 0);
  {
    TcpTransport transient("127.0.0.1", server.port());
    transient.Send(MakeHello(9, false));
  }  // destructor closes the socket
  // Server keeps accepting.
  TcpTransport another("127.0.0.1", server.port());
  another.Send(MakeHello(10, true));
  for (int i = 0; i < 100 && collector.Anchors().size() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(collector.Anchors().size(), 2u);
  server.Stop();
}

}  // namespace
}  // namespace bloc::net
