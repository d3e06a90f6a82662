#include "sim/transport.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/error.h"

namespace scd::sim {
namespace {

comm::NetworkModel fast_net() {
  comm::NetworkModel net;
  net.collective_skew_s = 0.0;
  return net;
}

TEST(TransportTest, SendRecvMovesDataAndTime) {
  std::vector<comm::VirtualClock> clocks(2);
  SimTransport tp(2, fast_net(), clocks);
  const std::vector<double> payload = {1.0, 2.0, 3.0};

  clocks[0].advance(1.0);  // sender is at t = 1
  tp.send(0, 1, 7, std::span<const double>(payload));
  const auto received = tp.recv<double>(1, 0, 7);
  EXPECT_EQ(received, payload);
  // Receiver clock advanced past sender's send completion.
  EXPECT_GT(clocks[1].now(), 1.0);
}

TEST(TransportTest, ReceiverAheadKeepsItsClock) {
  std::vector<comm::VirtualClock> clocks(2);
  SimTransport tp(2, fast_net(), clocks);
  tp.send(0, 1, 1, std::span<const double>(std::vector<double>{1.0}));
  clocks[1].advance(5.0);  // receiver was busy long past arrival
  tp.recv<double>(1, 0, 1);
  EXPECT_DOUBLE_EQ(clocks[1].now(), 5.0);
}

TEST(TransportTest, MessagesWithSameTagStayOrdered) {
  std::vector<comm::VirtualClock> clocks(2);
  SimTransport tp(2, fast_net(), clocks);
  for (double v : {1.0, 2.0, 3.0}) {
    tp.send(0, 1, 2, std::span<const double>(std::vector<double>{v}));
  }
  EXPECT_EQ(tp.recv<double>(1, 0, 2)[0], 1.0);
  EXPECT_EQ(tp.recv<double>(1, 0, 2)[0], 2.0);
  EXPECT_EQ(tp.recv<double>(1, 0, 2)[0], 3.0);
}

TEST(TransportTest, NicSerializesBackToBackSends) {
  // Two large sends from rank 0: the second arrives roughly one wire
  // time after the first, not simultaneously.
  std::vector<comm::VirtualClock> clocks(3);
  comm::NetworkModel net = fast_net();
  net.bandwidth_Bps = 1e9;  // 1 GB/s -> 1 MB takes 1 ms
  SimTransport tp(3, net, clocks);
  const std::vector<std::byte> mb(1 << 20);
  tp.send(0, 1, 1, std::span<const std::byte>(mb));
  tp.send(0, 2, 1, std::span<const std::byte>(mb));
  tp.recv<std::byte>(1, 0, 1);
  tp.recv<std::byte>(2, 0, 1);
  const double wire = double(1 << 20) / net.bandwidth_Bps;
  EXPECT_NEAR(clocks[2].now() - clocks[1].now(), wire, wire * 0.05);
}

TEST(TransportTest, PhantomSendChargesTimeWithoutData) {
  std::vector<comm::VirtualClock> clocks(2);
  SimTransport tp(2, fast_net(), clocks);
  tp.send_phantom(0, 1, 3, 1 << 20);
  tp.recv_discard(1, 0, 3);
  EXPECT_GT(clocks[1].now(), 1e-4);  // ~150 us of wire time
}

TEST(TransportTest, BarrierAlignsClocksToMax) {
  std::vector<comm::VirtualClock> clocks(4);
  comm::NetworkModel net = fast_net();
  SimTransport tp(4, net, clocks);
  std::vector<std::thread> threads;
  for (unsigned r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      clocks[r].advance(r * 1.0);
      tp.barrier(r);
    });
  }
  for (auto& t : threads) t.join();
  const double expected = 3.0 + net.collective_time(4, 0);
  for (const comm::VirtualClock& c : clocks) {
    EXPECT_DOUBLE_EQ(c.now(), expected);
  }
}

TEST(TransportTest, ReduceSumsDeterministicallyAtRoot) {
  std::vector<comm::VirtualClock> clocks(3);
  SimTransport tp(3, fast_net(), clocks);
  std::vector<std::vector<double>> data = {
      {1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  std::vector<std::thread> threads;
  for (unsigned r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] { tp.reduce_sum(r, 0, data[r]); });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(data[0][0], 6.0);
  EXPECT_DOUBLE_EQ(data[0][1], 60.0);
  // Non-root buffers untouched.
  EXPECT_DOUBLE_EQ(data[1][0], 2.0);
}

TEST(TransportTest, BroadcastDeliversRootData) {
  std::vector<comm::VirtualClock> clocks(3);
  SimTransport tp(3, fast_net(), clocks);
  std::vector<std::vector<float>> data(3, std::vector<float>(4, 0.0f));
  data[1] = {1.0f, 2.0f, 3.0f, 4.0f};  // root = 1
  std::vector<std::thread> threads;
  for (unsigned r = 0; r < 3; ++r) {
    threads.emplace_back(
        [&, r] { tp.broadcast(r, 1, std::span<float>(data[r])); });
  }
  for (auto& t : threads) t.join();
  for (unsigned r = 0; r < 3; ++r) {
    EXPECT_EQ(data[r], data[1]) << "rank " << r;
  }
}

TEST(TransportTest, ChannelsAllowConcurrentGroups) {
  // Ranks 1..2 barrier on channel 1 while rank 0 joins only the global
  // reduce; no deadlock, no mismatched-collective error.
  std::vector<comm::VirtualClock> clocks(3);
  SimTransport tp(3, fast_net(), clocks);
  std::vector<double> master_acc = {0.0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] { tp.reduce_sum(0, 0, master_acc, 0, 3); });
  for (unsigned r = 1; r < 3; ++r) {
    threads.emplace_back([&, r] {
      tp.barrier(r, 1, 2);  // worker-only barrier
      std::vector<double> v = {double(r)};
      tp.reduce_sum(r, 0, v, 0, 3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(master_acc[0], 3.0);
}

TEST(TransportTest, MismatchedCollectiveThrows) {
  std::vector<comm::VirtualClock> clocks(2);
  SimTransport tp(2, fast_net(), clocks);
  std::exception_ptr error;
  std::thread t0([&] {
    try {
      tp.barrier(0);
    } catch (...) {
      // Whichever rank arrives second detects the mismatch; when it is
      // this one, abort so the reduce on rank 1 does not wait forever.
      // Otherwise this is the abort — collateral of the mismatch.
      tp.abort_all();
    }
  });
  std::thread t1([&] {
    try {
      std::vector<double> v = {1.0};
      tp.reduce_sum(1, 0, v);
    } catch (...) {
      error = std::current_exception();
      tp.abort_all();
    }
  });
  t0.join();
  t1.join();
  EXPECT_TRUE(error != nullptr);
}

TEST(TransportTest, AbortUnblocksReceivers) {
  std::vector<comm::VirtualClock> clocks(2);
  SimTransport tp(2, fast_net(), clocks);
  std::exception_ptr error;
  std::thread blocked([&] {
    try {
      tp.recv<double>(1, 0, 9);  // nothing will ever arrive
    } catch (...) {
      error = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tp.abort_all();
  blocked.join();
  EXPECT_TRUE(error != nullptr);
}

}  // namespace
}  // namespace scd::sim
