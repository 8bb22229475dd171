// Logger NF tests: deterministic sampling, bounded ring behaviour and exact
// state migration (including the sampling phase counter).

#include <gtest/gtest.h>

#include "nf/logger_nf.hpp"
#include "packet/packet_builder.hpp"

namespace pam {
namespace {

Packet make_packet(std::uint64_t id, std::size_t size = 128) {
  Packet p;
  FiveTuple t{0x0a000001, 0xc0000202, 1234, 80, IpProto::kUdp};
  PacketBuilder{}.size(size).flow(t).build_into(p);
  p.set_id(id);
  return p;
}

TEST(LoggerNf, NeverDrops) {
  LoggerNf logger{"log", 2};
  for (std::uint64_t i = 0; i < 10; ++i) {
    Packet p = make_packet(i);
    EXPECT_EQ(logger.handle(p, SimTime::microseconds(static_cast<double>(i))),
              Verdict::kForward);
  }
  EXPECT_EQ(logger.counters().packets_dropped, 0u);
}

TEST(LoggerNf, SampleEveryPacket) {
  LoggerNf logger{"log", 1};
  for (std::uint64_t i = 0; i < 7; ++i) {
    Packet p = make_packet(i);
    (void)logger.handle(p, SimTime::zero());
  }
  EXPECT_EQ(logger.records_written(), 7u);
}

TEST(LoggerNf, SamplingFractionMatchesRate) {
  LoggerNf logger{"log", 2};
  EXPECT_DOUBLE_EQ(logger.sampling_fraction(), 0.5);
  for (std::uint64_t i = 0; i < 100; ++i) {
    Packet p = make_packet(i);
    (void)logger.handle(p, SimTime::zero());
  }
  EXPECT_EQ(logger.records_written(), 50u);
}

TEST(LoggerNf, ZeroSampleEveryCoercedToOne) {
  LoggerNf logger{"log", 0};
  EXPECT_EQ(logger.sample_every(), 1u);
}

TEST(LoggerNf, RecordsCarryFlowAndSize) {
  LoggerNf logger{"log", 1};
  Packet p = make_packet(42, 777);
  (void)logger.handle(p, SimTime::microseconds(9));
  ASSERT_EQ(logger.ring().size(), 1u);
  const LogRecord& rec = logger.ring().at(0);
  EXPECT_EQ(rec.packet_id, 42u);
  EXPECT_EQ(rec.wire_bytes, 777u);
  EXPECT_EQ(rec.timestamp.us(), 9.0);
  EXPECT_EQ(rec.flow.dst_port, 80);
}

TEST(LoggerNf, RingOverwritesOldest) {
  LoggerNf logger{"log", 1, 4};
  for (std::uint64_t i = 0; i < 10; ++i) {
    Packet p = make_packet(i);
    (void)logger.handle(p, SimTime::zero());
  }
  EXPECT_EQ(logger.records_written(), 10u);
  ASSERT_EQ(logger.ring().size(), 4u);
  EXPECT_EQ(logger.ring().at(0).packet_id, 6u);
  EXPECT_EQ(logger.ring().at(3).packet_id, 9u);
}

TEST(LoggerNf, StateRoundTripPreservesPhase) {
  LoggerNf logger{"log", 3};
  // Three packets: 1 sampled (the 3rd), phase now 0; push 1 more -> phase 1.
  for (std::uint64_t i = 0; i < 4; ++i) {
    Packet p = make_packet(i);
    (void)logger.handle(p, SimTime::zero());
  }
  EXPECT_EQ(logger.records_written(), 1u);

  LoggerNf restored{"log2", 1, 16};
  restored.import_state(logger.export_state());
  EXPECT_EQ(restored.sample_every(), 3u);
  EXPECT_EQ(restored.records_written(), 1u);

  // The restored logger must sample the *same* upcoming packet as the
  // original would: two more packets complete the current group of 3.
  for (std::uint64_t i = 4; i < 6; ++i) {
    Packet p = make_packet(i);
    (void)restored.handle(p, SimTime::zero());
  }
  EXPECT_EQ(restored.records_written(), 2u);
}

/// Runs `packets` packets through `logger`, starting at packet id `first`.
void feed(LoggerNf& logger, std::uint64_t first, std::uint64_t packets) {
  for (std::uint64_t i = first; i < first + packets; ++i) {
    Packet p = make_packet(i, 64 + i % 1400);
    (void)logger.handle(p, SimTime::microseconds(static_cast<double>(i)));
  }
}

// The record ring takes its storage on the first push, so a snapshot must
// come out byte-equal whether the ring is unwritten, partly filled or full
// and wrapped, and a restored logger must keep writing the same records.
class StateBlobRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StateBlobRoundTrip, BlobIsByteEqual) {
  LoggerNf logger{"log", 1, 8};
  feed(logger, 0, GetParam());
  const NfState snapshot = logger.export_state();

  LoggerNf fresh{"log2", 1, 8};
  fresh.import_state(snapshot);
  EXPECT_EQ(fresh.export_state().blob, snapshot.blob);
  ASSERT_EQ(fresh.ring().size(), logger.ring().size());
  for (std::size_t i = 0; i < logger.ring().size(); ++i) {
    const LogRecord& want = logger.ring().at(i);
    const LogRecord& got = fresh.ring().at(i);
    EXPECT_EQ(got.packet_id, want.packet_id);
    EXPECT_EQ(got.timestamp, want.timestamp);
    EXPECT_EQ(got.flow, want.flow);
    EXPECT_EQ(got.wire_bytes, want.wire_bytes);
  }

  // Imported over a ring partly filled, and over one full and wrapped.
  LoggerNf partly{"log3", 1, 8};
  feed(partly, 1000, 3);
  partly.import_state(snapshot);
  EXPECT_EQ(partly.export_state().blob, snapshot.blob);
  LoggerNf wrapped{"log4", 1, 8};
  feed(wrapped, 1000, 13);
  wrapped.import_state(snapshot);
  EXPECT_EQ(wrapped.export_state().blob, snapshot.blob);

  feed(logger, 500, 11);
  for (LoggerNf* restored : {&fresh, &partly, &wrapped}) {
    feed(*restored, 500, 11);
    EXPECT_EQ(restored->export_state().blob, logger.export_state().blob);
  }
}

INSTANTIATE_TEST_SUITE_P(RingFill, StateBlobRoundTrip,
                         ::testing::Values(0u, 5u, 8u, 21u));

TEST(LoggerNf, ImportRejectsTruncatedBlob) {
  LoggerNf logger{"log", 1};
  Packet p = make_packet(1);
  (void)logger.handle(p, SimTime::zero());
  NfState snapshot = logger.export_state();
  snapshot.blob.resize(snapshot.blob.size() - 3);
  LoggerNf other{"log2"};
  EXPECT_THROW(other.import_state(snapshot), std::runtime_error);
}

// The sampling rate is exactly 1/k for every k across a long stream.
class SamplingSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SamplingSweep, ExactSampleCount) {
  const std::uint32_t k = GetParam();
  LoggerNf logger{"log", k};
  constexpr std::uint64_t kPackets = 600;  // divisible by 1..6
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    Packet p = make_packet(i);
    (void)logger.handle(p, SimTime::zero());
  }
  EXPECT_EQ(logger.records_written(), kPackets / k);
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplingSweep, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace pam
