// FaultSchedule tests: purity (same coordinates -> same draw), seed and
// domain separation, burst persistence of read failures, outage window
// geometry, latency-spike arithmetic, and the all-zero no-op contract.

#include "storage/fault_model.h"

#include <gtest/gtest.h>

namespace scout {
namespace {

FaultConfig AllOn(uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  config.read_failure_prob = 0.3;
  config.read_failure_burst_us = 2000;
  config.channel_outage_prob = 0.5;
  config.channel_outage_period_us = 100000;
  config.channel_outage_us = 25000;
  config.latency_spike_prob = 0.2;
  config.latency_spike_multiplier = 8.0;
  return config;
}

TEST(FaultScheduleTest, AllZeroConfigIsDisarmed) {
  const FaultSchedule none{FaultConfig{}};
  EXPECT_FALSE(none.Armed());
  EXPECT_FALSE(none.ReadFails(7, 12345));
  EXPECT_EQ(none.LatencySpikeExtraUs(7, 12345, 5000), 0);
  EXPECT_EQ(none.ChannelOutageEndUs(0, 12345), 0);
}

TEST(FaultScheduleTest, AnyPositiveProbabilityArms) {
  FaultConfig read_only;
  read_only.read_failure_prob = 0.01;
  EXPECT_TRUE(FaultSchedule(read_only).Armed());
  FaultConfig spike_only;
  spike_only.latency_spike_prob = 0.01;
  EXPECT_TRUE(FaultSchedule(spike_only).Armed());
  FaultConfig outage_only;
  outage_only.channel_outage_prob = 0.01;
  EXPECT_TRUE(FaultSchedule(outage_only).Armed());
  // Zero-duration outages can never fire: still disarmed.
  outage_only.channel_outage_us = 0;
  EXPECT_FALSE(FaultSchedule(outage_only).Armed());
}

TEST(FaultScheduleTest, DrawsArePureFunctionsOfCoordinates) {
  const FaultSchedule a{AllOn(42)};
  const FaultSchedule b{AllOn(42)};  // Independent instance, same seed.
  for (PageId page = 0; page < 200; ++page) {
    for (SimMicros now : {0, 999, 123456, 98765432}) {
      ASSERT_EQ(a.ReadFails(page, now), b.ReadFails(page, now));
      ASSERT_EQ(a.LatencySpikeExtraUs(page, now, 5000),
                b.LatencySpikeExtraUs(page, now, 5000));
    }
  }
  for (uint32_t channel = 0; channel < 8; ++channel) {
    for (SimMicros now : {0, 50000, 123456, 98765432}) {
      ASSERT_EQ(a.ChannelOutageEndUs(channel, now),
                b.ChannelOutageEndUs(channel, now));
    }
  }
}

TEST(FaultScheduleTest, DifferentSeedsGiveDifferentPatterns) {
  const FaultSchedule a{AllOn(1)};
  const FaultSchedule b{AllOn(2)};
  int diff = 0;
  for (PageId page = 0; page < 500; ++page) {
    if (a.ReadFails(page, 0) != b.ReadFails(page, 0)) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(FaultScheduleTest, FailureRateTracksTheConfiguredProbability) {
  const FaultSchedule s{AllOn(7)};
  int failures = 0;
  constexpr int kPages = 20000;
  for (PageId page = 0; page < kPages; ++page) {
    if (s.ReadFails(page, 0)) ++failures;
  }
  // 30% +- generous slack (deterministic, so this cannot flake).
  EXPECT_GT(failures, kPages / 5);
  EXPECT_LT(failures, kPages / 2);
}

TEST(FaultScheduleTest, ReadFailurePersistsWithinItsBurstWindow) {
  const FaultSchedule s{AllOn(11)};
  const SimMicros burst = s.config().read_failure_burst_us;
  // Find a (page, burst-window) pair that fails, then require the draw to
  // be constant across the whole window.
  for (PageId page = 0; page < 1000; ++page) {
    if (!s.ReadFails(page, 0)) continue;
    for (SimMicros t = 0; t < burst; t += burst / 8) {
      ASSERT_TRUE(s.ReadFails(page, t)) << "page " << page << " t " << t;
    }
    return;
  }
  FAIL() << "no failing page found at 30% failure rate";
}

TEST(FaultScheduleTest, OutageIsAContiguousWindowWithinItsPeriod) {
  const FaultSchedule s{AllOn(3)};
  const SimMicros period = s.config().channel_outage_period_us;
  const SimMicros duration = s.config().channel_outage_us;
  // Scan a few periods of channel 0; wherever an outage covers `now`, the
  // reported end must be consistent and the covered span exactly
  // `duration` long within one period.
  for (int w = 0; w < 20; ++w) {
    const SimMicros base = static_cast<SimMicros>(w) * period;
    SimMicros first_covered = -1;
    SimMicros end = 0;
    for (SimMicros t = base; t < base + period; t += 500) {
      const SimMicros e = s.ChannelOutageEndUs(0, t);
      if (e > 0) {
        ASSERT_GT(e, t);
        ASSERT_LE(e, base + period);
        if (first_covered < 0) {
          first_covered = t;
          end = e;
        } else {
          ASSERT_EQ(e, end);  // One outage, one end, per window.
        }
        // Exactly at the end the channel serves again (unless the end
        // coincides with the next window, which draws independently).
        if (e < base + period) {
          ASSERT_EQ(s.ChannelOutageEndUs(0, e), 0);
        }
      }
    }
    if (first_covered >= 0) {
      // The covered span is at most the duration (sampled at 500 µs).
      ASSERT_LE(end - first_covered, duration);
      return;
    }
  }
  FAIL() << "no outage found in 20 windows at 50% outage probability";
}

TEST(FaultScheduleTest, LatencySpikeScalesTheBaseCost) {
  const FaultSchedule s{AllOn(5)};
  for (PageId page = 0; page < 2000; ++page) {
    const SimMicros extra = s.LatencySpikeExtraUs(page, 0, 5000);
    if (extra > 0) {
      // multiplier 8.0: extra = base * 7.
      EXPECT_EQ(extra, 5000 * 7);
      // Scales with the base cost (sequential reads spike too, cheaply).
      EXPECT_EQ(s.LatencySpikeExtraUs(page, 0, 20), 20 * 7);
      return;
    }
  }
  FAIL() << "no spike found at 20% spike probability";
}

TEST(FaultScheduleTest, ConfigClampsDegenerateValues) {
  FaultConfig config;
  config.read_failure_prob = 0.5;
  config.read_failure_burst_us = 0;      // Clamped to 1.
  config.channel_outage_prob = 0.5;
  config.channel_outage_period_us = 0;   // Clamped to 1.
  config.channel_outage_us = 99;         // Clamped to the period.
  const FaultSchedule s{config};
  EXPECT_EQ(s.config().read_failure_burst_us, 1);
  EXPECT_EQ(s.config().channel_outage_period_us, 1);
  EXPECT_LE(s.config().channel_outage_us,
            s.config().channel_outage_period_us);
  // Must not divide by zero.
  (void)s.ReadFails(1, 1000);
  (void)s.ChannelOutageEndUs(0, 1000);
}

TEST(FaultScheduleTest, SessionJitterSeedsAreStableAndDistinct) {
  const uint64_t a0 = FaultSchedule::SessionJitterSeed(99, 0);
  EXPECT_EQ(a0, FaultSchedule::SessionJitterSeed(99, 0));
  EXPECT_NE(a0, FaultSchedule::SessionJitterSeed(99, 1));
  EXPECT_NE(a0, FaultSchedule::SessionJitterSeed(100, 0));
}

}  // namespace
}  // namespace scout
