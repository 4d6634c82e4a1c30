// Unit tests for the count-based simulator and FiniteSpec.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/count_simulation.hpp"
#include "sim/finite_spec.hpp"

namespace pops {
namespace {

TEST(FiniteSpec, StateRegistrationIsIdempotent) {
  FiniteSpec spec;
  const auto a = spec.state("a");
  const auto a2 = spec.state("a");
  EXPECT_EQ(a, a2);
  EXPECT_EQ(spec.num_states(), 1u);
  EXPECT_EQ(spec.name(a), "a");
}

TEST(FiniteSpec, UnknownStateLookupThrows) {
  FiniteSpec spec;
  spec.state("a");
  EXPECT_THROW(spec.id("b"), std::invalid_argument);
  EXPECT_FALSE(spec.has_state("b"));
}

TEST(FiniteSpec, RateValidation) {
  FiniteSpec spec;
  EXPECT_THROW(spec.add("a", "b", "c", "d", 0.0), std::invalid_argument);
  EXPECT_THROW(spec.add("a", "b", "c", "d", 1.5), std::invalid_argument);
  spec.add("a", "b", "c", "d", 0.7);
  spec.add("a", "b", "d", "c", 0.6);
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // total 1.3 > 1
}

TEST(FiniteSpec, InterleavedPairRatesSumAcrossTheList) {
  // The (a, b) transitions are not adjacent in the list, nor within row a:
  // a check that summed only contiguous runs would see 0.6 and 0.5 apart.
  FiniteSpec spec;
  spec.add("a", "b", "c", "d", 0.6);
  spec.add("a", "c", "c", "d", 0.5);
  spec.add("b", "b", "c", "d", 0.5);
  spec.add("a", "d", "c", "d", 0.5);
  spec.add("a", "b", "d", "c", 0.5);
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // (a, b) totals 1.1
}

TEST(FiniteSpec, SameSenderInTwoRowsIsTwoPairs) {
  // Sender s carries 0.6 in row r1 and 0.6 in row r2: two pairs, each under
  // 1, so the per-row totals must start from zero in every row.
  FiniteSpec spec;
  spec.add("r1", "s", "x", "y", 0.6);
  spec.add("r2", "s", "x", "y", 0.6);
  spec.add("r1", "x", "x", "y", 0.4);
  spec.add("r2", "s", "y", "x", 0.3);
  EXPECT_NO_THROW(spec.validate());
  // And a sender seen in an earlier row is still checked in a later one.
  FiniteSpec later;
  later.add("r1", "s", "x", "y", 0.3);
  later.add("r2", "s", "x", "y", 0.6);
  later.add("r2", "s", "y", "x", 0.5);
  EXPECT_THROW(later.validate(), std::invalid_argument);  // (r2, s) totals 1.1
}

TEST(FiniteSpec, PairTotalToleranceIsOneInATrillion) {
  FiniteSpec within;
  within.add("a", "b", "c", "d", 0.5);
  within.add("a", "b", "d", "c", 0.5 + 1e-13);
  EXPECT_NO_THROW(within.validate());
  FiniteSpec beyond;
  beyond.add("a", "b", "c", "d", 0.5);
  beyond.add("a", "b", "d", "c", 0.5 + 1e-11);
  EXPECT_THROW(beyond.validate(), std::invalid_argument);
}

TEST(FiniteSpec, ValidateGroupsTransitionsByReceiverInListOrder) {
  FiniteSpec spec;
  spec.add("b", "a", "a", "a");       // 0
  spec.add("a", "b", "b", "b", 0.5);  // 1
  spec.add("c", "c", "a", "a");       // 2
  spec.add("a", "a", "b", "b");       // 3
  spec.add("a", "b", "a", "a", 0.5);  // 4
  const auto rows = spec.validate();
  // Ids: b = 0, a = 1, c = 2.
  EXPECT_EQ(rows.row_start, (std::vector<std::uint32_t>{0, 1, 4, 5}));
  EXPECT_EQ(rows.order, (std::vector<std::uint32_t>{0, 1, 3, 4, 2}));
}

TEST(FiniteSpec, TotalRateSums) {
  FiniteSpec spec;
  spec.add("a", "b", "c", "d", 0.25);
  spec.add("a", "b", "d", "c", 0.5);
  EXPECT_DOUBLE_EQ(spec.total_rate(spec.id("a"), spec.id("b")), 0.75);
}

TEST(CountSimulation, ConservesPopulation) {
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I");
  CountSimulation sim(spec, 1);
  sim.set_count("S", 99);
  sim.set_count("I", 1);
  sim.steps(5000);
  EXPECT_EQ(sim.population_size(), 100u);
  EXPECT_EQ(sim.count("S") + sim.count("I"), 100u);
}

TEST(CountSimulation, EpidemicCompletes) {
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I");
  CountSimulation sim(spec, 7);
  sim.set_count("S", 999);
  sim.set_count("I", 1);
  const double t = sim.run_until(
      [](const CountSimulation& s) { return s.count("S") == 0; }, 1.0, 1000.0);
  EXPECT_GE(t, 0.0);
  EXPECT_EQ(sim.count("I"), 1000u);
}

TEST(CountSimulation, InfectedCountIsMonotone) {
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I");
  CountSimulation sim(spec, 3);
  sim.set_count("S", 499);
  sim.set_count("I", 1);
  std::uint64_t last = 1;
  for (int i = 0; i < 200; ++i) {
    sim.steps(50);
    EXPECT_GE(sim.count("I"), last);
    last = sim.count("I");
  }
}

TEST(CountSimulation, RandomizedTransitionRatesRespected) {
  // a,b -> c,b with rate 0.25: starting from 1 a and n-1 b, the number of
  // (a,b) meetings before conversion is geometric with mean 4.
  FiniteSpec spec;
  spec.add_symmetric("a", "b", "c", "b", 0.25);
  double total_conversion_meetings = 0.0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    CountSimulation sim(spec, 100 + trial);
    sim.set_count("a", 1);
    sim.set_count("b", 9);
    std::uint64_t meetings = 0;
    while (sim.count("c") == 0) {
      // Count only steps where the (a,b) pair could have met: simulate one
      // step and count meetings via interaction counting is awkward; instead
      // just count all steps and rescale by the meeting probability.
      sim.step();
      ++meetings;
    }
    total_conversion_meetings += static_cast<double>(meetings);
  }
  // P(meet) per step = 2 * 1 * 9 / (10 * 9) = 0.2; conversion per step = 0.05
  // => expected steps to convert = 20.
  EXPECT_NEAR(total_conversion_meetings / kTrials, 20.0, 3.0);
}

TEST(CountSimulation, DeterministicForSameSeed) {
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I");
  CountSimulation a(spec, 42), b(spec, 42);
  for (auto* sim : {&a, &b}) {
    sim->set_count("S", 200);
    sim->set_count("I", 5);
    sim->steps(1000);
  }
  EXPECT_EQ(a.count("I"), b.count("I"));
}

TEST(CountSimulation, StepRequiresTwoAgents) {
  FiniteSpec spec;
  spec.add("a", "a", "a", "a");
  CountSimulation sim(spec, 1);
  sim.set_count("a", 1);
  EXPECT_THROW(sim.step(), std::invalid_argument);
}

}  // namespace
}  // namespace pops
