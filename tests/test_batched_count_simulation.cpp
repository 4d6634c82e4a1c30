// Tests for the batched count simulator: API behavior, exact interaction
// accounting, and — the load-bearing property — distributional equivalence
// with the sequential CountSimulation at fixed parallel time, via two-sample
// chi-square tests on the final configuration across many trials.
//
// (The equivalence protocols are the epidemic and the 3-state majority
// protocol — the count-level core of the uniform-majority construction; the
// full Composed<MajorityStage> protocol is agent-level and cannot run on a
// configuration vector.)
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/headline.hpp"
#include "compile/lazy.hpp"
#include "harness/trials.hpp"
#include "proto/epidemic.hpp"
#include "proto/semilinear.hpp"
#include "sim/batched_count_simulation.hpp"
#include "sim/count_simulation.hpp"
#include "stats/chi_square.hpp"

namespace pops {
namespace {

TEST(BatchedCountSimulation, ConservesPopulation) {
  BatchedCountSimulation sim(epidemic_spec(), 1);
  sim.set_count("S", 99);
  sim.set_count("I", 1);
  sim.steps(5000);
  EXPECT_EQ(sim.population_size(), 100u);
  EXPECT_EQ(sim.count("S") + sim.count("I"), 100u);
}

TEST(BatchedCountSimulation, StepsAdvancesExactInteractionCount) {
  BatchedCountSimulation sim(epidemic_spec(), 2);
  sim.set_count("S", 9999);
  sim.set_count("I", 1);
  for (const std::uint64_t k : {1ull, 2ull, 17ull, 1000ull, 123457ull}) {
    const auto before = sim.interactions();
    sim.steps(k);
    EXPECT_EQ(sim.interactions(), before + k);
  }
  sim.advance_time(2.5);
  EXPECT_EQ(sim.interactions(), 1ull + 2 + 17 + 1000 + 123457 + 25000);
}

TEST(BatchedCountSimulation, EpidemicCompletes) {
  BatchedCountSimulation sim(epidemic_spec(), 7);
  sim.set_count("S", 999);
  sim.set_count("I", 1);
  const double t = sim.run_until(
      [](const BatchedCountSimulation& s) { return s.count("S") == 0; }, 1.0, 1000.0);
  EXPECT_GE(t, 0.0);
  EXPECT_EQ(sim.count("I"), 1000u);
}

TEST(BatchedCountSimulation, LargePopulationEpidemicCompletesFast) {
  // 10^6 agents, ~logarithmic parallel time; exercises the HRUA samplers and
  // the long-batch path end to end.
  BatchedCountSimulation sim(epidemic_spec(), 11);
  sim.set_count("S", 999999);
  sim.set_count("I", 1);
  const double t = sim.run_until(
      [](const BatchedCountSimulation& s) { return s.count("S") == 0; }, 2.0, 200.0);
  EXPECT_GE(t, 0.0);
  EXPECT_LE(t, 60.0);  // epidemic finishes in ~2 lg n ~ 40 parallel time whp
  EXPECT_EQ(sim.count("I"), 1000000u);
}

TEST(BatchedCountSimulation, MonotoneInfectionAndDeterminism) {
  BatchedCountSimulation a(epidemic_spec(), 42), b(epidemic_spec(), 42);
  for (auto* sim : {&a, &b}) {
    sim->set_count("S", 5000);
    sim->set_count("I", 5);
  }
  std::uint64_t last = 5;
  for (int i = 0; i < 100; ++i) {
    a.steps(250);
    b.steps(250);
    EXPECT_GE(a.count("I"), last);
    last = a.count("I");
    ASSERT_EQ(a.count("I"), b.count("I")) << "same seed must agree";
  }
}

TEST(BatchedCountSimulation, StepRequiresTwoAgents) {
  FiniteSpec spec;
  spec.add("a", "a", "a", "a");
  BatchedCountSimulation sim(spec, 1);
  sim.set_count("a", 1);
  EXPECT_THROW(sim.step(), std::invalid_argument);
}

TEST(BatchedCountSimulation, RandomizedRatesRespected) {
  // Lazy epidemic (rate 0.25): infection spreads at a quarter of the pace,
  // so after fixed parallel time the infected count must sit between the
  // all-null and rate-1.0 extremes; mean conversion count checked against
  // the sequential simulator in the equivalence tests below.  (Ten initial
  // carriers: a single carrier goes untouched for 4 parallel time units in
  // ~10% of runs — seed-sensitive either way — while ten all idling is a
  // 10^-10 event.)
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I", 0.25);
  BatchedCountSimulation sim(spec, 5);
  sim.set_count("S", 100000 - 10);
  sim.set_count("I", 10);
  sim.advance_time(4.0);
  EXPECT_GT(sim.count("I"), 10u);
  EXPECT_LT(sim.count("I"), 100000u);
}

/// A synthetic spread protocol over `k` states: with every state populated
/// at n = 10⁹, epochs run ~28k interactions over hundreds of occupied
/// classes and take the shuffle pairing path.  A mix of deterministic,
/// randomized-with-residual, and null cells exercises every apply_cell
/// branch.
FiniteSpec make_spread_spec(std::uint32_t k) {
  FiniteSpec spec;
  for (std::uint32_t i = 0; i < k; ++i) spec.state("s" + std::to_string(i));
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = 0; b < k; ++b) {
      switch ((a * 7 + b * 3) % 5) {
        case 0:
          spec.add(a, b, (a + b + 1) % k, (3 * a + b + 7) % k);
          break;
        case 1:
          spec.add(a, b, (a + 2 * b) % k, b, 0.6);
          spec.add(a, b, (a + 5) % k, (b + 11) % k, 0.3);  // residual null mass
          break;
        default:
          break;  // null cell
      }
    }
  }
  spec.validate();
  return spec;
}

std::vector<std::uint64_t> run_spread(std::uint64_t n, std::uint64_t steps,
                                      std::uint64_t seed) {
  static const FiniteSpec spec = make_spread_spec(600);
  BatchedCountSimulation sim(spec, seed);
  for (std::uint32_t i = 0; i < spec.num_states(); ++i) {
    sim.set_count(i, n / spec.num_states());
  }
  sim.steps(steps);
  return sim.counts();
}

TEST(BatchedCountSimulation, LongEpochsBypassTheAgentDraw) {
  // n = 10⁹ over 600 classes: epochs run ~28k interactions, far past the
  // agent-draw crossover, so every epoch takes the joint draw.
  static const FiniteSpec spec = make_spread_spec(600);
  BatchedCountSimulation sim(spec, 0x111);
  for (std::uint32_t i = 0; i < spec.num_states(); ++i) {
    sim.set_count(i, 1'000'000'000 / spec.num_states());
  }
  sim.steps(120'000);
  const EpochStats& stats = sim.stats();
  EXPECT_GT(stats.epochs, 0u);
  EXPECT_EQ(stats.agent_epochs, 0u);
  EXPECT_EQ(stats.dense_epochs + stats.shuffle_epochs, stats.epochs);
}

TEST(BatchedCountSimulation, StatsCountEpochsAndResetZeroesThem) {
  BatchedCountSimulation sim(make_spread_spec(64), 3);
  for (std::uint32_t i = 0; i < 64; ++i) sim.set_count(i, 30);
  sim.steps(5000);
  const EpochStats stats = sim.stats();
  EXPECT_EQ(stats.interactions, 5000u);
  EXPECT_GT(stats.agent_epochs, 0u);
  EXPECT_EQ(stats.agent_epochs + stats.dense_epochs + stats.shuffle_epochs, stats.epochs);
  sim.reset(3);
  EXPECT_EQ(sim.stats().epochs, 0u);
  EXPECT_EQ(sim.stats().interactions, 0u);
  EXPECT_EQ(sim.stats().agent_epochs, 0u);
}

TEST(BatchedCountSimulation, PositionStampWrapForgetsOlderEpochs) {
  // The agent draw's position set marks entries live by a 16-bit epoch
  // stamp and is zeroed when the stamp wraps.  Replay some epochs once
  // their stamps come round again: if the wrap kept their old entries, the
  // replay's first positions would read as already drawn, get redrawn, and
  // the replay would diverge.
  const FiniteSpec spec = make_spread_spec(64);
  BatchedCountSimulation sim(spec, 1);
  auto populate = [&](std::uint32_t states, std::uint64_t per_state) {
    for (std::uint32_t i = 0; i < states; ++i) sim.set_count(i, per_state);
  };
  auto single_steps = [&](std::uint64_t k) {
    std::vector<std::vector<std::uint64_t>> trail;
    for (std::uint64_t i = 0; i < k; ++i) {
      sim.steps(1);
      trail.push_back(sim.counts());
    }
    return trail;
  };
  // ~50-interaction agent epochs grow the set to hundreds of slots, so the
  // replayed epochs' entries are not overwritten by the 12-agent epochs.
  populate(64, 100);
  sim.steps(20'000);
  ASSERT_EQ(sim.stats().agent_epochs, sim.stats().epochs);
  const std::uint64_t stamps_before = sim.stats().epochs;
  ASSERT_LT(stamps_before + 50, 65535u);

  const std::uint64_t kReplayed = 50;
  sim.reset(7);
  populate(64, 100);
  const auto first = single_steps(kReplayed);
  // Spend the remaining stamps of the cycle on 12 agents (positions 0..11).
  sim.reset(8);
  populate(6, 2);
  for (std::uint64_t i = 0; i < 65535 - kReplayed; ++i) sim.steps(1);
  ASSERT_EQ(sim.stats().agent_epochs, 65535 - kReplayed);
  sim.reset(7);
  populate(64, 100);
  EXPECT_EQ(single_steps(kReplayed), first);
}

TEST(BatchedCountSimulation, DistinctSeedsStayDistinct) {
  // Guard against a substream-derivation bug collapsing seeds: two master
  // seeds must not replay each other's epochs.
  const auto a = run_spread(1'000'000'000, 120'000, 0x111);
  const auto b = run_spread(1'000'000'000, 120'000, 0x222);
  EXPECT_NE(a, b);
}

/// Nonzero entries by state id: JIT simulators sharing one table may hold
/// count vectors of different lengths (each syncs to the states it has seen).
std::map<std::uint32_t, std::uint64_t> occupied_counts(
    const std::vector<std::uint64_t>& counts) {
  std::map<std::uint32_t, std::uint64_t> out;
  for (std::uint32_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0) out[i] = counts[i];
  }
  return out;
}

std::uint64_t sum_counts(const BatchedCountSimulation& sim) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : sim.counts()) total += c;
  return total;
}

TEST(BatchedCountSimulation, ResetReplaysAFreshRunEager) {
  const auto proto = log_size_tiny();
  const auto compiled =
      ProtocolCompiler<Bounded<LogSizeEstimation>>(proto, proto.geometric_cap()).compile();
  const std::uint32_t init = compiled.initial_states().at(0);
  const std::uint64_t n = 200'000;
  BatchedCountSimulation fresh(compiled.spec, 0xF00D);
  fresh.set_count(init, n);
  fresh.advance_time(6.0);

  BatchedCountSimulation reused(compiled.spec, 0xBEEF);
  reused.set_count(init, n);
  reused.advance_time(3.5);  // a different trajectory, stopped mid-run
  reused.reset(0xF00D);
  EXPECT_EQ(reused.population_size(), 0u);
  EXPECT_EQ(reused.interactions(), 0u);
  reused.set_count(init, n);
  reused.advance_time(6.0);
  EXPECT_EQ(reused.counts(), fresh.counts());
  EXPECT_EQ(reused.interactions(), fresh.interactions());
}

TEST(BatchedCountSimulation, ResetReplaysAFreshRunJit) {
  const auto proto = log_size_tiny();
  LazyCompiledSpec<Bounded<LogSizeEstimation>> lazy(proto, proto.geometric_cap());
  const std::uint64_t n = 200'000;
  BatchedCountSimulation reused(lazy, 0xBEEF);
  Rng dirty_rng(3);
  lazy.seed_initial(reused, n, dirty_rng);
  reused.advance_time(3.5);

  BatchedCountSimulation fresh(lazy, 0xF00D);
  Rng fresh_rng(9);
  lazy.seed_initial(fresh, n, fresh_rng);
  fresh.advance_time(6.0);

  reused.reset(0xF00D);
  Rng replay_rng(9);
  lazy.seed_initial(reused, n, replay_rng);
  reused.advance_time(6.0);
  EXPECT_EQ(occupied_counts(reused.counts()), occupied_counts(fresh.counts()));
  EXPECT_EQ(reused.interactions(), fresh.interactions());
}

TEST(BatchedCountSimulation, FailedEpochRefusesStepsUntilReset) {
  // A JIT pair limit throws mid-epoch, with agents drawn out of the
  // configuration.  Stepping on would silently lose them; instead every
  // later step refuses until reset(seed) rebuilds a valid state, after which
  // the simulator replays a fresh one bit for bit.
  const auto proto = log_size_tiny();
  CompileOptions opts;
  opts.max_pairs = 40;
  LazyCompiledSpec<Bounded<LogSizeEstimation>> lazy(proto, proto.geometric_cap(), opts);
  const std::uint64_t n = 100'000;
  const std::uint64_t seed = 5;
  BatchedCountSimulation sim(lazy, seed);
  Rng seed_rng(1);
  lazy.seed_initial(sim, n, seed_rng);
  EXPECT_THROW(sim.advance_time(5.0), std::invalid_argument);  // "pair explosion"
  const std::uint64_t stuck = sim.interactions();
  ASSERT_GT(stuck, 0u);
  for (const std::uint64_t k : {0ull, 1ull, 1000ull}) {
    try {
      sim.steps(k);
      ADD_FAILURE() << "steps(" << k << ") ran after a failed epoch";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("reset(seed)"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(sim.interactions(), stuck);

  sim.reset(seed);
  EXPECT_EQ(sim.population_size(), 0u);
  EXPECT_EQ(sum_counts(sim), 0u);
  Rng replay_rng(1);
  lazy.seed_initial(sim, n, replay_rng);
  EXPECT_EQ(sum_counts(sim), n);
  // Replaying every epoch that completed before the failure needs no new
  // pair, and reaches the states whose scratch the failed epoch left dirty.
  sim.steps(stuck);
  EXPECT_EQ(sum_counts(sim), sim.population_size());

  BatchedCountSimulation fresh(lazy, seed);
  Rng fresh_rng(1);
  lazy.seed_initial(fresh, n, fresh_rng);
  fresh.steps(stuck);
  EXPECT_EQ(occupied_counts(sim.counts()), occupied_counts(fresh.counts()));
}

TEST(BatchedCountSimulation, FailedAgentEpochRefusesStepsUntilReset) {
  // As above, but at n = 100 every epoch of this seed is short against its
  // occupied classes, so the pair-limit throw lands inside an agent-drawn
  // epoch — after its agents left the configuration, while its cells apply.
  const auto proto = log_size_tiny();
  CompileOptions opts;
  opts.max_pairs = 40;
  LazyCompiledSpec<Bounded<LogSizeEstimation>> lazy(proto, proto.geometric_cap(), opts);
  const std::uint64_t n = 100;
  const std::uint64_t seed = 5;
  BatchedCountSimulation sim(lazy, seed);
  Rng seed_rng(2);
  lazy.seed_initial(sim, n, seed_rng);
  EXPECT_THROW(sim.advance_time(50.0), std::invalid_argument);  // "pair explosion"
  ASSERT_GT(sim.stats().agent_epochs, 0u);
  ASSERT_EQ(sim.stats().agent_epochs, sim.stats().epochs) << "an epoch took the joint draw";
  const std::uint64_t stuck = sim.interactions();
  EXPECT_THROW(sim.steps(1), std::invalid_argument);
  EXPECT_EQ(sim.interactions(), stuck);

  sim.reset(seed);
  Rng replay_rng(2);
  lazy.seed_initial(sim, n, replay_rng);
  sim.steps(stuck);
  EXPECT_EQ(sum_counts(sim), n);

  BatchedCountSimulation fresh(lazy, seed);
  Rng fresh_rng(2);
  lazy.seed_initial(fresh, n, fresh_rng);
  fresh.steps(stuck);
  EXPECT_EQ(occupied_counts(sim.counts()), occupied_counts(fresh.counts()));
  EXPECT_EQ(sim.stats().epochs, fresh.stats().epochs);
}

// ------------------------------------------------------------------------
// Distributional equivalence: batched and sequential simulators must induce
// statistically indistinguishable configuration distributions.
// ------------------------------------------------------------------------

template <typename Sim>
std::map<std::uint64_t, std::uint64_t> final_count_histogram(
    const FiniteSpec& spec, const std::vector<std::pair<std::string, std::uint64_t>>& init,
    const std::string& observable, double parallel_time, std::uint64_t trials,
    std::uint64_t master_seed) {
  std::map<std::uint64_t, std::uint64_t> histogram;
  for (std::uint64_t i = 0; i < trials; ++i) {
    Sim sim(spec, trial_seed(master_seed, i));
    for (const auto& [state, c] : init) sim.set_count(state, c);
    sim.advance_time(parallel_time);
    ++histogram[sim.count(observable)];
  }
  return histogram;
}

TEST(BatchedEquivalence, EpidemicConfigurationDistribution) {
  const auto spec = epidemic_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"S", 295}, {"I", 5}};
  const auto sequential = final_count_histogram<CountSimulation>(
      spec, init, "I", 2.0, 4000, 0xAAA1);
  const auto batched = final_count_histogram<BatchedCountSimulation>(
      spec, init, "I", 2.0, 4000, 0xBBB2);
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

TEST(BatchedEquivalence, MajorityConfigurationDistribution) {
  // 3-state majority on a 160/140 split, observed at 3 parallel time units
  // (mid-convergence, where distributional differences would show).
  const auto spec = approximate_majority_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"x", 160}, {"y", 140}};
  const auto sequential = final_count_histogram<CountSimulation>(
      spec, init, "x", 3.0, 4000, 0xCCC3);
  const auto batched = final_count_histogram<BatchedCountSimulation>(
      spec, init, "x", 3.0, 4000, 0xDDD4);
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

TEST(BatchedEquivalence, RandomizedRateConfigurationDistribution) {
  // Lazy epidemic exercises the binomial splitting of randomized cells.
  FiniteSpec spec;
  spec.add_symmetric("S", "I", "I", "I", 0.3);
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"S", 290}, {"I", 10}};
  const auto sequential = final_count_histogram<CountSimulation>(
      spec, init, "I", 3.0, 4000, 0xEEE5);
  const auto batched = final_count_histogram<BatchedCountSimulation>(
      spec, init, "I", 3.0, 4000, 0xFFF6);
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

TEST(BatchedEquivalence, TinyPopulationDistribution) {
  // n = 4 stresses every edge of the collision machinery (forced collisions,
  // empty untouched pools) where an off-by-one would skew the distribution.
  const auto spec = epidemic_spec();
  const std::vector<std::pair<std::string, std::uint64_t>> init{{"S", 3}, {"I", 1}};
  const auto sequential = final_count_histogram<CountSimulation>(
      spec, init, "I", 1.5, 6000, 0x1111);
  const auto batched = final_count_histogram<BatchedCountSimulation>(
      spec, init, "I", 1.5, 6000, 0x2222);
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

/// Histogram of state `observable`'s final count over `trials` runs from
/// `init` (indexed by state id).  For the batched simulator, `stats` sums
/// the runs' epoch counters.
template <typename Sim>
std::map<std::uint64_t, std::uint64_t> spread_histogram(
    const FiniteSpec& spec, const std::vector<std::uint64_t>& init, std::uint32_t observable,
    double parallel_time, std::uint64_t trials, std::uint64_t master_seed,
    EpochStats* stats = nullptr) {
  std::map<std::uint64_t, std::uint64_t> histogram;
  for (std::uint64_t i = 0; i < trials; ++i) {
    Sim sim(spec, trial_seed(master_seed, i));
    for (std::uint32_t s = 0; s < init.size(); ++s) sim.set_count(s, init[s]);
    sim.advance_time(parallel_time);
    if constexpr (std::is_same_v<Sim, BatchedCountSimulation>) {
      stats->epochs += sim.stats().epochs;
      stats->agent_epochs += sim.stats().agent_epochs;
    }
    ++histogram[sim.count(observable)];
  }
  return histogram;
}

TEST(BatchedEquivalence, AgentDrawManyStatesDistribution) {
  // 64 states at n = 2000: epochs of ~28 interactions against 35–64
  // occupied classes, so every epoch draws its agents one by one.  The
  // spread spec's null, deterministic and randomized-with-residual cells
  // all apply, and every epoch but a truncated last one ends in a
  // collision.  A skewed start keeps the observable in its transient.
  const FiniteSpec spec = make_spread_spec(64);
  std::vector<std::uint64_t> init(64, 0);
  init[0] = 1000;
  init[1] = 500;
  for (std::uint32_t i = 2; i < 34; ++i) init[i] = 15;
  init[34] = 20;
  EpochStats stats;
  const auto sequential =
      spread_histogram<CountSimulation>(spec, init, 0, 1.0, 3000, 0x5EED1);
  const auto batched =
      spread_histogram<BatchedCountSimulation>(spec, init, 0, 1.0, 3000, 0x5EED2, &stats);
  EXPECT_GT(stats.agent_epochs, 0u);
  EXPECT_EQ(stats.agent_epochs, stats.epochs);
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

TEST(BatchedEquivalence, AgentDrawTinyPopulationDistribution) {
  // n = 12 over 6 states: a batch of t interactions draws 2t of the 12
  // agents, so repeated positions are redrawn often, and collisions end
  // nearly every epoch.
  const FiniteSpec spec = make_spread_spec(6);
  const std::vector<std::uint64_t> init(6, 2);
  EpochStats stats;
  const auto sequential =
      spread_histogram<CountSimulation>(spec, init, 0, 2.0, 6000, 0x7117);
  const auto batched =
      spread_histogram<BatchedCountSimulation>(spec, init, 0, 2.0, 6000, 0x7118, &stats);
  EXPECT_GT(stats.agent_epochs, 0u);
  EXPECT_EQ(stats.agent_epochs, stats.epochs);
  const auto verdict = two_sample_chi_square(sequential, batched);
  EXPECT_TRUE(verdict.accept())
      << "chi-square " << verdict.statistic << " at df " << verdict.df
      << " (critical " << chi_square_critical(verdict.df) << ")";
}

}  // namespace
}  // namespace pops
