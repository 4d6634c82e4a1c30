// Batched count-based simulator: Θ(√n) interactions per RNG epoch.
//
// The paper measures protocols in parallel time (= interactions / n), so its
// convergence figures at n = 10⁸–10¹² need Θ(n polylog n) interactions per
// trial — hopeless at O(log S) Fenwick work per interaction.  This simulator
// uses the batching technique of ppsim (Doty–Severson, CMSB 2021; cf.
// Berenbrink et al., "Simulating Population Protocols in Sub-Constant Time
// per Interaction"): between two interactions that touch the same agent,
// interactions commute, so the chain can be advanced in collision-free
// batches whose length follows the birthday distribution — expected
// Θ(√n) interactions per epoch — with each batch applied by count arithmetic.
//
// One epoch, exactly distribution-preserving w.r.t. the sequential chain:
//   1. Sample L = index of the first interaction that reuses an agent
//      ("collision"), via inversion of the birthday survival function
//      P(L > t) = (n)_{2t} / (n(n-1))^t  (binary search, O(log n) evals).
//   2. The 2t = 2(L−1) agents of the collision-free prefix are a uniform
//      sample without replacement from the configuration, paired by a
//      uniform matching; every transition is then applied by count
//      arithmetic (randomized transitions split by binomial draws).  Three
//      exact samplers draw and pair them, chosen per epoch:
//        * agent — when the epoch is short against its occupied classes
//          (2t ≤ kAgentDrawFactor · occupancy): draw 2t distinct agent
//          positions one by one and pair draw a with draw t + a.  O(t),
//          independent of occupancy.
//        * otherwise the *joint* state multiset of the 2t agents is one
//          multivariate hypergeometric pass over the occupied classes,
//          split into receiver/sender multisets (the receivers are a
//          uniform t-subset of the 2t agents, so the receiver class counts
//          are again multivariate hypergeometric), and paired by either
//            - dense — a contingency table, one hypergeometric per cell,
//              when the occupied grid is tiny against t; or
//            - shuffle — a uniformly shuffled sender multiset.
//      The choice depends only on t and the configuration, so it is itself
//      a function of the seed.
//   3. Resolve the single colliding interaction exactly: the repeated agent
//      is uniform among the 2(L−1) touched agents (whose post-batch states
//      are known as a multiset), its partner uniform among touched/untouched
//      pools with the exact conditional weights.
//
// Epochs are serial.  Each one draws from counter-based RNG substreams keyed
// (seed, epoch, stream) — sim/rng.hpp `substream_seed` — so a run is a pure
// function of its seed and initial configuration.  The process-wide executor
// (core/executor.hpp) never enters an epoch: its width changes how many
// trials run at once (harness/trials.hpp) and how fast an eager compile
// closes, never a per-seed trajectory.  Parallelism lives there because
// that is where it pays; a single run's epochs are tens of microseconds of
// dependent sampling, as in ppsim's batching, which is itself serial.
//
// Every per-epoch structure is sparse in the *occupied* state classes — a
// persistent occupied-class list (compacted once per epoch) drives the
// hypergeometric pass, touched-class lists drive the merges, and scratch is
// cleared by id list rather than by O(S) fills — so a 10⁴–10⁵-state compiled
// spec pays for the classes it populates, not for S.  Dispatch goes through
// the sparse `DispatchTable` rows; with a `JitCompiler` source, pairs
// compile on first contact and the count vectors grow as states intern.
//
// Truncating an epoch after a fixed number of interactions is also exact —
// whether a prefix is collision-free depends only on agent identities, which
// are independent of agent states — so `steps(k)` advances exactly k
// interactions and the `step/steps/advance_time/run_until` API matches
// `CountSimulation` precisely; every experiment can switch simulators with a
// template parameter.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/dispatch.hpp"
#include "sim/finite_spec.hpp"
#include "sim/int128.hpp"
#include "sim/require.hpp"
#include "sim/rng.hpp"
#include "sim/shared_dispatch.hpp"
#include "stats/discrete.hpp"

namespace pops {

/// Per-run epoch counters of a BatchedCountSimulation, zeroed by `reset`.
/// Every epoch takes exactly one batch sampler, so the three `*_epochs`
/// counters sum to `epochs`; an epoch is counted when its batch starts.
struct EpochStats {
  std::uint64_t epochs = 0;
  std::uint64_t interactions = 0;
  std::uint64_t dense_epochs = 0;    ///< joint draw + contingency-table pairing
  std::uint64_t shuffle_epochs = 0;  ///< joint draw + sender shuffle
  std::uint64_t agent_epochs = 0;    ///< agent-by-agent draw
};

class BatchedCountSimulation {
 public:
  /// Eager mode: the spec is compiled to a `DispatchTable` up front.  The
  /// table build validates the spec, so a malformed one throws
  /// std::invalid_argument here and no simulator exists.
  BatchedCountSimulation(FiniteSpec spec, std::uint64_t seed,
                         DispatchTable::RowLayout layout = DispatchTable::RowLayout::kAuto)
      : spec_storage_(std::move(spec)), spec_(&spec_storage_), master_seed_(seed) {
    table_storage_ = DispatchTable(spec_storage_, layout);
    dispatch_ = &table_storage_;
    init_scratch(dispatch_->num_states());
  }

  /// Lazy/JIT mode: pairs compile on first contact; `jit` must outlive the
  /// simulator (it owns the growing table and the interned state names).
  /// Multiple simulators on different threads may share one `jit` source —
  /// its table is lock-free to read and compile_pair is sharded.
  BatchedCountSimulation(JitCompiler& jit, std::uint64_t seed)
      : spec_(&jit.spec()), master_seed_(seed), jit_table_(&jit.table()), jit_(&jit) {
    init_scratch(jit_table_->num_states());
  }

  // spec_/dispatch_ point into own storage in eager mode; copies would dangle.
  BatchedCountSimulation(const BatchedCountSimulation&) = delete;
  BatchedCountSimulation& operator=(const BatchedCountSimulation&) = delete;

  /// Always 1: epochs are serial.  Kept because the time-to-answer
  /// benchmark (perfbench/) records it in its header as "epoch_shards".
  static constexpr std::uint32_t max_epoch_shards() { return 1; }

  /// Reset to an empty configuration with a fresh seed, reusing the compiled
  /// dispatch table.  For multi-trial experiments on compiled specs the
  /// table build (millions of entries — or, lazily, the JIT warm-up) dwarfs
  /// a trial, so trials reseed one simulator instead of constructing one each.
  /// Also the way back from a failed epoch (see `steps`): scratch an
  /// epoch left half-written is cleared through its id lists.
  void reset(std::uint64_t seed) {
    master_seed_ = seed;
    epoch_index_ = 0;
    epoch_failed_ = false;
    sync_states();
    for (const std::uint32_t i : joint_ids_) {
      joint_[i] = 0;
      recv_[i] = 0;
      send_[i] = 0;
    }
    joint_ids_.clear();
    for (const std::uint32_t i : touched_ids_) touched_[i] = 0;
    touched_ids_.clear();
    for (const std::uint32_t j : cell_touched_) cell_accum_[j] = 0;
    cell_touched_.clear();
    for (const std::uint32_t i : occupied_) {
      counts_[i] = 0;
      in_occupied_[i] = 0;
    }
    occupied_.clear();
    total_ = 0;
    stats_ = {};
  }

  /// Set the initial count of a state (before stepping).
  void set_count(const std::string& state, std::uint64_t count) {
    set_count(spec_->id(state), count);
  }
  void set_count(std::uint32_t state, std::uint64_t count) {
    sync_states();
    total_ = total_ - counts_.at(state) + count;
    counts_.at(state) = count;
    if (count != 0 && !in_occupied_[state]) {
      in_occupied_[state] = 1;
      occupied_.push_back(state);
    }
  }

  std::uint64_t count(const std::string& state) const {
    return spec_->has_state(state) ? count(spec_->id(state)) : 0;
  }
  std::uint64_t count(std::uint32_t state) const {
    return state < counts_.size() ? counts_[state] : 0;
  }
  std::uint64_t population_size() const { return total_; }
  std::uint64_t interactions() const { return stats_.interactions; }
  const EpochStats& stats() const { return stats_; }
  const FiniteSpec& spec() const { return *spec_; }

  double time() const {
    return static_cast<double>(stats_.interactions) / static_cast<double>(total_);
  }

  /// One interaction (an epoch truncated to length 1 — still exact).
  void step() { steps(1); }

  /// Advance exactly `k` interactions.  steps(0) is a no-op, as in
  /// CountSimulation.  An exception thrown mid-epoch (say, a JIT pair-limit
  /// POPS_REQUIRE) leaves agents drawn out of the configuration, so every
  /// later call refuses until `reset` rebuilds a valid state.
  void steps(std::uint64_t k) {
    POPS_REQUIRE(!epoch_failed_, "an epoch threw earlier; call reset(seed) first");
    if (k == 0) return;
    POPS_REQUIRE(total_ >= 2, "population too small to interact");
    // Another simulator sharing our JIT source may have interned states
    // since we last ran: its compiled cells are `present` (so our lookup
    // fallback won't fire) yet can output ids beyond our scratch vectors.
    sync_states();
    epoch_failed_ = true;  // cleared only if every epoch completes
    while (k > 0) k -= epoch(k);
    epoch_failed_ = false;
  }

  void advance_time(double dt) {
    POPS_REQUIRE(dt >= 0.0, "advance_time needs dt >= 0");
    steps(static_cast<std::uint64_t>(dt * static_cast<double>(total_)));
  }

  template <typename Pred>
  double run_until(Pred&& done, double check_dt = 1.0, double max_time = 1e12) {
    POPS_REQUIRE(check_dt > 0.0, "run_until needs check_dt > 0");
    while (time() < max_time) {
      if (done(*this)) return time();
      advance_time(check_dt);
    }
    return done(*this) ? time() : -1.0;
  }

  /// Snapshot of all counts, indexed by state id.
  std::vector<std::uint64_t> counts() const { return counts_; }

 private:
  // --------------------------------------------------- epoch substreams ----
  // Per-epoch stream indices (SubstreamSeeder keyed (seed, epoch, i)).  The
  // gaps are where the sharded epochs of earlier versions drew; keeping the
  // indices keeps every recorded trajectory bit-identical.
  //   0   — root: collision search, dense pairing, collision resolution
  //   1   — batch draw: the joint draw and split, or the agent positions
  //   256 — grouped pairing: the shuffle, and the transition binomials of
  //         the shuffle and agent paths
  static constexpr std::uint64_t kStreamRoot = 0;
  static constexpr std::uint64_t kStreamDraw = 1;
  static constexpr std::uint64_t kStreamPairing = 256;

  // ------------------------------------------------------------ epochs ----

  /// Run one epoch, bounded by `budget` interactions; returns how many
  /// interactions were executed (>= 1).  Each epoch owns the counter-based
  /// substream family keyed (master_seed_, epoch_index_, stream).
  std::uint64_t epoch(std::uint64_t budget) {
    const std::uint64_t n = total_;
    const std::uint64_t tmax = n / 2;  // longest possible collision-free run
    const SubstreamSeeder seeder(master_seed_, epoch_index_++);
    Rng root = seeder.stream(kStreamRoot);
    if (budget == 1) {  // a single interaction is always a collision-free prefix
      run_batch(1, /*keep_split=*/false, seeder, root);
      return 1;
    }
    const double u = root.uniform_double();
    if (u <= 0.0) {  // measure-zero guard: collision arbitrarily late
      const std::uint64_t t = std::min(budget, tmax);
      run_batch(t, /*keep_split=*/false, seeder, root);
      return t;
    }
    const double log_u = std::log(u);
    if (budget <= tmax && log_survival(budget) >= log_u) {
      // First collision falls beyond the budget: the prefix we need is
      // collision-free, and truncation is exact (see header comment).
      run_batch(budget, /*keep_split=*/false, seeder, root);
      return budget;
    }
    // Binary search the smallest t with P(L > t) < u; the collision is
    // interaction t, preceded by t-1 collision-free interactions.
    std::uint64_t lo = 1, hi = std::min(budget, tmax + 1);
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (log_survival(mid) < log_u) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    // P(L > 1) = 1, so lo >= 2 up to floating-point noise in log_survival;
    // clamp so the batch is never empty (budget >= 2 here, so batch + 1 fits).
    const std::uint64_t batch = std::max<std::uint64_t>(lo, 2) - 1;
    run_batch(batch, /*keep_split=*/true, seeder, root);
    resolve_collision(batch, root);
    return batch + 1;
  }

  /// log P(L > t): probability that t interactions in a row reuse no agent,
  /// i.e. the falling factorial (n)_{2t} / (n(n-1))^t.  For large n this is
  /// evaluated by a truncated log1p series with closed-form power sums (the
  /// log-factorial difference would cancel catastrophically); for small n,
  /// by `log_factorial` (stats/discrete.hpp) — not libm's lgamma, which
  /// writes the global `signgam` and so races when trials fan out over
  /// threads on one shared JIT table.
  double log_survival(std::uint64_t t) const {
    const std::uint64_t n = total_;
    if (2 * t > n) return -std::numeric_limits<double>::infinity();
    const double dn = static_cast<double>(n);
    const double dt = static_cast<double>(t);
    if (n < 1000000) {
      return detail::log_factorial(dn) - detail::log_factorial(dn - 2.0 * dt) -
             dt * (std::log(dn) + std::log(dn - 1.0));
    }
    // sum_{j=0}^{2t-1} log1p(-j/n) - t*log1p(-1/n), with
    // sum log1p(-j/n) ~ -(S1/n + S2/(2n^2) + S3/(3n^3) + S4/(4n^4)).
    // Truncation error is negligible where the value can affect the
    // comparison against log(u) >= log(2^-53) ~ -36.7.
    const double m = 2.0 * dt;
    const double s1 = m * (m - 1.0) / 2.0;
    const double s2 = (m - 1.0) * m * (2.0 * m - 1.0) / 6.0;
    const double s3 = s1 * s1;
    const double s4 = s2 * (3.0 * m * m - 3.0 * m - 1.0) / 5.0;
    const double series = -(s1 / dn + s2 / (2.0 * dn * dn) +
                            s3 / (3.0 * dn * dn * dn) +
                            s4 / (4.0 * dn * dn * dn * dn));
    return series - dt * std::log1p(-1.0 / dn);
  }

  // ------------------------------------------------------- batch moves ----

  /// Sample and apply `t` collision-free interactions by count arithmetic.
  /// If `keep_split` is set, the configuration is left split across
  /// `counts_` (untouched agents) and `touched_` (post-batch states of the
  /// 2t touched agents) for collision resolution; otherwise it is merged.
  void run_batch(std::uint64_t t, bool keep_split, const SubstreamSeeder& seeder,
                 Rng& root) {
    compact_occupied();
    ++stats_.epochs;
    Rng draw_rng = seeder.stream(kStreamDraw);
    // Draw the 2t agents and pair receivers with senders by a uniform
    // matching.  Three equivalent samplers with different cost profiles:
    //   * agent — draw the agents one by one as distinct positions: O(t),
    //     whatever the occupancy.  The joint draw below costs one
    //     hypergeometric per occupied class, so for an epoch short against
    //     its occupied classes (nearly every epoch of a faithful-cap JIT
    //     run at n = 5·10³) drawing agents wins; past the crossover its
    //     per-draw hashing and class search lose to the shuffle's slot
    //     writes.
    //   * dense — after the joint draw, a sequentially-sampled contingency
    //     table, one hypergeometric per (receiver class, sender class):
    //     O(occ_r · occ_s) draws.  Wins when the batch is huge relative to
    //     the occupied grid (early dynamics, n ≳ 10^11).
    //   * shuffle — after the joint draw, expand the sender multiset into t
    //     slots, shuffle, and let receiver classes consume slots in order:
    //     a uniform permutation of the sender multiset against receiver
    //     slots is exactly a uniform matching.  O(t) with tiny constants;
    //     wins when the occupied grid is not tiny relative to the batch — a
    //     slot write costs ~1/8 of a rejection draw, so the dense scan only
    //     wins when occ_r · occ_s ≪ t (few huge classes at n ≳ 10¹¹).
    // The agent and shuffle buffers are capped so sub-√n epochs never
    // allocate unboundedly at n = 10¹²⁺; past the cap the dense scan takes
    // over.
    if (2 * t <= kAgentDrawFactor * occupied_.size() && t <= kMaxShuffleSlots &&
        total_ <= kMaxAgentPosition) {
      ++stats_.agent_epochs;
      draw_agents(t, draw_rng);
      Rng pairing_rng = seeder.stream(kStreamPairing);
      apply_grouped_cells(pairing_rng);
    } else {
      draw_joint(t, draw_rng);
      std::uint64_t occ_r = 0, occ_s = 0;
      for (const std::uint32_t j : joint_ids_) {
        occ_r += recv_[j] != 0 ? 1 : 0;
        occ_s += send_[j] != 0 ? 1 : 0;
      }
      if (occ_r * occ_s * 8 < t || t > kMaxShuffleSlots) {
        ++stats_.dense_epochs;
        pair_dense(t, root);
      } else {
        ++stats_.shuffle_epochs;
        Rng pairing_rng = seeder.stream(kStreamPairing);
        pair_shuffle(t, pairing_rng);
      }
    }
    for (const std::uint32_t j : joint_ids_) {
      joint_[j] = 0;
      recv_[j] = 0;
      send_[j] = 0;
    }
    joint_ids_.clear();
    stats_.interactions += t;
    if (!keep_split) merge_touched();
  }

  /// The agent-by-agent batch draw.  The 2t batch agents are uniform
  /// positions in [0, n) over the prefix sums of the pre-epoch occupied
  /// counts, each repeated position redrawn — exactly a uniform sequence of
  /// 2t distinct agents, hence already a uniform matching: receiver a
  /// (draw a < t) meets sender t + a, with no split and no shuffle.  The
  /// senders are then grouped by receiver class into `sender_slots_`, the
  /// layout `apply_grouped_cells` consumes.
  void draw_agents(std::uint64_t t, Rng& rng) {
    build_position_guide();
    begin_position_epoch(t);
    if (draw_class_.size() < 2 * t) draw_class_.resize(2 * t);
    for (std::uint64_t a = 0; a < 2 * t; ++a) {
      std::uint64_t position, word;
      do {
        std::tie(position, word) = rng.below_with_word(total_);
      } while (!claim_position(position));
      std::uint32_t k = position_guide_[word >> guide_shift_];
      while (agent_prefix_[k] <= position) ++k;
      const std::uint32_t cls = occupied_[k];
      --counts_[cls];
      draw_class_[a] = cls;
    }
    // Counting sort of the senders by receiver class; send_ serves as each
    // receiver class's write cursor (cleared with joint_ids_).
    for (std::uint64_t a = 0; a < t; ++a) {
      if (recv_[draw_class_[a]]++ == 0) joint_ids_.push_back(draw_class_[a]);
    }
    std::uint64_t offset = 0;
    for (const std::uint32_t i : joint_ids_) {
      send_[i] = offset;
      offset += recv_[i];
    }
    if (sender_slots_.size() < t) sender_slots_.resize(t);
    for (std::uint64_t a = 0; a < t; ++a) {
      sender_slots_[send_[draw_class_[a]]++] = draw_class_[t + a];
    }
  }

  /// Prefix sums of the occupied counts (`agent_prefix_`, indexed like
  /// `occupied_`) and a power-of-two guide table over [0, n): bucket g holds
  /// the occupied index whose class contains position floor(g·n / G).  A
  /// draw whose word has top bits g is at least that position, so the class
  /// search starts there and scans O(1 + occupancy / G) entries.
  void build_position_guide() {
    const std::size_t m = occupied_.size();
    agent_prefix_.resize(m);
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < m; ++k) {
      acc += counts_[occupied_[k]];
      agent_prefix_[k] = acc;
    }
    const int bits = std::bit_width(std::max<std::size_t>(m, 2) - 1);  // G >= max(m, 2)
    guide_shift_ = 64 - bits;
    position_guide_.resize(std::size_t{1} << bits);
    std::uint32_t k = 0;
    for (std::size_t g = 0; g < position_guide_.size(); ++g) {
      const auto first = static_cast<std::uint64_t>((static_cast<u128>(g) * total_) >> bits);
      while (agent_prefix_[k] <= first) ++k;
      position_guide_[g] = k;
    }
  }

  /// Start a new epoch of the drawn-position set: an open-addressed table
  /// of words (position << kStampBits | stamp), live only while the stamp
  /// matches the epoch's.  Advancing the stamp empties the set with no
  /// clearing pass; only when the stamp wraps is the table zeroed.
  void begin_position_epoch(std::uint64_t t) {
    const std::size_t want = std::bit_ceil(std::max<std::size_t>(4 * t, 16));  // load <= 1/2
    if (position_set_.size() < want) {
      position_set_.assign(want, 0);
      position_shift_ = 64 - std::bit_width(want - 1);
    }
    if (++position_stamp_ > kStampMask) {
      std::fill(position_set_.begin(), position_set_.end(), 0);
      position_stamp_ = 1;
    }
  }

  /// Add `position` to this epoch's drawn set; false if it was drawn already.
  bool claim_position(std::uint64_t position) {
    const std::uint64_t key = (position << kStampBits) | position_stamp_;
    const std::size_t mask = position_set_.size() - 1;
    for (std::size_t h = (position * 0x9e3779b97f4a7c15ULL) >> position_shift_;;
         h = (h + 1) & mask) {
      const std::uint64_t slot = position_set_[h];
      if ((slot & kStampMask) != position_stamp_) {
        position_set_[h] = key;
        return true;
      }
      if (slot == key) return false;
    }
  }

  /// The fused batch draw.  Drawing t receivers then t senders without
  /// replacement is distribution-identical to drawing the 2t batch agents in
  /// one pass and then marking a uniform t-subset of them as receivers: the
  /// joint class counts are one multivariate hypergeometric over the
  /// occupied classes of the configuration, and conditioned on them the
  /// receiver class counts are a multivariate hypergeometric of the (much
  /// smaller, mostly small-count) joint multiset.  The former two
  /// full-configuration passes collapse into one, and the occupied-class
  /// list persists across epochs — only compaction of classes that emptied
  /// touches it.
  void draw_joint(std::uint64_t t, Rng& rng) {
    joint_ids_.clear();
    std::uint64_t remaining_total = total_;
    std::uint64_t remaining = 2 * t;
    for (const std::uint32_t i : occupied_) {
      if (remaining == 0) break;
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      const std::uint64_t d = hypergeometric(rng, remaining_total, c, remaining);
      remaining_total -= c;
      if (d != 0) {
        joint_[i] = d;
        joint_ids_.push_back(i);
        counts_[i] = c - d;
        remaining -= d;
      }
    }
    POPS_REQUIRE(remaining == 0, "batch draw exceeded population");
    // Split: the receivers are a uniform t-subset of the 2t drawn agents.
    std::uint64_t pool = 2 * t;
    std::uint64_t need = t;
    for (const std::uint32_t i : joint_ids_) {
      const std::uint64_t r = need == 0 ? 0 : hypergeometric(rng, pool, joint_[i], need);
      recv_[i] = r;
      send_[i] = joint_[i] - r;
      pool -= joint_[i];
      need -= r;
    }
  }

  /// Drop occupied-list entries whose class emptied (agents drawn out and
  /// never returned).  O(occupancy), once per epoch; the list never holds
  /// duplicates, so multivariate passes see each class exactly once.
  void compact_occupied() {
    std::size_t w = 0;
    for (const std::uint32_t i : occupied_) {
      if (counts_[i] != 0) {
        occupied_[w++] = i;
      } else {
        in_occupied_[i] = 0;
      }
    }
    occupied_.resize(w);
  }

  /// Dense contingency-table pairing: hypergeometric share per cell, on the
  /// root stream.
  void pair_dense(std::uint64_t t, Rng& rng) {
    std::uint64_t send_total = t;
    for (const std::uint32_t i : joint_ids_) {
      std::uint64_t need = recv_[i];
      if (need == 0) continue;
      std::uint64_t pool = send_total;
      for (const std::uint32_t j : joint_ids_) {
        if (need == 0) break;
        const std::uint64_t sj = send_[j];
        if (sj == 0) continue;
        const std::uint64_t d = hypergeometric(rng, pool, sj, need);
        pool -= sj;
        if (d > 0) {
          send_[j] -= d;
          need -= d;
          send_total -= d;
          apply_cell(i, j, d, rng);
        }
      }
    }
  }

  /// Shuffle pairing: expand the sender multiset into t slots, Fisher–Yates
  /// shuffle them, and let receiver classes consume slots in joint-draw
  /// order.
  void pair_shuffle(std::uint64_t t, Rng& rng) {
    if (sender_slots_.size() < t) sender_slots_.resize(t);
    std::uint64_t w = 0;
    for (const std::uint32_t j : joint_ids_) {
      for (std::uint64_t c = send_[j]; c > 0; --c) sender_slots_[w++] = j;
    }
    for (std::uint64_t k = t - 1; k > 0; --k) {
      std::swap(sender_slots_[k], sender_slots_[rng.below(k + 1)]);
    }
    apply_grouped_cells(rng);
  }

  /// Apply a grouped pairing: receiver class joint_ids_[0] meets the first
  /// recv_ senders in `sender_slots_`, the next class the ones after, and so
  /// on.  Per-cell counts accumulate first, so a randomized cell splits its
  /// whole multiplicity by binomials rather than one draw per slot.
  void apply_grouped_cells(Rng& rng) {
    std::uint64_t pos = 0;
    for (const std::uint32_t i : joint_ids_) {
      std::uint64_t need = recv_[i];
      if (need == 0) continue;
      cell_touched_.clear();
      while (need-- > 0) {
        const std::uint32_t j = sender_slots_[pos++];
        if (cell_accum_[j]++ == 0) cell_touched_.push_back(j);
      }
      for (const std::uint32_t j : cell_touched_) {
        apply_cell(i, j, cell_accum_[j], rng);
        cell_accum_[j] = 0;
      }
    }
  }

  /// Apply `d` simultaneous interactions with input pair (i, j), adding the
  /// output states to the epoch's touched multiset.  Randomized cells split
  /// `d` across their transitions (plus the residual null) by binomial draws
  /// from `rng`.
  void apply_cell(std::uint32_t i, std::uint32_t j, std::uint64_t d, Rng& rng) {
    const DispatchTable::Cell cell = lookup(i, j);
    switch (cell.kind) {
      case DispatchTable::CellKind::kNull:
        touch(i, d);
        touch(j, d);
        return;
      case DispatchTable::CellKind::kDeterministic: {
        const auto& e = *cell.begin;
        touch(e.out_receiver, d);
        touch(e.out_sender, d);
        return;
      }
      case DispatchTable::CellKind::kRandomized: {
        std::uint64_t rem = d;
        double rest = 1.0;
        for (const auto* e = cell.begin; e != cell.end && rem > 0; ++e) {
          // A full-mass cell has no null residue: its last entry absorbs the
          // floating-point sliver the subtraction chain leaves in `rest`,
          // mirroring DispatchTable::pick's clamp on the single-draw path.
          const bool clamp_last = cell.clamp && e + 1 == cell.end;
          const double p =
              clamp_last ? 1.0 : std::min(1.0, std::max(0.0, e->rate / rest));
          const std::uint64_t k = binomial(rng, rem, p);
          touch(e->out_receiver, k);
          touch(e->out_sender, k);
          rem -= k;
          rest -= e->rate;
        }
        touch(i, rem);  // residual mass: null transitions
        touch(j, rem);
        return;
      }
    }
  }

  /// Dispatch lookup with the JIT fallback (see CountSimulation::lookup).
  /// State growth is synced after our own compiles; cells compiled by
  /// *other* threads sharing the JIT source are caught by `touch`'s guard.
  DispatchTable::Cell lookup(std::uint32_t receiver, std::uint32_t sender) {
    if (jit_ == nullptr) return dispatch_->find(receiver, sender);
    DispatchTable::Cell cell = jit_table_->find(receiver, sender);
    if (!cell.present) [[unlikely]] {
      jit_->compile_pair(receiver, sender);
      sync_states();
      cell = jit_table_->find(receiver, sender);
    }
    return cell;
  }

  void touch(std::uint32_t state, std::uint64_t d) {
    if (d == 0) return;
    // Another simulator thread sharing our JIT source may have interned
    // `state` after our last sync; grow the scratch mid-epoch (exact — the
    // new classes simply hold zero counts).
    if (state >= touched_.size()) [[unlikely]] sync_states();
    if (touched_[state] == 0) touched_ids_.push_back(state);
    touched_[state] += d;
  }

  void merge_touched() {
    for (const std::uint32_t i : touched_ids_) {
      const std::uint64_t v = touched_[i];
      touched_[i] = 0;
      if (v != 0) {
        counts_[i] += v;
        if (!in_occupied_[i]) {
          in_occupied_[i] = 1;
          occupied_.push_back(i);
        }
      }
    }
    touched_ids_.clear();
  }

  // ------------------------------------------------------- collisions ----

  /// Execute the colliding interaction exactly.  After a kept-split batch of
  /// `batch` interactions, `touched_` holds the 2*batch post-batch states and
  /// `counts_` the untouched agents.  Conditioned on being the first
  /// collision, the ordered pair is uniform over ordered distinct pairs that
  /// are not untouched-untouched; with T = 2*batch touched and U untouched
  /// agents the three cases have weights T·U, U·T, T·(T−1) — T divides out,
  /// leaving U : U : T−1.
  void resolve_collision(std::uint64_t batch, Rng& rng) {
    const std::uint64_t touched_total = 2 * batch;
    const std::uint64_t untouched_total = total_ - touched_total;
    std::uint64_t t_pool = touched_total;
    std::uint64_t u_pool = untouched_total;
    const std::uint64_t x = rng.below(2 * untouched_total + touched_total - 1);
    std::uint32_t r_state, s_state;
    if (x < untouched_total) {  // receiver touched, sender untouched
      r_state = draw_one_touched(t_pool, rng);
      s_state = draw_one_untouched(u_pool, rng);
    } else if (x < 2 * untouched_total) {  // receiver untouched, sender touched
      r_state = draw_one_untouched(u_pool, rng);
      s_state = draw_one_touched(t_pool, rng);
    } else {  // both touched (two distinct touched agents)
      r_state = draw_one_touched(t_pool, rng);
      s_state = draw_one_touched(t_pool, rng);
    }
    const auto [out_r, out_s] = resolve_transition(r_state, s_state, rng);
    touch(out_r, 1);
    touch(out_s, 1);
    ++stats_.interactions;
    merge_touched();
  }

  /// Remove and return one uniform agent from the touched multiset (walking
  /// the touched-id list, not the full state range).
  std::uint32_t draw_one_touched(std::uint64_t& pool_total, Rng& rng) {
    std::uint64_t slot = rng.below(pool_total);
    for (const std::uint32_t i : touched_ids_) {
      const std::uint64_t c = touched_[i];
      if (slot < c) {
        --touched_[i];
        --pool_total;
        return i;
      }
      slot -= c;
    }
    POPS_REQUIRE(false, "corrupt touched multiset in collision draw");
    return 0;  // unreachable
  }

  /// Remove and return one uniform untouched agent (walking the occupied
  /// list; classes emptied by the batch draw weigh zero and are skipped).
  std::uint32_t draw_one_untouched(std::uint64_t& pool_total, Rng& rng) {
    std::uint64_t slot = rng.below(pool_total);
    for (const std::uint32_t i : occupied_) {
      const std::uint64_t c = counts_[i];
      if (slot < c) {
        --counts_[i];
        --pool_total;
        return i;
      }
      slot -= c;
    }
    POPS_REQUIRE(false, "corrupt configuration in collision draw");
    return 0;  // unreachable
  }

  /// Outcome of a single (receiver, sender) interaction, consuming the rate
  /// draw only for randomized cells.
  std::pair<std::uint32_t, std::uint32_t> resolve_transition(std::uint32_t r,
                                                             std::uint32_t s,
                                                             Rng& rng) {
    const DispatchTable::Cell cell = lookup(r, s);
    switch (cell.kind) {
      case DispatchTable::CellKind::kNull:
        return {r, s};
      case DispatchTable::CellKind::kDeterministic: {
        const auto& e = *cell.begin;
        return {e.out_receiver, e.out_sender};
      }
      case DispatchTable::CellKind::kRandomized: {
        const auto* e = DispatchTable::pick(cell, rng.uniform_double());
        if (e != nullptr) return {e->out_receiver, e->out_sender};
        return {r, s};  // residual: null transition
      }
    }
    return {r, s};
  }

  // ------------------------------------------------------ state growth ----

  void init_scratch(std::uint32_t s) {
    counts_.assign(s, 0);
    touched_.assign(s, 0);
    recv_.assign(s, 0);
    send_.assign(s, 0);
    joint_.assign(s, 0);
    cell_accum_.assign(s, 0);
    in_occupied_.assign(s, 0);
    occupied_.reserve(s);
    joint_ids_.reserve(s);
    touched_ids_.reserve(s);
  }

  std::uint32_t dispatch_num_states() const {
    return jit_ != nullptr ? jit_table_->num_states() : dispatch_->num_states();
  }

  void sync_states() {
    const std::uint32_t s = dispatch_num_states();
    if (s == counts_.size()) return;
    counts_.resize(s, 0);
    touched_.resize(s, 0);
    recv_.resize(s, 0);
    send_.resize(s, 0);
    joint_.resize(s, 0);
    cell_accum_.resize(s, 0);
    in_occupied_.resize(s, 0);
  }

  /// Shuffle-slot ceiling: above this, fall back to the contingency-table
  /// pairing rather than materializing an O(√n) slot buffer at n = 10¹²⁺.
  static constexpr std::uint64_t kMaxShuffleSlots = std::uint64_t{1} << 22;

  /// Agent-draw crossover: an epoch of t interactions draws its agents one
  /// by one when 2t <= kAgentDrawFactor · occupancy.  Calibrated by giving
  /// each epoch a coin-flip sampler and timing whole batches (rdtsc, gcc 12
  /// -O2, 4-core x86-64), binned by 2t / occupancy.  Agent-path cost over
  /// joint-path cost per bin [4, 5.7), [5.7, 8), [8, 11.3), [11.3, 16):
  ///   log_size_small, eager, n = 10⁷:  0.68  0.80  0.96  1.13
  ///   log_size_tiny,  eager, n = 10⁵:  0.68  0.83  0.96  1.39
  /// and 0.5–0.8 everywhere on the faithful-cap JIT run at n = 5·10³, where
  /// 2t / occupancy stays below 5.  The crossover sits near 10.
  static constexpr std::uint64_t kAgentDrawFactor = 8;

  /// Drawn-position words pack a 48-bit position above a 16-bit epoch
  /// stamp (stamp 0 = never written).  Above 2⁴⁸ agents the epochs are
  /// ~10⁷ interactions long and the agent path would need millions of
  /// occupied classes, so those runs always take the joint draw.
  static constexpr int kStampBits = 16;
  static constexpr std::uint64_t kStampMask = (std::uint64_t{1} << kStampBits) - 1;
  static constexpr std::uint64_t kMaxAgentPosition = std::uint64_t{1} << (64 - kStampBits);

  FiniteSpec spec_storage_;      ///< owned in eager mode; empty in lazy mode
  const FiniteSpec* spec_;
  std::uint64_t master_seed_;    ///< every epoch substream derives from this
  std::uint64_t epoch_index_ = 0;
  DispatchTable table_storage_;  ///< owned in eager mode; empty in lazy mode
  const DispatchTable* dispatch_ = nullptr;
  const ConcurrentDispatchTable* jit_table_ = nullptr;  ///< lazy mode only
  JitCompiler* jit_ = nullptr;
  std::vector<std::uint64_t> counts_;  ///< configuration vector
  std::uint64_t total_ = 0;
  // Per-epoch scratch, sparse in the occupied classes (hot path allocates
  // nothing and never walks the full state range).
  std::vector<std::uint64_t> touched_, recv_, send_, joint_, cell_accum_;
  std::vector<std::uint8_t> in_occupied_;
  std::vector<std::uint32_t> occupied_, joint_ids_, touched_ids_, cell_touched_;
  std::vector<std::uint32_t> sender_slots_;
  // Agent-path scratch (draw_agents): pre-epoch prefix sums and their guide
  // table, the drawn-position set, and each draw's class.
  std::vector<std::uint64_t> agent_prefix_, position_set_;
  std::vector<std::uint32_t> position_guide_, draw_class_;
  int guide_shift_ = 63;
  int position_shift_ = 60;
  std::uint64_t position_stamp_ = 0;
  EpochStats stats_;
  bool epoch_failed_ = false;  ///< an epoch threw; steps refuse until reset
};

}  // namespace pops
