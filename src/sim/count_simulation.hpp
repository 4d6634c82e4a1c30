// Count-based (configuration-vector) simulator for finite-state protocols.
//
// A configuration ~c ∈ N^Λ (paper, Section 2) stores the count of each state.
// Each step draws an ordered pair of *distinct* agents uniformly — the
// receiver is a uniform agent-slot in the cumulative count order, and the
// sender is drawn by rejection: uniform agent-slots are redrawn until one
// differs from the receiver's slot, which is exactly uniform over the other
// n−1 agents and never mutates the Fenwick tree.  The fired transition comes
// from the sparse dispatch table (sim/dispatch.hpp); deterministic cells skip
// the rate draw entirely.
//
// Two construction modes share every hot path:
//   * eager — a complete `FiniteSpec` compiled to a `DispatchTable` up front;
//   * lazy  — a `JitCompiler` (compile/lazy.hpp) that compiles each
//     (receiver, sender) pair on first contact; the simulator grows its
//     Fenwick sampler whenever the JIT interns new states.
//
// For protocols with S = O(1) states this is dramatically faster than
// per-agent simulation (no Θ(n) agent array to touch) and is exact: the
// induced Markov chain on configurations is identical to the agent-level one.
// For Θ(√n)-interaction batches on top of the same dispatch table, see
// sim/batched_count_simulation.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/dispatch.hpp"
#include "sim/finite_spec.hpp"
#include "sim/require.hpp"
#include "sim/rng.hpp"
#include "sim/shared_dispatch.hpp"
#include "sim/weighted_sampler.hpp"

namespace pops {

class CountSimulation {
 public:
  /// Eager mode: the spec is compiled to a `DispatchTable` up front.  The
  /// table build validates the spec, so a malformed one throws
  /// std::invalid_argument here and no simulator exists.
  CountSimulation(FiniteSpec spec, std::uint64_t seed,
                  DispatchTable::RowLayout layout = DispatchTable::RowLayout::kAuto)
      : spec_storage_(std::move(spec)),
        spec_(&spec_storage_),
        rng_(seed),
        sampler_(spec_storage_.num_states()) {
    table_storage_ = DispatchTable(spec_storage_, layout);
    dispatch_ = &table_storage_;
  }

  /// Lazy/JIT mode: pairs compile on first contact; `jit` must outlive the
  /// simulator (it owns the growing table and the interned state names).
  /// Multiple simulators on different threads may share one `jit` source —
  /// its table is lock-free to read and compile_pair is sharded.
  CountSimulation(JitCompiler& jit, std::uint64_t seed)
      : spec_(&jit.spec()),
        rng_(seed),
        sampler_(jit.table().num_states()),
        jit_table_(&jit.table()),
        jit_(&jit) {}

  // spec_/dispatch_ point into own storage in eager mode; copies would dangle.
  CountSimulation(const CountSimulation&) = delete;
  CountSimulation& operator=(const CountSimulation&) = delete;

  /// Set the initial count of a state (before stepping).
  void set_count(const std::string& state, std::uint64_t count) {
    set_count(spec_->id(state), count);
  }
  void set_count(std::uint32_t state, std::uint64_t count) {
    sync_states();
    sampler_.set_count(state, count);
  }

  std::uint64_t count(const std::string& state) const {
    return spec_->has_state(state) ? count(spec_->id(state)) : 0;
  }
  std::uint64_t count(std::uint32_t state) const {
    return state < sampler_.size() ? sampler_.count(state) : 0;
  }
  std::uint64_t population_size() const { return sampler_.total(); }
  std::uint64_t interactions() const { return interactions_; }
  const FiniteSpec& spec() const { return *spec_; }

  double time() const {
    return static_cast<double>(interactions_) / static_cast<double>(population_size());
  }

  /// One interaction.
  void step() {
    sync_states();  // another simulator on the same JIT source may have grown it
    const std::uint64_t n = population_size();
    POPS_REQUIRE(n >= 2, "population too small to interact");
    // Receiver: a uniform agent-slot.  Sender: rejection over agent-slots —
    // redraw on the receiver's exact slot, so the tree is never touched just
    // to exclude one agent (expected < 2 draws even for n = 2).
    const std::uint64_t receiver_slot = rng_.below(n);
    const std::size_t receiver = sampler_.find(receiver_slot);
    std::uint64_t sender_slot = rng_.below(n);
    while (sender_slot == receiver_slot) sender_slot = rng_.below(n);
    const std::size_t sender = sampler_.find(sender_slot);
    apply(static_cast<std::uint32_t>(receiver), static_cast<std::uint32_t>(sender));
    ++interactions_;
  }

  void steps(std::uint64_t k) {
    for (std::uint64_t i = 0; i < k; ++i) step();
  }

  void advance_time(double dt) {
    POPS_REQUIRE(dt >= 0.0, "advance_time needs dt >= 0");
    steps(static_cast<std::uint64_t>(dt * static_cast<double>(population_size())));
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
  std::vector<std::uint64_t> counts() const { return sampler_.counts(); }

 private:
  /// Dispatch lookup with the JIT fallback: an unregistered pair under a lazy
  /// source is compiled in place (possibly interning new states) and looked
  /// up again.  Compilation consumes no simulation randomness, so lazy runs
  /// are deterministic under a fixed seed.
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

  std::uint32_t dispatch_num_states() const {
    return jit_ != nullptr ? jit_table_->num_states() : dispatch_->num_states();
  }

  void sync_states() {
    if (dispatch_num_states() > sampler_.size()) sampler_.grow(dispatch_num_states());
  }

  void apply(std::uint32_t receiver, std::uint32_t sender) {
    const DispatchTable::Cell cell = lookup(receiver, sender);
    switch (cell.kind) {
      case DispatchTable::CellKind::kNull:
        return;
      case DispatchTable::CellKind::kDeterministic:
        fire(*cell.begin, receiver, sender);
        return;
      case DispatchTable::CellKind::kRandomized: {
        const auto* e = DispatchTable::pick(cell, rng_.uniform_double());
        if (e != nullptr) fire(*e, receiver, sender);
        return;  // nullptr: residual probability mass, null transition
      }
    }
  }

  void fire(const DispatchTable::Entry& e, std::uint32_t receiver,
            std::uint32_t sender) {
    // A cell compiled by *another* simulator thread sharing our JIT source
    // can reference states interned after our last sync.
    if (std::max(e.out_receiver, e.out_sender) >= sampler_.size()) [[unlikely]] {
      sync_states();
    }
    if (e.out_receiver != receiver) {
      sampler_.add(receiver, -1);
      sampler_.add(e.out_receiver, +1);
    }
    if (e.out_sender != sender) {
      sampler_.add(sender, -1);
      sampler_.add(e.out_sender, +1);
    }
  }

  FiniteSpec spec_storage_;       ///< owned in eager mode; empty in lazy mode
  const FiniteSpec* spec_;
  Rng rng_;
  WeightedSampler sampler_;
  DispatchTable table_storage_;   ///< owned in eager mode; empty in lazy mode
  const DispatchTable* dispatch_ = nullptr;
  const ConcurrentDispatchTable* jit_table_ = nullptr;  ///< lazy mode only
  JitCompiler* jit_ = nullptr;
  std::uint64_t interactions_ = 0;
};

}  // namespace pops
