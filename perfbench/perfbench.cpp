// perfbench: time-to-answer workloads for the batched count simulator,
// timed from outside through the library's public API.
//
// Each workload runs seeded protocol instances from the initial
// configuration until an answer check passes (or a parallel-time cap is
// hit, which counts as a miss):
//
//   lse_jit_cold     faithful-cap Log-Size-Estimation on a fresh
//                    LazyCompiledSpec (cold JIT), one instance per round;
//                    answer: every agent done with one common output.
//   lse_eager_1e7    the log_size_small preset, eagerly compiled, one
//                    instance per round; answer: one common output.
//   lse_trials       the log_size_tiny preset compiled once per round, then
//                    `trials` instances through run_trials_parallel, each
//                    building its own simulator; answer: one common output.
//
// Usage:
//   perfbench --workload <name> --seed <u64> --seconds <s> [--trace-out <file>]
//
// Without --trace-out the binary first repeats the workload's set-up alone
// (those repetitions are the set-up samples), then runs rounds (instance
// seeds derived from --seed) until the next round would overrun --seconds.
// With --trace-out it runs the first rounds' instance seeds twice each,
// untraced and traced, and writes the traced rounds' spans to the file.
// Stdout gets one JSON document: a header, the set-up samples, every
// round's timings, counts and answers, and the process's peak RSS.
// perfbench/run.py turns it into the benchmark's metrics and re-checks the
// answers.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/headline.hpp"
#include "compile/lazy.hpp"
#include "core/executor.hpp"
#include "core/log_size_estimation.hpp"
#include "harness/trials.hpp"
#include "sim/batched_count_simulation.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

double seconds_since(std::int64_t start_ns) {
  return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

// ------------------------------------------------------------- tracing ----

/// One timed call into a layer.  `width` > 1 marks a fan-out span whose
/// children ran on that many threads; `jit_*` aggregate the pair compiles
/// made inside the span (per-call spans would swamp the trace).
struct Span {
  const char* name;
  std::int32_t parent;
  std::uint32_t thread;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t width;
  std::uint64_t jit_pairs;
  std::int64_t jit_ns;
};

/// In-memory span recorder; disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  std::int32_t open(const char* name, std::int32_t parent) {
    if (!enabled_) return -1;
    const Span span{name, parent, thread_index(), now_ns(), -1, 1, 0, 0};
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void close(std::int32_t id, std::uint32_t width, std::uint64_t jit_pairs, std::int64_t jit_ns) {
    if (id < 0) return;
    const std::int64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = end;
    span.width = width;
    span.jit_pairs = jit_pairs;
    span.jit_ns = jit_ns;
  }

  void write(const std::string& path, const std::string& workload, std::uint64_t seed) const {
    std::ofstream out(path);
    POPS_REQUIRE(out.good(), "cannot open the trace output file");
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"workload\": \"" << workload << "\", \"seed\": " << seed
          << ", \"parent\": " << s.parent << ", \"thread\": " << s.thread
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"width\": " << s.width << ", \"jit_pairs\": " << s.jit_pairs
          << ", \"jit_ns\": " << s.jit_ns << "}";
    }
    out << "\n]}\n";
  }

 private:
  bool enabled_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

thread_local std::int32_t tl_open_span = -1;

/// RAII span; nested scopes on one thread parent to the innermost open one.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int32_t parent)
      : tracer_(tracer), saved_(tl_open_span), id_(tracer.open(name, parent)) {
    if (id_ >= 0) tl_open_span = id_;
  }
  Scope(Tracer& tracer, const char* name) : Scope(tracer, name, tl_open_span) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    tracer_.close(id_, width_, jit_pairs_, jit_ns_);
    tl_open_span = saved_;
  }

  std::int32_t id() const { return id_; }
  void set_width(std::uint32_t width) { width_ = width; }
  void set_jit(std::uint64_t pairs, std::int64_t ns) {
    jit_pairs_ = pairs;
    jit_ns_ = ns;
  }

 private:
  Tracer& tracer_;
  std::int32_t saved_;
  std::int32_t id_;
  std::uint32_t width_ = 1;
  std::uint64_t jit_pairs_ = 0;
  std::int64_t jit_ns_ = 0;
};

// ---------------------------------------------------------- JIT timing ----

/// Forwarding JitCompiler around a LazyCompiledSpec: times every compile a
/// simulator requests and counts those that compiled a new pair.  The
/// check-then-forward runs under a per-shard lock keyed like the wrapped
/// spec's own, so a pair two epoch shards race for counts once and
/// `pairs()` equals the spec's `pairs_compiled()`.
template <typename Lazy>
class TimedJit final : public pops::JitCompiler {
 public:
  explicit TimedJit(Lazy& lazy) : lazy_(lazy), states_(lazy.table().num_states()) {}

  void compile_pair(std::uint32_t receiver, std::uint32_t sender) override {
    const std::int64_t start = now_ns();
    {
      const std::lock_guard<std::mutex> lock(
          shards_[pops::ConcurrentDispatchTable::shard_of(receiver)]);
      if (!lazy_.table().find(receiver, sender).present) {
        lazy_.compile_pair(receiver, sender);
        pairs_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const std::uint32_t seen = lazy_.table().num_states();
    std::uint32_t cur = states_.load(std::memory_order_relaxed);
    while (cur < seen && !states_.compare_exchange_weak(cur, seen, std::memory_order_relaxed)) {
    }
    ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  }

  const pops::ConcurrentDispatchTable& table() const override { return lazy_.table(); }
  const pops::FiniteSpec& spec() const override { return lazy_.spec(); }

  std::uint64_t pairs() const { return pairs_.load(std::memory_order_relaxed); }
  std::uint32_t states() const { return states_.load(std::memory_order_relaxed); }
  std::int64_t ns() const { return ns_.load(std::memory_order_relaxed); }

 private:
  Lazy& lazy_;
  std::array<std::mutex, pops::ConcurrentDispatchTable::kNumShards> shards_;
  std::atomic<std::uint64_t> pairs_{0};
  std::atomic<std::uint32_t> states_;
  std::atomic<std::int64_t> ns_{0};
};

// ------------------------------------------------------ answer phase ----

struct Instance {
  bool answered = false;
  std::int64_t output = 0;
  double ptime = 0.0;
  std::uint64_t interactions = 0;
  std::uint64_t occupancy_max = 0;
};

/// JIT work done so far (pairs, ns); both zero when no timed JIT is in use.
using JitProbe = std::function<std::pair<std::uint64_t, std::int64_t>()>;

/// Step `sim` in `check_dt` parallel-time slices, checking for the answer
/// before every slice and once more at the cap.  `answer(counts)` returns
/// the common output once the configuration has answered.
template <typename Answer>
Instance run_to_answer(pops::BatchedCountSimulation& sim, double check_dt, double max_ptime,
                       Answer&& answer, Tracer& tracer, const JitProbe& jit) {
  Instance inst;
  for (;;) {
    std::optional<std::int64_t> out;
    {
      Scope check(tracer, "check.answer");
      const std::vector<std::uint64_t> counts = sim.counts();
      std::uint64_t occupied = 0;
      for (const std::uint64_t c : counts) occupied += c != 0 ? 1 : 0;
      inst.occupancy_max = std::max(inst.occupancy_max, occupied);
      out = answer(counts);
    }
    if (out || sim.time() >= max_ptime) {
      inst.answered = out.has_value();
      inst.output = out.value_or(0);
      break;
    }
    Scope advance(tracer, "sim.advance");
    const auto before = jit ? jit() : std::pair<std::uint64_t, std::int64_t>{0, 0};
    sim.advance_time(check_dt);
    if (jit) {
      const auto after = jit();
      advance.set_jit(after.first - before.first, after.second - before.second);
    }
  }
  inst.ptime = sim.time();
  inst.interactions = sim.interactions();
  return inst;
}

/// Common output of an all-done Log-Size-Estimation configuration.
template <typename StateAt>
std::optional<std::int64_t> lse_common_output(const std::vector<std::uint64_t>& counts,
                                              StateAt&& state_at) {
  std::optional<std::int64_t> value;
  for (std::uint32_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const pops::LogSizeEstimation::State& s = state_at(i);
    if (!s.protocol_done || !s.has_output) return std::nullopt;
    if (value && *value != s.output) return std::nullopt;
    value = s.output;
  }
  return value;
}

// ------------------------------------------------------------- rounds ----

struct Round {
  bool traced = false;
  std::uint64_t instance_seed = 0;
  double setup_s = 0.0;
  double answer_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t compile_states = 0;
  std::uint64_t compile_transitions = 0;
  std::uint64_t jit_pairs = 0;
  std::uint64_t jit_states = 0;
  std::uint64_t lazy_pairs = 0;
  std::uint64_t lazy_states = 0;
  std::vector<Instance> instances;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;
};

struct Sizes {
  std::uint64_t n = 0;
  std::uint64_t trials = 1;
  double check_dt = 1.0;   ///< parallel time between answer checks
  double max_ptime = 0.0;  ///< an instance not answered by then missed
};

/// A workload: `setup` builds everything before the first interaction and
/// returns its seconds (set-up-only repetitions discard the result);
/// `round` runs set-up plus the answer phase for one instance seed.
struct Workload {
  Sizes size;
  std::uint32_t geometric_cap = 0;
  int setup_reps = 0;   ///< set-up-only repetitions per run (setup_s samples)
  int trace_pairs = 1;  ///< untraced/traced round pairs in a traced run
  std::function<double(std::uint64_t)> setup;
  std::function<Round(std::uint64_t, Tracer&)> round;
};

using LseProtocol = pops::Bounded<pops::LogSizeEstimation>;
using LseLazy = pops::LazyCompiledSpec<LseProtocol>;

Workload lse_jit_cold() {
  Workload w;
  const Sizes z{.n = 5000, .trials = 1, .check_dt = 10.0, .max_ptime = 10000.0};
  w.size = z;
  w.setup_reps = 200;
  w.trace_pairs = 8;
  // Faithful cap, as in bench_thm31_claims: ceil(log2 n) + 4, Tm 8, Em 1.
  const auto cap = static_cast<std::uint32_t>(std::ceil(std::log2(static_cast<double>(z.n)))) + 4;
  w.geometric_cap = cap;
  const LseProtocol proto(pops::LogSizeEstimation(pops::LogSizeEstimation::Params{
                              .time_multiplier = 8, .epoch_multiplier = 1, .logsize_offset = 2}),
                          cap);
  w.setup = [proto, cap, z](std::uint64_t seed) {
    const std::int64_t start = now_ns();
    LseLazy lazy(proto, cap);
    pops::BatchedCountSimulation sim(lazy, pops::trial_seed(seed, 1));
    pops::Rng seeder(pops::trial_seed(seed, 2));
    lazy.seed_initial(sim, z.n, seeder);
    return seconds_since(start);
  };
  w.round = [proto, cap, z](std::uint64_t seed, Tracer& tracer) {
    Round r;
    const std::int64_t start = now_ns();
    std::unique_ptr<LseLazy> lazy;
    {
      Scope s(tracer, "compile.lazy");
      lazy = std::make_unique<LseLazy>(proto, cap);
    }
    // The timed wrapper only runs traced, so untraced rounds step the
    // spec exactly as a user would.
    std::unique_ptr<TimedJit<LseLazy>> timed;
    if (tracer.enabled()) timed = std::make_unique<TimedJit<LseLazy>>(*lazy);
    pops::JitCompiler& jit = timed ? static_cast<pops::JitCompiler&>(*timed) : *lazy;
    std::unique_ptr<pops::BatchedCountSimulation> sim;
    {
      Scope s(tracer, "sim.build");
      sim = std::make_unique<pops::BatchedCountSimulation>(jit, pops::trial_seed(seed, 1));
    }
    {
      Scope s(tracer, "sim.seed");
      pops::Rng seeder(pops::trial_seed(seed, 2));
      lazy->seed_initial(*sim, z.n, seeder);
    }
    r.setup_s = seconds_since(start);
    const double cpu0 = cpu_seconds();
    const std::int64_t answer_start = now_ns();
    JitProbe probe;
    if (timed) probe = [&timed] { return std::make_pair(timed->pairs(), timed->ns()); };
    r.instances.push_back(run_to_answer(
        *sim, z.check_dt, z.max_ptime,
        [&lazy](const std::vector<std::uint64_t>& counts) {
          return lse_common_output(counts, [&lazy](std::uint32_t i) -> const auto& {
            return lazy->states()[i];
          });
        },
        tracer, probe));
    r.answer_s = seconds_since(answer_start);
    r.cpu_s = cpu_seconds() - cpu0;
    r.lazy_pairs = lazy->pairs_compiled();
    r.lazy_states = lazy->num_states();
    if (timed) {
      r.jit_pairs = timed->pairs();
      r.jit_states = timed->states();
    }
    return r;
  };
  return w;
}

Workload lse_eager_1e7() {
  Workload w;
  const Sizes z{.n = 10000000, .trials = 1, .check_dt = 1.0, .max_ptime = 300.0};
  w.size = z;
  w.setup_reps = 3;
  w.geometric_cap = pops::log_size_small().geometric_cap();
  const std::uint64_t n = z.n;
  // Set-up shared by the timed round and the set-up-only repetitions.
  struct Built {
    pops::CompileResult<LseProtocol> compiled;
    std::unique_ptr<pops::BatchedCountSimulation> sim;
  };
  auto build = [n](std::uint64_t seed, Tracer& tracer) {
    Built b;
    {
      Scope s(tracer, "compile.eager");
      const LseProtocol proto = pops::log_size_small();
      b.compiled = pops::ProtocolCompiler<LseProtocol>(proto, proto.geometric_cap()).compile();
    }
    {
      Scope s(tracer, "sim.build");
      b.sim = std::make_unique<pops::BatchedCountSimulation>(b.compiled.spec,
                                                             pops::trial_seed(seed, 1));
    }
    {
      Scope s(tracer, "sim.seed");
      pops::Rng seeder(pops::trial_seed(seed, 2));
      b.compiled.seed_initial(*b.sim, n, seeder);
    }
    return b;
  };
  w.setup = [build](std::uint64_t seed) {
    Tracer off(false);
    const std::int64_t start = now_ns();
    build(seed, off);
    return seconds_since(start);
  };
  w.round = [build, z](std::uint64_t seed, Tracer& tracer) {
    Round r;
    const std::int64_t start = now_ns();
    Built b = build(seed, tracer);
    r.setup_s = seconds_since(start);
    r.compile_states = b.compiled.num_states();
    r.compile_transitions = b.compiled.num_transitions();
    const double cpu0 = cpu_seconds();
    const std::int64_t answer_start = now_ns();
    const auto& states = b.compiled.states;
    r.instances.push_back(run_to_answer(
        *b.sim, z.check_dt, z.max_ptime,
        [&states](const std::vector<std::uint64_t>& counts) {
          return lse_common_output(counts, [&states](std::uint32_t i) -> const auto& {
            return states[i];
          });
        },
        tracer, JitProbe{}));
    r.answer_s = seconds_since(answer_start);
    r.cpu_s = cpu_seconds() - cpu0;
    return r;
  };
  return w;
}

Workload lse_trials() {
  Workload w;
  const Sizes z{.n = 100000, .trials = 32, .check_dt = 1.0, .max_ptime = 300.0};
  w.size = z;
  w.setup_reps = 15;
  w.geometric_cap = pops::log_size_tiny().geometric_cap();
  auto compile = [](Tracer& tracer) {
    Scope s(tracer, "compile.eager");
    const LseProtocol proto = pops::log_size_tiny();
    return pops::ProtocolCompiler<LseProtocol>(proto, proto.geometric_cap()).compile();
  };
  w.setup = [compile](std::uint64_t) {
    Tracer off(false);
    const std::int64_t start = now_ns();
    compile(off);
    return seconds_since(start);
  };
  w.round = [compile, z](std::uint64_t seed, Tracer& tracer) {
    Round r;
    const std::int64_t start = now_ns();
    const auto compiled = compile(tracer);
    r.setup_s = seconds_since(start);
    r.compile_states = compiled.num_states();
    r.compile_transitions = compiled.num_transitions();
    const double cpu0 = cpu_seconds();
    const std::int64_t answer_start = now_ns();
    {
      Scope fanout(tracer, "harness.trials");
      fanout.set_width(pops::effective_trial_threads(z.trials));
      const std::int32_t parent = fanout.id();
      r.instances = pops::run_trials_parallel(
          z.trials, seed, [&](std::uint64_t trial_seed, std::uint64_t) {
            Scope trial(tracer, "exec.trial", parent);
            std::unique_ptr<pops::BatchedCountSimulation> sim;
            {
              Scope s(tracer, "sim.build");
              sim = std::make_unique<pops::BatchedCountSimulation>(compiled.spec,
                                                                   pops::trial_seed(trial_seed, 1));
            }
            {
              Scope s(tracer, "sim.seed");
              pops::Rng seeder(pops::trial_seed(trial_seed, 2));
              compiled.seed_initial(*sim, z.n, seeder);
            }
            const auto& states = compiled.states;
            return run_to_answer(
                *sim, z.check_dt, z.max_ptime,
                [&states](const std::vector<std::uint64_t>& counts) {
                  return lse_common_output(counts, [&states](std::uint32_t i) -> const auto& {
                    return states[i];
                  });
                },
                tracer, JitProbe{});
          });
    }
    r.answer_s = seconds_since(answer_start);
    r.cpu_s = cpu_seconds() - cpu0;
    return r;
  };
  return w;
}

// ------------------------------------------------------------- output ----

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_round(std::ostringstream& out, const Round& r) {
  out << "{\"traced\": " << (r.traced ? "true" : "false") << ", \"instance_seed\": "
      << r.instance_seed << ", \"setup_s\": " << r.setup_s << ", \"answer_s\": " << r.answer_s
      << ", \"cpu_s\": " << r.cpu_s << ", \"compile_states\": " << r.compile_states
      << ", \"compile_transitions\": " << r.compile_transitions
      << ", \"jit_pairs\": " << r.jit_pairs << ", \"jit_states\": " << r.jit_states
      << ", \"lazy_pairs\": " << r.lazy_pairs << ", \"lazy_states\": " << r.lazy_states
      << ", \"instances\": [";
  for (std::size_t i = 0; i < r.instances.size(); ++i) {
    const Instance& inst = r.instances[i];
    out << (i ? ", " : "") << "{\"answered\": " << (inst.answered ? "true" : "false")
        << ", \"output\": " << inst.output << ", \"ptime\": " << inst.ptime
        << ", \"interactions\": " << inst.interactions
        << ", \"occupancy_max\": " << inst.occupancy_max << "}";
  }
  out << "]}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <lse_jit_cold|lse_eager_1e7|"
               "lse_trials> --seed <u64> --seconds <s> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  Workload w;
  if (opt.workload == "lse_jit_cold") {
    w = lse_jit_cold();
  } else if (opt.workload == "lse_eager_1e7") {
    w = lse_eager_1e7();
  } else if (opt.workload == "lse_trials") {
    w = lse_trials();
  } else {
    return usage("unknown workload");
  }

  // Batch load: one job at a time, executor pinned to the machine's width.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  pops::Executor::set_threads(nproc);
  const bool traced = !opt.trace_out.empty();
  const std::int64_t run_start = now_ns();

  std::vector<double> setup_samples;
  std::vector<Round> rounds;
  Tracer off(false);
  if (traced) {
    // Each instance seed runs twice, untraced and traced: the traced round
    // replays the untraced round's trajectory, so their difference is the
    // tracing overhead.  The order alternates so warm-up effects cancel.
    Tracer tracer(true);
    for (int i = 0; i < w.trace_pairs; ++i) {
      const std::uint64_t seed = pops::trial_seed(opt.seed, static_cast<std::uint64_t>(i));
      for (int k = 0; k < 2; ++k) {
        const bool traced_now = (k == 0) == (i % 2 == 1);
        Round r;
        if (traced_now) {
          Scope root(tracer, "bench.round", -1);
          r = w.round(seed, tracer);
        } else {
          r = w.round(seed, off);
        }
        r.traced = traced_now;
        r.instance_seed = seed;
        rounds.push_back(std::move(r));
      }
    }
    tracer.write(opt.trace_out, opt.workload, opt.seed);
  } else {
    for (int i = 0; i < w.setup_reps; ++i) {
      const std::uint64_t seed = pops::trial_seed(opt.seed, 1000 + static_cast<std::uint64_t>(i));
      setup_samples.push_back(w.setup(seed));
    }
    for (std::uint64_t i = 0;; ++i) {
      const std::int64_t round_start = now_ns();
      const std::uint64_t seed = pops::trial_seed(opt.seed, i);
      Round r = w.round(seed, off);
      r.instance_seed = seed;
      rounds.push_back(std::move(r));
      const double last = seconds_since(round_start);
      if (seconds_since(run_start) + last > opt.seconds) break;
    }
  }

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);
  std::ostringstream out;
  out.precision(9);
  out << "{\"header\": {\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"n\": " << w.size.n << ", \"trials\": " << w.size.trials
      << ", \"check_dt\": " << w.size.check_dt << ", \"max_ptime\": " << w.size.max_ptime
      << ", \"geometric_cap\": " << w.geometric_cap << ", \"nproc\": " << nproc
      << ", \"executor_width\": " << pops::Executor::instance().threads()
      << ", \"epoch_shards\": " << pops::BatchedCountSimulation::max_epoch_shards()
      << ", \"compiler\": \"" << json_escape(compiler_id()) << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\"},\n \"setup_samples\": [";
  for (std::size_t i = 0; i < setup_samples.size(); ++i) out << (i ? ", " : "") << setup_samples[i];
  out << "],\n \"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    out << (i ? ",\n  " : "\n  ");
    print_round(out, rounds[i]);
  }
  out << "],\n \"peak_rss_mb\": " << static_cast<double>(usage_self.ru_maxrss) / 1024.0
      << ",\n \"wall_s\": " << seconds_since(run_start) << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}
