// qbench-trace: the traced per-layer run. Replays a workload's inputs with
// each request broken into the public calls of its layers, records the
// benchmark's own span around every call (name, start, end, parent, one id
// per request), and prints the per-layer metrics as the last line of stdout.
// The spans stay in memory and are written to <work-dir>/trace_<workload>.json
// (Chrome trace-event format) when the run ends.
//
//   qbench-trace --workload serve|cold|nme --seed N --seconds S
//                --server-bin PATH --work-dir DIR
//
// The replay is a fixed number of rounds of the workload (trace_rounds), so
// --seconds does not change what is measured.
//
// Phases, in order:
//  A. staged replay, no caches: import, plan search, QPD build, backend
//     construction + probability fill, exact reference, sampling — each its
//     own span — then the same request once more through svc::estimate,
//     untraced. The stage sum must agree with that time (kStageSumTolerance)
//     and both answers must be bit-identical.
//  B. kernels: Statevector::apply over a dense 1q layer at 16/20/24/26
//     qubits, and a STREAM triad ceiling.
//  C. warm in-process svc::estimate against ServiceCaches.
//  D. the same requests over loopback to qcut-server: transport time, wire
//     codec time and the cache flags of the responses.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "catalog.hpp"
#include "harness.hpp"
#include "oracle.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/core/cut_executor.hpp"
#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/exec/backend.hpp"
#include "qcut/obs/metrics.hpp"
#include "qcut/plan/planned_executor.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "qcut/sim/statevector.hpp"
#include "qcut/svc/cache.hpp"
#include "qcut/svc/server.hpp"
#include "qcut/svc/wire.hpp"

namespace {

using qbench::BenchRequest;
using qbench::Metric;
using qbench::mono_ns;

/// Largest allowed |stage sum / untraced svc::estimate time - 1|, both
/// summed over a workload's replayed requests.
constexpr double kStageSumTolerance = 0.25;

std::uint64_t trace_rounds(qbench::Workload w) {
  return w == qbench::Workload::kNme ? 2 : 1;
}

/// Warm repetitions per request in phases C and D.
int warm_reps(qbench::Workload w) { return w == qbench::Workload::kServe ? 20 : 1; }

// ---- spans ---------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  int open(const std::string& name, std::uint64_t request) {
    spans_.push_back({name, mono_ns(), 0, stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  double close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = mono_ns();
    stack_.pop_back();
    const Span& s = spans_[static_cast<std::size_t>(idx)];
    return 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
  }

  /// Chrome trace-event JSON ("X" events, microseconds), one event per span;
  /// args carry the span's index, parent and request id.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                    "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, \"request\": %llu}}",
                    s.name.c_str(), 1e-3 * static_cast<double>(s.start_ns - t0),
                    1e-3 * static_cast<double>(s.end_ns - s.start_ns), i, s.parent,
                    static_cast<unsigned long long>(s.request));
      out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; on close, stores its duration in milliseconds.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, std::uint64_t request, double* ms_out)
      : log_(log), idx_(log.open(name, request)), ms_out_(ms_out) {}
  ~ScopedSpan() {
    const double ms = log_.close(idx_);
    if (ms_out_ != nullptr) {
      *ms_out_ = ms;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int idx_;
  double* ms_out_;
};

/// Polls this process's resident set every millisecond and keeps the
/// maximum since the last reset().
class RssSampler {
 public:
  RssSampler() : thread_([this] { loop(); }) {}
  ~RssSampler() {
    stop_.store(true);
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void reset() { peak_kib_.store(current_kib()); }
  double peak_mib() const { return static_cast<double>(peak_kib_.load()) / 1024.0; }

 private:
  static std::uint64_t current_kib() {
    return static_cast<std::uint64_t>(qbench::self_rss_mib() * 1024.0);
  }
  void loop() {
    while (!stop_.load()) {
      const std::uint64_t now = current_kib();
      std::uint64_t seen = peak_kib_.load();
      while (now > seen && !peak_kib_.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> peak_kib_{0};
  std::thread thread_;
};

// ---- phase A: staged replay ----------------------------------------------------

struct StageTimes {
  bool ok = false;
  double plan_ms = 0.0;
  double nodes = 0.0;
  double build_qpd_ms = 0.0;
  double terms = 0.0;
  double prob_fill_ms = 0.0;
  double exact_ms = 0.0;
  bool has_exact = false;
  double sample_ms = 0.0;
  double shots = 0.0;
  double import_ms = 0.0;
  double request_ms = 0.0;   ///< the whole traced request
  double untraced_ms = 0.0;  ///< svc::estimate of the same request
  double states_at_peak = 0.0;
  // Counter and pool deltas over the staged calls only.
  qcut::obs::MetricsSnapshot counters;
  double pool_busy_ms = 0.0;
  double pool_wait_ms = 0.0;
};

StageTimes staged_request(const BenchRequest& r, std::uint64_t id, SpanLog& log, RssSampler& rss,
                          bool* identical, qbench::Answer* answer) {
  StageTimes t;
  const qcut::Observable obs = qcut::Observable::parse(r.observable);
  qcut::PlannerConfig pcfg;
  pcfg.max_fragment_width = r.cap;
  pcfg.pair_budget = r.pair_budget;
  pcfg.resource_overlap = r.overlap;
  pcfg.target_accuracy = r.epsilon;
  qcut::CutRunResult staged;
  const qcut::obs::MetricsSnapshot c0 = qcut::obs::metrics_snapshot();
  const std::uint64_t busy0 = qcut::global_pool().busy_ns();
  const std::uint64_t wait0 = qcut::global_pool().queue_wait_ns();
  try {
    ScopedSpan request(log, "request", id, &t.request_ms);
    qcut::Circuit circ;
    {
      ScopedSpan s(log, "sim.import_qasm", id, &t.import_ms);
      circ = qcut::strip_trailing_measurements(qcut::import_qasm(r.qasm, "<request>"));
    }
    qcut::CutPlan plan;
    {
      ScopedSpan s(log, "plan.search", id, &t.plan_ms);
      const qcut::CutPlanner planner(circ, pcfg);
      plan = planner.plan();
    }
    t.nodes = static_cast<double>(plan.nodes_explored);
    qcut::Qpd qpd;
    {
      ScopedSpan s(log, "cut.build_qpd", id, &t.build_qpd_ms);
      const qcut::PlannedExecutor executor(circ, plan);
      qpd = executor.build_qpd(obs);
    }
    t.terms = static_cast<double>(qpd.size());
    qcut::CutRunConfig rcfg;
    rcfg.shots = static_cast<std::uint64_t>(std::ceil(plan.predicted_shots));
    rcfg.seed = r.seed;
    std::unique_ptr<qcut::ExecutionBackend> backend;
    {
      const double rss0 = qbench::self_rss_mib();
      rss.reset();
      ScopedSpan s(log, "exec.prob_fill", id, &t.prob_fill_ms);
      rcfg.backend = qcut::PlannedExecutor::routed_backend(qpd, rcfg);
      backend = qcut::make_backend(rcfg.backend, qpd);
      if (auto* frag = dynamic_cast<qcut::FragmentBackend*>(backend.get())) {
        frag->prewarm();
      } else if (auto* branch = dynamic_cast<qcut::BatchedBranchBackend*>(backend.get())) {
        branch->cache().prewarm(qcut::global_pool());
      }
      t.states_at_peak = std::max(0.0, rss.peak_mib() - rss0) * 1024.0 * 1024.0 /
                         (16.0 * std::ldexp(1.0, plan.max_sim_width));
    }
    double exact = std::nan("");
    if (circ.n_qubits() <= qcut::Statevector::kMaxQubits) {
      ScopedSpan s(log, "sim.exact_reference", id, &t.exact_ms);
      exact = qcut::uncut_circuit_expectation(circ, r.observable);
      t.has_exact = true;
    }
    {
      ScopedSpan s(log, "exec.sample", id, &t.sample_ms);
      rcfg.shared_backend = backend.get();
      staged = t.has_exact ? qcut::run_qpd_estimate(qpd, exact, rcfg)
                           : qcut::run_qpd_estimate(qpd, rcfg);
    }
    t.shots = static_cast<double>(staged.details.shots_used);
    t.counters = qcut::obs::metrics_delta(c0, qcut::obs::metrics_snapshot());
    t.pool_busy_ms = 1e-6 * static_cast<double>(qcut::global_pool().busy_ns() - busy0);
    t.pool_wait_ms = 1e-6 * static_cast<double>(qcut::global_pool().queue_wait_ns() - wait0);
  } catch (const std::exception& e) {
    if (!r.expect_failure) {
      std::fprintf(stderr, "qbench-trace: %s failed: %s\n", r.name.c_str(), e.what());
    }
    return t;
  }

  const qcut::svc::EstimateRequest req = qbench::to_estimate_request(r);
  const std::uint64_t u0 = mono_ns();
  const qcut::svc::EstimateResult res = qcut::svc::estimate(req, nullptr);
  t.untraced_ms = 1e-6 * static_cast<double>(mono_ns() - u0);
  *identical = staged.estimate == res.estimate &&
               staged.details.shots_used == res.shots_used && staged.details.kappa == res.kappa;
  *answer = {res.estimate, res.ci_halfwidth, r.epsilon, r.oracle};
  t.ok = true;
  return t;
}

// ---- phase B: kernels and the bandwidth ceiling --------------------------------

/// Computed GB/s of Statevector::apply over a dense 1q layer on n qubits:
/// each gate reads and writes every amplitude once (2 x 16 B x 2^n).
double kernel_gbps(int n, int reps) {
  qcut::Statevector sv(n);
  const qcut::Matrix u = qcut::gates::u3(0.3, 0.7, 1.1);
  std::vector<double> rates;
  for (int rep = 0; rep < reps + 1; ++rep) {
    const std::uint64_t t0 = mono_ns();
    for (int q = 0; q < n; ++q) {
      sv.apply(u, {q});
    }
    const double s = 1e-9 * static_cast<double>(mono_ns() - t0);
    if (rep > 0) {  // the first layer faults the state in
      rates.push_back(static_cast<double>(n) * 32.0 * std::ldexp(1.0, n) / s / 1e9);
    }
  }
  return qbench::median(rates);
}

/// Last-level cache size in bytes, as the C library reports it.
double llc_bytes() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) {
    llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  }
  return llc > 0 ? static_cast<double>(llc) : 32.0 * 1024 * 1024;
}

/// STREAM triad a = b + s*c with one chunk per pool-sized thread, arrays of
/// `n` doubles each; best GB/s over `reps` passes. An element moves 32 B:
/// b and c are read, and the ordinary store to a reads its line before
/// writing it back (write-allocate).
double stream_triad_gbps(std::size_t n, int threads, int reps) {
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  auto each_chunk = [&](auto&& body) {
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = n * static_cast<std::size_t>(t) / static_cast<std::size_t>(threads);
      const std::size_t hi =
          n * static_cast<std::size_t>(t + 1) / static_cast<std::size_t>(threads);
      ts.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (std::thread& th : ts) {
      th.join();
    }
  };
  each_chunk([&](std::size_t lo, std::size_t hi) {  // first touch by the owning thread
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 0.0;
  const double s = 3.0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t t0 = mono_ns();
    each_chunk([&](std::size_t lo, std::size_t hi) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) {
        pa[i] = pb[i] + s * pc[i];
      }
    });
    const double sec = 1e-9 * static_cast<double>(mono_ns() - t0);
    best = std::max(best, 32.0 * static_cast<double>(n) / sec / 1e9);
  }
  if (a[n / 2] != 1.0 + s * 2.0) {
    throw std::runtime_error("STREAM triad produced a wrong value");
  }
  return best;
}

// ---- helpers -------------------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename F>
std::vector<double> collect(const std::vector<StageTimes>& v, F f) {
  std::vector<double> out;
  for (const StageTimes& t : v) {
    if (t.ok) {
      out.push_back(f(t));
    }
  }
  return out;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double sum(const std::vector<double>& v) { return mean(v) * static_cast<double>(v.size()); }

}  // namespace

int main(int argc, char** argv) {
  try {
    const qbench::Options o = qbench::parse_options(argc, argv);
    std::vector<BenchRequest> reqs;
    for (std::uint64_t round = 0; round < trace_rounds(o.workload); ++round) {
      std::vector<BenchRequest> more = qbench::make_round(o.workload, o.seed, round);
      reqs.insert(reqs.end(), more.begin(), more.end());
    }
    qbench::compute_oracles(&reqs);
    SpanLog log;
    std::vector<Metric> m;
    bool correct = true;

    // A. staged replay.
    qcut::global_pool();
    std::vector<StageTimes> stages;
    std::vector<qbench::Answer> answers;
    std::size_t not_identical = 0;
    std::uint64_t failed = 0;
    {
      RssSampler rss;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        bool identical = true;
        qbench::Answer answer;
        stages.push_back(staged_request(reqs[i], i + 1, log, rss, &identical, &answer));
        if (!stages.back().ok) {
          ++failed;
          correct = correct && reqs[i].expect_failure;
          continue;
        }
        answers.push_back(answer);
        not_identical += identical ? 0 : 1;
      }
    }
    // Stage times are busy time per answered request (their mean).
    auto per_answer = [&stages](auto f) { return mean(collect(stages, f)); };
    auto total = [&stages](qcut::obs::Counter c) {
      return sum(
          collect(stages, [c](const StageTimes& t) { return static_cast<double>(t.counters[c]); }));
    };
    using qcut::obs::Counter;
    m.push_back({"sim.fused_ops_ratio",
                 ratio(total(Counter::kFusionOpsAfter), total(Counter::kFusionOpsBefore)),
                 "ratio"});
    m.push_back({"cut.skeleton_hit_ratio",
                 ratio(total(Counter::kSkeletonCacheHit),
                       total(Counter::kSkeletonCacheHit) + total(Counter::kSkeletonCacheMiss)),
                 "ratio"});
    m.push_back({"exec.branches_enumerated",
                 per_answer([](const StageTimes& t) {
                   return static_cast<double>(t.counters[Counter::kBranchesEnumerated]);
                 }),
                 "count"});
    m.push_back({"common.pool_busy_ms",
                 per_answer([](const StageTimes& t) { return t.pool_busy_ms; }), "ms"});
    m.push_back({"common.pool_queue_wait_ms",
                 per_answer([](const StageTimes& t) { return t.pool_wait_ms; }), "ms"});
    m.push_back({"plan.search_ms", per_answer([](const StageTimes& t) { return t.plan_ms; }),
                 "ms"});
    m.push_back({"plan.nodes_explored", per_answer([](const StageTimes& t) { return t.nodes; }),
                 "count"});
    m.push_back({"cut.build_qpd_ms",
                 per_answer([](const StageTimes& t) { return t.build_qpd_ms; }), "ms"});
    m.push_back({"cut.qpd_terms", per_answer([](const StageTimes& t) { return t.terms; }),
                 "count"});
    m.push_back({"exec.prob_fill_ms",
                 per_answer([](const StageTimes& t) { return t.prob_fill_ms; }), "ms"});
    m.push_back({"exec.sample_ms", per_answer([](const StageTimes& t) { return t.sample_ms; }),
                 "ms"});
    m.push_back({"exec.shots_per_s",
                 ratio(sum(collect(stages, [](const StageTimes& t) { return t.shots; })),
                       1e-3 * sum(collect(stages, [](const StageTimes& t) { return t.sample_ms; }))),
                 "1/s"});
    m.push_back({"sim.exact_reference_ms",
                 per_answer([](const StageTimes& t) { return t.exact_ms; }), "ms"});
    const std::vector<double> states =
        collect(stages, [](const StageTimes& t) { return t.states_at_peak; });
    m.push_back({"mem.states_at_peak", *std::max_element(states.begin(), states.end()),
                 "count"});

    const double stage_sum = sum(collect(stages, [](const StageTimes& t) {
      return t.import_ms + t.plan_ms + t.build_qpd_ms + t.prob_fill_ms + t.exact_ms + t.sample_ms;
    }));
    const double traced = sum(collect(stages, [](const StageTimes& t) { return t.request_ms; }));
    const double untraced = sum(collect(stages, [](const StageTimes& t) { return t.untraced_ms; }));
    m.push_back({"trace.overhead_frac", traced / untraced - 1.0, "ratio"});
    const bool stage_sum_ok = std::fabs(stage_sum / untraced - 1.0) <= kStageSumTolerance;
    const qbench::CheckSummary check = qbench::check_answers(answers);
    std::fprintf(stderr,
                 "qbench-trace: %zu requests replayed, %llu failed; stage sum %.1f ms vs "
                 "untraced svc::estimate %.1f ms (ratio %.3f, tolerance +-%.2f); %zu staged "
                 "answers differ from svc::estimate; oracle: %s\n",
                 reqs.size(), static_cast<unsigned long long>(failed), stage_sum, untraced,
                 stage_sum / untraced, kStageSumTolerance, not_identical,
                 check.describe().c_str());
    correct = correct && stage_sum_ok && not_identical == 0 && check.ok();

    // B. kernels against the STREAM triad ceiling.
    {
      ScopedSpan s(log, "sim.kernels", 0, nullptr);
      // q24 (256 MiB) may sit in a large last-level cache; q26 (1 GiB) is
      // well above it and runs from DRAM.
      const double q24 = kernel_gbps(24, 3);
      const double q26 = kernel_gbps(26, 2);
      m.push_back({"sim.kernel_gbps.q16", kernel_gbps(16, 50), "GB/s"});
      m.push_back({"sim.kernel_gbps.q20", kernel_gbps(20, 10), "GB/s"});
      m.push_back({"sim.kernel_gbps.q24", q24, "GB/s"});
      m.push_back({"sim.kernel_gbps.q26", q26, "GB/s"});
      const double llc = llc_bytes();
      const std::size_t n = static_cast<std::size_t>(4.0 * llc / 8.0);
      const int threads = static_cast<int>(qcut::global_pool().size());
      const double triad = stream_triad_gbps(n, threads, 5);
      std::fprintf(stderr,
                   "qbench-trace: STREAM triad over 3 arrays of %.0f MiB each (4x the %.0f MiB "
                   "last-level cache), %d threads: %.2f GB/s\n",
                   8.0 * static_cast<double>(n) / 1048576.0, llc / 1048576.0, threads, triad);
      m.push_back({"sim.stream_triad_gbps", triad, "GB/s"});
      m.push_back({"sim.kernel_roofline_frac.q24", q24 / triad, "ratio"});
      m.push_back({"sim.kernel_roofline_frac.q26", q26 / triad, "ratio"});
    }

    // C. warm in-process estimates; D. the same over loopback.
    const int reps = warm_reps(o.workload);
    std::vector<double> warm_us;
    std::vector<double> transport_us;
    std::vector<double> codec_us;
    std::vector<double> import_us;
    double responses = 0.0;
    double plan_hits = 0.0;
    double eval_hits = 0.0;
    {
      qcut::svc::ServiceCaches caches;
      std::map<std::size_t, double> warm_median_us;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (!stages[i].ok) {
          continue;
        }
        const qcut::svc::EstimateRequest req = qbench::to_estimate_request(reqs[i]);
        qcut::svc::estimate(req, &caches);
        std::vector<double> mine;
        for (int k = 0; k < reps; ++k) {
          ScopedSpan s(log, "svc.warm_estimate", i + 1, nullptr);
          const std::uint64_t t0 = mono_ns();
          qcut::svc::estimate(req, &caches);
          mine.push_back(1e-3 * static_cast<double>(mono_ns() - t0));
        }
        warm_us.insert(warm_us.end(), mine.begin(), mine.end());
        warm_median_us[i] = qbench::median(mine);
        std::vector<double> imp;
        for (int k = 0; k < 20; ++k) {
          const std::uint64_t t0 = mono_ns();
          const qcut::Circuit c =
              qcut::strip_trailing_measurements(qcut::import_qasm(reqs[i].qasm, "<request>"));
          imp.push_back(1e-3 * static_cast<double>(mono_ns() - t0));
        }
        import_us.push_back(qbench::median(imp));
      }

      qbench::ServerProcess server(o.server_bin, o.work_dir + "/trace_port",
                                   o.work_dir + "/trace_server.log", 2);
      qcut::svc::QcutClient client("127.0.0.1", server.port());
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (!stages[i].ok) {
          continue;
        }
        const qcut::svc::WireEstimateRequest wreq = qbench::to_wire_request(reqs[i]);
        std::vector<double> loop_us;
        qcut::svc::WireEstimateResponse resp;
        for (int k = 0; k <= reps; ++k) {
          ScopedSpan s(log, k == 0 ? "svc.loopback_first" : "svc.loopback", i + 1, nullptr);
          const std::uint64_t t0 = mono_ns();
          resp = client.estimate(wreq);
          if (k > 0) {
            loop_us.push_back(1e-3 * static_cast<double>(mono_ns() - t0));
          }
          responses += 1.0;
          plan_hits += resp.plan_cache_hit;
          eval_hits += resp.eval_cache_hit;
        }
        transport_us.push_back(qbench::median(loop_us) - warm_median_us[i]);
        std::vector<double> codec;
        for (int k = 0; k < 20; ++k) {
          const std::uint64_t t0 = mono_ns();
          const auto req_bytes = qcut::svc::encode_estimate_request(wreq);
          const auto req_back = qcut::svc::decode_estimate_request(req_bytes);
          const auto resp_bytes = qcut::svc::encode_estimate_response(resp);
          const auto resp_back = qcut::svc::decode_estimate_response(resp_bytes);
          codec.push_back(1e-3 * static_cast<double>(mono_ns() - t0));
          correct = correct && req_back.seed == wreq.seed && resp_back.estimate == resp.estimate;
        }
        codec_us.push_back(qbench::median(codec));
      }
    }
    m.push_back({"sim.import_qasm_us", qbench::median(import_us), "us"});
    m.push_back({"svc.warm_estimate_us", qbench::median(warm_us), "us"});
    m.push_back({"svc.transport_us", qbench::median(transport_us), "us"});
    m.push_back({"svc.wire_codec_us", qbench::median(codec_us), "us"});
    m.push_back({"svc.plan_hit_ratio", ratio(plan_hits, responses), "ratio"});
    m.push_back({"svc.eval_hit_ratio", ratio(eval_hits, responses), "ratio"});

    log.write(o.work_dir + "/trace_" + qbench::workload_name(o.workload) + ".json");
    qbench::print_result(correct, reqs.size(), failed, m);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench-trace: %s\n", e.what());
    return 1;
  }
}
