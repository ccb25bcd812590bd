// qbench-e2e: the end-to-end command. Runs one workload against the entry
// points users call (svc::estimate in process, the wire protocol to
// qcut-server), checks every answer against the independent oracle, and
// prints the end-to-end metrics as the last line of stdout.
//
//   qbench-e2e --workload serve|cold|nme --seed N --seconds S
//              --server-bin PATH --work-dir DIR
//   qbench-e2e --list serve|cold|nme --seed N
//
// --list prints the first rounds' requests of a workload with their oracle
// values (recomputed from the seeded gate lists, as every run does) and
// exits without running anything.
//
// Every run attempts whole rounds of its workload, so the share of failed
// operations is the same in every run whatever the seed and the length.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog.hpp"
#include "harness.hpp"
#include "oracle.hpp"
#include "qcut/common/threadpool.hpp"
#include "qcut/svc/cache.hpp"
#include "qcut/svc/server.hpp"

namespace {

using qbench::BenchRequest;
using qbench::Metric;

// Taken during static initialization: set-up time counts from here.
const std::uint64_t g_process_start_ns = qbench::mono_ns();

constexpr int kServerWorkers = 2;
constexpr int kConnections = 2;

/// One timed answer (or failure) of any workload.
struct Record {
  std::size_t slot = 0;
  std::uint64_t seed = 0;
  double latency_ms = 0.0;
  bool ok = false;
  double estimate = 0.0;
  double ci_halfwidth = 0.0;
  std::uint64_t shots = 0;
  double kappa = 0.0;
};

/// Collects distinct answers (slot, seed) for the statistical check and
/// verifies that a repeated request is answered bit-identically.
class AnswerBook {
 public:
  void add(const BenchRequest& r, std::size_t slot, const Record& rec) {
    const auto key = std::make_pair(slot, rec.seed);
    auto it = seen_.find(key);
    if (it == seen_.end()) {
      seen_.emplace(key, rec);
      answers_.push_back({rec.estimate, rec.ci_halfwidth, r.epsilon, r.oracle});
      return;
    }
    if (it->second.estimate != rec.estimate || it->second.ci_halfwidth != rec.ci_halfwidth ||
        it->second.shots != rec.shots) {
      ++nondeterministic_;
    }
  }
  const std::vector<qbench::Answer>& answers() const { return answers_; }
  std::size_t nondeterministic() const { return nondeterministic_; }

 private:
  std::map<std::pair<std::size_t, std::uint64_t>, Record> seen_;
  std::vector<qbench::Answer> answers_;
  std::size_t nondeterministic_ = 0;
};

struct Summary {
  std::vector<Record> records;  ///< the timed phase
  double setup_s = 0.0;
  double timed_s = 0.0;         ///< wall time the answers took
  double cpu_s = 0.0;           ///< CPU of the answering process over the timed phase
  double peak_rss_mib = 0.0;
  bool correct = true;
};

std::vector<Metric> end_to_end_metrics(const Summary& s, qbench::Workload w) {
  std::vector<double> lat;
  double shots = 0.0;
  for (const Record& r : s.records) {
    if (r.ok) {
      lat.push_back(r.latency_ms);
      shots += static_cast<double>(r.shots);
    }
  }
  const double answers = static_cast<double>(lat.size());
  const double tail_q = qbench::run_shape(w).tail_percentile;
  std::fprintf(stderr, "qbench: %zu answers; latency_tail_ms is p%g\n", lat.size(), tail_q);
  return {
      {"setup_s", s.setup_s, "s"},
      {"throughput_rps", answers / s.timed_s, "answers/s"},
      {"latency_p50_ms", qbench::median(lat), "ms"},
      {"latency_tail_ms", qbench::percentile(lat, tail_q), "ms"},
      {"cpu_ms_per_answer", 1e3 * s.cpu_s / answers, "ms"},
      {"peak_rss_mb", s.peak_rss_mib, "MiB"},
      {"shots_per_answer", shots / answers, "shots"},
  };
}

/// Median latency per catalog slot, on stderr: where each percentile lands.
void print_slot_latencies(const std::vector<Record>& records,
                          const std::vector<BenchRequest>& slots) {
  std::vector<std::vector<double>> by_slot(slots.size());
  for (const Record& r : records) {
    if (r.ok) {
      by_slot[r.slot].push_back(r.latency_ms);
    }
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    std::fprintf(stderr, "qbench:   slot %2zu %-30s %5zu answers, median %10.3f ms\n", i,
                 slots[i].name.c_str(), by_slot[i].size(), qbench::median(by_slot[i]));
  }
}

bool check_book(const AnswerBook& book, const char* what) {
  const qbench::CheckSummary c = qbench::check_answers(book.answers());
  std::fprintf(stderr, "qbench: %s: %s, %zu nondeterministic repeats\n", what,
               c.describe().c_str(), book.nondeterministic());
  return c.ok() && book.nondeterministic() == 0 && c.answers > 0;
}

// ---- serve: closed loop over loopback TCP ------------------------------------

Summary run_serve(const qbench::Options& o) {
  const std::uint64_t t_inputs0 = qbench::mono_ns();
  std::vector<BenchRequest> catalog = qbench::make_round(o.workload, o.seed, 0);
  qbench::compute_oracles(&catalog);
  std::vector<qcut::svc::WireEstimateRequest> wire;
  for (const BenchRequest& r : catalog) {
    wire.push_back(qbench::to_wire_request(r));
  }
  const std::uint64_t inputs_ns = qbench::mono_ns() - t_inputs0;

  Summary s;
  AnswerBook book;
  qbench::ServerProcess server(o.server_bin, o.work_dir + "/port", o.work_dir + "/server.log",
                               kServerWorkers);
  std::vector<std::unique_ptr<qcut::svc::QcutClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<qcut::svc::QcutClient>("127.0.0.1", server.port()));
  }
  // Warm-up: the first pass fills the plan and eval caches, the second
  // (on the other connection) runs every request warm once.
  for (int c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const qcut::svc::WireEstimateResponse resp = clients[c]->estimate(wire[i]);
      if (resp.status == static_cast<std::uint8_t>(qcut::svc::WireStatus::kOk)) {
        Record rec;
        rec.slot = i;
        rec.seed = wire[i].seed;
        rec.estimate = resp.estimate;
        rec.ci_halfwidth = resp.ci_halfwidth;
        rec.shots = resp.shots_used;
        book.add(catalog[i], i, rec);
      }
    }
  }
  const std::uint64_t t_start = qbench::mono_ns();
  s.setup_s = 1e-9 * static_cast<double>(t_start - g_process_start_ns - inputs_ns);

  // Timed phase: each connection takes whole rounds of the catalog until
  // the time is up; fresh-seed slots draw a new sampling seed per round.
  const double cpu0 = qbench::proc_cpu_s(server.pid());
  const std::uint64_t deadline = t_start + static_cast<std::uint64_t>(o.seconds * 1e9);
  std::atomic<std::uint64_t> next_round{1};
  std::vector<std::vector<Record>> per_conn(kConnections);
  std::vector<std::exception_ptr> errors(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        std::vector<Record>& out = per_conn[c];
        while (qbench::mono_ns() < deadline) {
          const std::uint64_t round = next_round.fetch_add(1);
          for (std::size_t i = 0; i < catalog.size(); ++i) {
            qcut::svc::WireEstimateRequest req = wire[i];
            if (catalog[i].fresh_seed) {
              req.seed = qbench::fresh_seed_for(o.seed, round, i);
            }
            const std::uint64_t t0 = qbench::mono_ns();
            const qcut::svc::WireEstimateResponse resp = clients[c]->estimate(req);
            const std::uint64_t t1 = qbench::mono_ns();
            Record rec;
            rec.slot = i;
            rec.seed = req.seed;
            rec.latency_ms = 1e-6 * static_cast<double>(t1 - t0);
            rec.ok = resp.status == static_cast<std::uint8_t>(qcut::svc::WireStatus::kOk);
            rec.estimate = resp.estimate;
            rec.ci_halfwidth = resp.ci_halfwidth;
            rec.shots = resp.shots_used;
            rec.kappa = resp.kappa;
            out.push_back(rec);
          }
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
  s.timed_s = 1e-9 * static_cast<double>(qbench::mono_ns() - t_start);
  s.cpu_s = qbench::proc_cpu_s(server.pid()) - cpu0;
  s.peak_rss_mib = qbench::proc_peak_rss_mib(server.pid());
  clients.clear();
  server.stop();

  for (std::vector<Record>& v : per_conn) {
    s.records.insert(s.records.end(), v.begin(), v.end());
  }
  std::size_t unexpected_failures = 0;
  for (const Record& rec : s.records) {
    if (rec.ok) {
      book.add(catalog[rec.slot], rec.slot, rec);
    } else if (!catalog[rec.slot].expect_failure) {
      ++unexpected_failures;
    }
  }
  print_slot_latencies(s.records, catalog);
  s.correct = check_book(book, "serve") && unexpected_failures == 0;

  // Served answers must be bit-identical to in-process svc::estimate of the
  // same request: every fixed slot, and the first fresh seeds of each
  // fresh-seed slot.
  constexpr std::size_t kFreshCompared = 16;
  qcut::svc::ServiceCaches caches;
  std::set<std::pair<std::size_t, std::uint64_t>> compared;
  std::vector<std::size_t> fresh_compared(catalog.size(), 0);
  std::size_t mismatched = 0;
  for (const Record& rec : s.records) {
    const BenchRequest& base = catalog[rec.slot];
    if (!rec.ok || compared.count({rec.slot, rec.seed}) != 0 ||
        (base.fresh_seed && fresh_compared[rec.slot]++ >= kFreshCompared)) {
      continue;
    }
    compared.insert({rec.slot, rec.seed});
    BenchRequest r = base;
    r.seed = rec.seed;
    const qcut::svc::EstimateResult res =
        qcut::svc::estimate(qbench::to_estimate_request(r), &caches);
    if (!qbench::same_answer(rec.estimate, rec.ci_halfwidth, rec.shots, rec.kappa, res)) {
      ++mismatched;
    }
  }
  std::fprintf(stderr, "qbench: serve: %zu unexpected failures, %zu of %zu distinct served "
               "answers differ from in-process svc::estimate\n",
               unexpected_failures, mismatched, compared.size());
  s.correct = s.correct && mismatched == 0 && !compared.empty();
  return s;
}

// ---- cold and nme: in process, one calling thread, no caches -----------------

Summary run_in_process(const qbench::Options& o) {
  Summary s;
  // Set-up: the global pool, SIMD dispatch and every other lazy start are
  // paid by one small request per route, outside the workload.
  qcut::global_pool();
  for (const BenchRequest& warm : qbench::make_warmup_requests(o.workload)) {
    qcut::svc::estimate(qbench::to_estimate_request(warm), nullptr);
  }
  const std::uint64_t t_start = qbench::mono_ns();
  s.setup_s = 1e-9 * static_cast<double>(t_start - g_process_start_ns);

  AnswerBook book;
  std::size_t kappa_errors = 0;
  std::size_t unexpected_failures = 0;
  double timed_ns = 0.0;
  const std::uint64_t deadline = t_start + static_cast<std::uint64_t>(o.seconds * 1e9);
  const std::uint64_t min_rounds = qbench::run_shape(o.workload).min_rounds;
  for (std::uint64_t round = 0; round < min_rounds || qbench::mono_ns() < deadline; ++round) {
    std::vector<BenchRequest> reqs = qbench::make_round(o.workload, o.seed, round);
    qbench::compute_oracles(&reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const qcut::svc::EstimateRequest req = qbench::to_estimate_request(reqs[i]);
      const double cpu0 = qbench::self_cpu_s();
      const std::uint64_t t0 = qbench::mono_ns();
      qcut::svc::EstimateResult res;
      Record rec;
      try {
        res = qcut::svc::estimate(req, nullptr);
        rec.ok = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "qbench: %s failed: %s\n", reqs[i].name.c_str(), e.what());
      }
      const std::uint64_t t1 = qbench::mono_ns();
      s.cpu_s += qbench::self_cpu_s() - cpu0;
      timed_ns += static_cast<double>(t1 - t0);
      rec.slot = i;
      rec.seed = reqs[i].seed;
      rec.latency_ms = 1e-6 * static_cast<double>(t1 - t0);
      rec.estimate = res.estimate;
      rec.ci_halfwidth = res.ci_halfwidth;
      rec.shots = res.shots_used;
      rec.kappa = res.kappa;
      s.records.push_back(rec);
      if (!rec.ok) {
        unexpected_failures += reqs[i].expect_failure ? 0 : 1;
        continue;
      }
      book.add(reqs[i], i, rec);
      const std::string kerr = qbench::check_plan_kappa(reqs[i], res.plan, res.kappa);
      if (!kerr.empty()) {
        ++kappa_errors;
        std::fprintf(stderr, "qbench: %s: %s\n", reqs[i].name.c_str(), kerr.c_str());
      }
    }
  }
  s.timed_s = 1e-9 * timed_ns;
  s.peak_rss_mib = qbench::self_peak_rss_mib();
  print_slot_latencies(s.records, qbench::make_round(o.workload, o.seed, 0));
  s.correct = check_book(book, qbench::workload_name(o.workload)) && kappa_errors == 0 &&
              unexpected_failures == 0;
  std::fprintf(stderr, "qbench: %zu kappa mismatches against Theorem 1, %zu unexpected "
               "failures\n", kappa_errors, unexpected_failures);
  return s;
}

void list_inputs(const std::string& workload, std::uint64_t seed) {
  qbench::Workload w;
  if (!qbench::parse_workload(workload, &w)) {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  for (std::uint64_t round = 0; round < qbench::run_shape(w).min_rounds; ++round) {
    std::vector<BenchRequest> reqs = qbench::make_round(w, seed, round);
    qbench::compute_oracles(&reqs);
    for (const BenchRequest& r : reqs) {
      std::printf("round %llu %-28s cap %2d eps %.3f budget %d f %.2f seed %llu obs %s "
                  "oracle %.17g\n",
                  static_cast<unsigned long long>(round), r.name.c_str(), r.cap, r.epsilon,
                  r.pair_budget, r.overlap, static_cast<unsigned long long>(r.seed),
                  r.observable.c_str(), r.oracle);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = qbench::parse_flags(argc, argv);
    if (flags.count("list") != 0) {
      list_inputs(flags.at("list"), flags.count("seed") ? std::stoull(flags.at("seed")) : 1);
      return 0;
    }
    const qbench::Options o = qbench::parse_options(argc, argv);
    const Summary s = o.workload == qbench::Workload::kServe ? run_serve(o) : run_in_process(o);
    std::uint64_t failed = 0;
    for (const Record& r : s.records) {
      failed += r.ok ? 0 : 1;
    }
    qbench::print_result(s.correct, s.records.size(), failed, end_to_end_metrics(s, o.workload));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench-e2e: %s\n", e.what());
    return 1;
  }
}
