#include "harness.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "qcut/cut/cut_protocol.hpp"

extern char** environ;

namespace qbench {

qcut::svc::EstimateRequest to_estimate_request(const BenchRequest& r) {
  qcut::svc::EstimateRequest req;
  req.circuit_qasm = r.qasm;
  req.observable = qcut::Observable::parse(r.observable);
  req.epsilon = r.epsilon;
  req.planner.max_fragment_width = r.cap;
  req.planner.pair_budget = r.pair_budget;
  req.planner.resource_overlap = r.overlap;
  req.run_cfg.shots = 0;
  req.run_cfg.seed = r.seed;
  return req;
}

qcut::svc::WireEstimateRequest to_wire_request(const BenchRequest& r) {
  qcut::svc::WireEstimateRequest w;
  w.circuit_qasm = r.qasm;
  w.observable = r.observable;
  w.epsilon = r.epsilon;
  w.seed = r.seed;
  w.max_fragment_width = r.cap;
  w.pair_budget = r.pair_budget;
  w.resource_overlap = r.overlap;
  return w;
}

std::string check_plan_kappa(const BenchRequest& r, const qcut::CutPlan& plan, double kappa) {
  constexpr double kPi = 3.14159265358979323846;
  std::ostringstream err;
  double product = 1.0;
  for (const qcut::PlannedCut& c : plan.cuts) {
    double want = 3.0;
    if (c.site.kind == qcut::CutKind::kGate) {
      const std::size_t i = c.site.op_index;
      if (i >= r.gates.size() || r.gates[i].kind != GateKind::kCz) {
        err << "gate cut on op " << i << " is not one of the request's cz gates; ";
        continue;
      }
      want = 1.0 + 2.0 * std::fabs(std::sin(2.0 * kPi / 4.0));
    } else if (c.entangled) {
      want = 2.0 / r.overlap - 1.0;
    }
    if (std::fabs(c.kappa - want) > 1e-9 * want) {
      err << "cut kappa " << c.kappa << " != " << want << "; ";
    }
    product *= want;
  }
  if (std::fabs(kappa - product) > 1e-9 * product) {
    err << "total kappa " << kappa << " != product " << product << "; ";
  }
  return err.str();
}

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double self_peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double self_rss_mib() {
  std::ifstream in("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  in >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/<pid>/stat of the server");
  }
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15; ++i) {
    rest >> field;
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("cannot read VmHWM of the server");
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

ServerProcess::ServerProcess(const std::string& binary, const std::string& port_file,
                             const std::string& log_file, int workers) {
  std::remove(port_file.c_str());
  const std::string workers_s = std::to_string(workers);
  std::vector<std::string> args = {binary,        "--host",    "127.0.0.1", "--port",
                                   "0",           "--workers", workers_s,   "--port-file",
                                   port_file};
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log_file.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + binary + ": " + std::strerror(rc));
  }

  // The server writes the port file once its socket is live.
  const std::uint64_t give_up = mono_ns() + 30'000'000'000ULL;
  while (port_ == 0) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      port_ = port;
      break;
    }
    int st = 0;
    if (waitpid(pid_, &st, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("qcut-server exited during start; see " + log_file);
    }
    if (mono_ns() > give_up) {
      stop();
      throw std::runtime_error("qcut-server did not start within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

ServerProcess::~ServerProcess() { stop(); }

int ServerProcess::stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    while (waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  return status_;
}

namespace {

template <typename T>
bool bits_equal(T a, T b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

bool same_answer(double estimate, double ci_halfwidth, std::uint64_t shots, double kappa,
                 const qcut::svc::EstimateResult& b) {
  return bits_equal(estimate, b.estimate) && bits_equal(ci_halfwidth, b.ci_halfwidth) &&
         shots == b.shots_used && bits_equal(kappa, b.kappa);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : -1.0);
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected --key value pairs, got '" + key + "'");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

Options parse_options(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv);
  auto need = [&flags](const char* key) {
    auto it = flags.find(key);
    if (it == flags.end()) {
      throw std::runtime_error(std::string("missing --") + key);
    }
    return it->second;
  };
  Options o;
  if (!parse_workload(need("workload"), &o.workload)) {
    throw std::runtime_error("unknown workload '" + need("workload") + "'");
  }
  o.seed = std::stoull(need("seed"));
  o.seconds = std::stod(need("seconds"));
  if (!(o.seconds > 0.0)) {
    throw std::runtime_error("--seconds must be positive");
  }
  o.server_bin = need("server-bin");
  o.work_dir = need("work-dir");
  return o;
}

}  // namespace qbench
