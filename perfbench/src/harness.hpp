// Plumbing shared by the end-to-end command and the traced run: request
// conversion, clocks and process accounting, the qcut-server child process,
// the kappa check of Theorem 1, and the one-line JSON result.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "qcut/plan/cut_planner.hpp"
#include "qcut/svc/api.hpp"
#include "qcut/svc/wire.hpp"

namespace qbench {

// ---- requests ----------------------------------------------------------------

/// The in-process form: QASM text, the request's cap and links, epsilon, and
/// the program's defaults for everything else. shots = 0 asks for the
/// kappa^2/eps^2 budget (CutRunConfig's own default is a fixed 1000).
qcut::svc::EstimateRequest to_estimate_request(const BenchRequest& r);

/// The wire form of the same request (wire defaults otherwise: shots = 0,
/// default backend, no deadline).
qcut::svc::WireEstimateRequest to_wire_request(const BenchRequest& r);

/// Checks every planned cut's kappa against Theorem 1 (2/f - 1 for an
/// entangled wire cut, 3 for a plain one, 1 + 2|sin 2 theta| for a gate cut
/// on the request's cz gates, theta = pi/4) and `kappa` against their
/// product. Returns "" or a diagnostic.
std::string check_plan_kappa(const BenchRequest& r, const qcut::CutPlan& plan, double kappa);

// ---- clocks and accounting ---------------------------------------------------

std::uint64_t mono_ns();                 ///< steady_clock, in ns
double self_cpu_s();                     ///< user + system CPU of this process
double self_peak_rss_mib();              ///< ru_maxrss of this process
double self_rss_mib();                   ///< current resident set (statm)
double proc_cpu_s(pid_t pid);            ///< utime + stime of another process
double proc_peak_rss_mib(pid_t pid);     ///< VmHWM of another process

/// Linear-interpolated percentile (q in [0, 100]) of unsorted values.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// ---- the daemon ----------------------------------------------------------------

/// A qcut-server child process on an ephemeral loopback port, its stdout
/// and stderr sent to `log_file`. The destructor stops it.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& port_file,
                const std::string& log_file, int workers);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const noexcept { return port_; }
  pid_t pid() const noexcept { return pid_; }
  /// SIGTERM and wait for the exit; returns the wait status (idempotent).
  int stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int status_ = 0;
};

/// Bitwise equality of a served answer's numeric fields with an in-process
/// result.
bool same_answer(double estimate, double ci_halfwidth, std::uint64_t shots, double kappa,
                 const qcut::svc::EstimateResult& b);

// ---- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

/// --key value pairs. Throws std::runtime_error on a dangling key.
std::map<std::string, std::string> parse_flags(int argc, char** argv);

/// The common flags of both programs.
struct Options {
  Workload workload = Workload::kServe;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string server_bin;  ///< path of the qcut-server binary
  std::string work_dir;    ///< scratch directory for port and log files
};

/// Parses --workload --seed --seconds --server-bin --work-dir.
Options parse_options(int argc, char** argv);

}  // namespace qbench
