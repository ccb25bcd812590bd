// Workload inputs of the qcut end-to-end benchmark.
//
// Every input is built here from the benchmark's own gate lists: the
// generators below produce a BGate list, the list is rendered as OpenQASM 2
// text (the only form the program sees), and the same list feeds the
// independent oracle in oracle.hpp. The seed decides rotation angles and
// request seeds; the make-up of a workload (circuit families, widths, caps,
// epsilon, links, observable supports) is fixed, so the cost of one round of
// a workload does not depend on the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qbench {

enum class GateKind { kH, kRx, kRy, kRz, kCx, kCz };

struct BGate {
  GateKind kind = GateKind::kH;
  int a = 0;
  int b = -1;          ///< second qubit of cx / cz
  double theta = 0.0;  ///< rotation angle
};

/// How the oracle value of a request is obtained (see oracle.hpp).
enum class OracleKind {
  kGhzAnalytic,  ///< <Z^n> = (1 + (-1)^n) / 2, <X^n> = 1
  kDense,        ///< the benchmark's dense simulator (<= 16 qubits)
  kBlocks,       ///< product over independent blocks, each simulated densely
};

/// One contiguous block [offset, offset + width) of an input built from
/// independent blocks: no gate crosses a block boundary.
struct Block {
  int offset = 0;
  int width = 0;
};

struct BenchRequest {
  std::string name;        ///< family and width, e.g. "ghz_12"
  int n_qubits = 0;
  std::vector<BGate> gates;
  std::string qasm;        ///< what the program receives
  std::string observable;  ///< Pauli string over {I, X, Z}
  double epsilon = 0.05;
  int cap = 0;             ///< PlannerConfig::max_fragment_width
  int pair_budget = 0;
  double overlap = 0.5;
  std::uint64_t seed = 1234;
  /// True for the QASM requests that declare a creg and end in measure: the
  /// service rejects every one of them today (counted as failed). Should
  /// they start to succeed, their answers are checked like any other.
  bool expect_failure = false;
  /// Catalog slots that draw a fresh sampling seed on every round.
  bool fresh_seed = false;
  OracleKind oracle_kind = OracleKind::kDense;
  std::vector<Block> blocks;  ///< kBlocks only
  double oracle = 0.0;        ///< filled by compute_oracles()
};

/// The three workloads.
enum class Workload { kServe, kCold, kNme };

bool parse_workload(const std::string& name, Workload* out);

/// The fixed shape of a run: the fewest whole rounds it attempts, and the
/// latency percentile reported as latency_tail_ms — the highest that keeps
/// at least ten samples beyond it at that many rounds. Fixing both per
/// workload keeps a run's percentile from depending on how many rounds fit.
struct RunShape {
  std::uint64_t min_rounds = 1;
  double tail_percentile = 50.0;
};
RunShape run_shape(Workload w);
const char* workload_name(Workload w);

/// One round of a workload: the fixed list of requests one pass sends.
/// `round` varies the ansatz angles and the sampling seeds (cold, nme) or
/// only the fresh-seed slots (serve: the catalog repeats).
std::vector<BenchRequest> make_round(Workload w, std::uint64_t seed, std::uint64_t round);

/// The set-up requests of an in-process workload: one small fixed request
/// per route the workload takes (spliced, fragment, NME-linked), outside the
/// workload and the same for every seed. They are answered once before
/// timing starts, so the program's lazy start-up on each route is paid in
/// set-up.
std::vector<BenchRequest> make_warmup_requests(Workload w);

/// Request seed of a fresh-seed serve slot in a given round.
std::uint64_t fresh_seed_for(std::uint64_t seed, std::uint64_t round, std::size_t slot);

/// splitmix64 — the benchmark's own generator, independent of qcut::Rng.
std::uint64_t mix64(std::uint64_t x);

/// OpenQASM 2 text of a gate list (angles printed round-trip exact).
/// `with_creg` appends a creg and a terminal `measure q -> c;`.
std::string to_qasm_text(int n_qubits, const std::vector<BGate>& gates, bool with_creg = false);

}  // namespace qbench
