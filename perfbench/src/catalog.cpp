#include "catalog.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace qbench {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Deterministic stream: mix64 of a counter keyed by (seed, tag).
class Stream {
 public:
  explicit Stream(std::uint64_t key) : state_(mix64(key)) {}
  std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double angle() { return (2.0 * uniform() - 1.0) * kPi; }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

std::uint64_t key_of(std::uint64_t seed, std::uint64_t round, std::uint64_t slot) {
  return mix64(mix64(seed ^ 0x51ed270b27e4c1a5ULL) + round * 0x100000001b3ULL + slot);
}

std::vector<BGate> ghz_gates(int n) {
  std::vector<BGate> g;
  g.push_back({GateKind::kH, 0, -1, 0.0});
  for (int q = 0; q + 1 < n; ++q) {
    g.push_back({GateKind::kCx, q, q + 1, 0.0});
  }
  return g;
}

/// Hardware-efficient ansatz: `layers` × (ry on every qubit, cx ladder),
/// then a closing ry layer.
std::vector<BGate> hwe_gates(int n, int layers, Stream& rng, int offset = 0) {
  std::vector<BGate> g;
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q < n; ++q) {
      g.push_back({GateKind::kRy, offset + q, -1, rng.angle()});
    }
    for (int q = 0; q + 1 < n; ++q) {
      g.push_back({GateKind::kCx, offset + q, offset + q + 1, 0.0});
    }
  }
  for (int q = 0; q < n; ++q) {
    g.push_back({GateKind::kRy, offset + q, -1, rng.angle()});
  }
  return g;
}

/// Brickwork: `layers` × (ry and rz on every qubit, cz on alternating
/// neighbour pairs), then a closing ry layer.
std::vector<BGate> brickwork_gates(int n, int layers, Stream& rng, int offset = 0) {
  std::vector<BGate> g;
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q < n; ++q) {
      g.push_back({GateKind::kRy, offset + q, -1, rng.angle()});
      g.push_back({GateKind::kRz, offset + q, -1, rng.angle()});
    }
    for (int q = l % 2; q + 1 < n; q += 2) {
      g.push_back({GateKind::kCz, offset + q, offset + q + 1, 0.0});
    }
  }
  for (int q = 0; q < n; ++q) {
    g.push_back({GateKind::kRy, offset + q, -1, rng.angle()});
  }
  return g;
}

/// `letter` on `k` seeded distinct qubits of [lo, hi). The default spliced
/// route enumerates every measurement branch of the observable's support and
/// holds a state copy per branch, so a support of half of a 16-qubit circuit
/// costs GiBs, and the cost of a request grows with its support. Supports are
/// therefore small, and their size is fixed per slot so that the work of a
/// round does not depend on the seed.
void add_support(std::string* obs, char letter, int lo, int hi, int k, Stream& rng) {
  k = std::min(k, hi - lo);
  for (int placed = 0; placed < k;) {
    const std::size_t q = static_cast<std::size_t>(lo + rng.below(hi - lo));
    if ((*obs)[q] == 'I') {
      (*obs)[q] = letter;
      ++placed;
    }
  }
}

std::string random_observable(int n, char letter, int k, Stream& rng) {
  std::string obs(static_cast<std::size_t>(n), 'I');
  add_support(&obs, letter, 0, n, k, rng);
  return obs;
}

std::string fmt_real(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// ---- fixed corpus-style inputs ----------------------------------------------

/// The repository corpus's 8-qubit hardware-efficient ansatz
/// (tests/qasm_corpus/hwe_ansatz_8.qasm): seven ry-ry-cx layers on
/// alternating neighbour pairs, written through a gate macro (exercises the
/// importer's macro path); the gate list mirrors the macro expansion.
/// `text` holds the angles as written in the QASM, `ang` their values.
BenchRequest macro_hwe8(const std::string (&text)[7][2], const double (&ang)[7][2]) {
  const int pairs[7][2] = {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 2}, {3, 4}, {5, 6}};
  BenchRequest r;
  r.n_qubits = 8;
  std::ostringstream os;
  os << "// 8-qubit hardware-efficient ansatz through a layer macro.\n"
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
        "gate layer(a,b) x0,x1 {\n  ry(a) x0;\n  ry(b) x1;\n  cx x0,x1;\n}\nqreg q[8];\n";
  for (int i = 0; i < 7; ++i) {
    const int x0 = pairs[i][0];
    const int x1 = pairs[i][1];
    os << "layer(" << text[i][0] << "," << text[i][1] << ") q[" << x0 << "],q[" << x1 << "];\n";
    r.gates.push_back({GateKind::kRy, x0, -1, ang[i][0]});
    r.gates.push_back({GateKind::kRy, x1, -1, ang[i][1]});
    r.gates.push_back({GateKind::kCx, x0, x1, 0.0});
  }
  r.qasm = os.str();
  return r;
}

/// The corpus circuit itself, with its pi-expression angles.
BenchRequest corpus_hwe8() {
  const std::string text[7][2] = {{"pi/4", "pi/8"}, {"pi/16", "3*pi/16"}, {"-pi/4", "-pi/8"},
                                  {"pi/2", "pi/3"}, {"0.1", "0.2"},       {"0.3", "0.4"},
                                  {"0.5", "0.6"}};
  const double ang[7][2] = {{kPi / 4, kPi / 8}, {kPi / 16, 3 * kPi / 16}, {-kPi / 4, -kPi / 8},
                            {kPi / 2, kPi / 3}, {0.1, 0.2},               {0.3, 0.4},
                            {0.5, 0.6}};
  BenchRequest r = macro_hwe8(text, ang);
  r.name = "corpus_hwe_ansatz_8";
  return r;
}

/// The corpus circuit's shape with seeded angles.
BenchRequest seeded_macro_hwe8(Stream& rng) {
  std::string text[7][2];
  double ang[7][2];
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 2; ++j) {
      ang[i][j] = rng.angle();
      text[i][j] = fmt_real(ang[i][j]);
    }
  }
  return macro_hwe8(text, ang);
}

/// The corpus's 6-qubit rx/rz/cz ansatz (tests/qasm_corpus/vqe_ansatz_6.qasm,
/// same text), which declares a creg and ends in `measure q -> c;` — the
/// request form the service rejects today.
BenchRequest corpus_vqe6_measured() {
  const char* rx1_text[6] = {"pi/5", "2*pi/5", "3*pi/5", "4*pi/5", "pi/10", "-pi/10"};
  const char* rz1_text[6] = {"pi/6", "pi/7", "pi/11", "-pi/13", "3*pi/4", "5*pi/6"};
  const char* rx2_text[6] = {"0.25", "0.5", "0.75", "1.25", "1.5", "1.75"};
  const double rx1[6] = {kPi / 5, 2 * kPi / 5, 3 * kPi / 5, 4 * kPi / 5, kPi / 10, -kPi / 10};
  const double rz1[6] = {kPi / 6, kPi / 7, kPi / 11, -kPi / 13, 3 * kPi / 4, 5 * kPi / 6};
  const double rx2[6] = {0.25, 0.5, 0.75, 1.25, 1.5, 1.75};
  const int cz[5][2] = {{0, 1}, {2, 3}, {4, 5}, {1, 2}, {3, 4}};
  BenchRequest r;
  r.name = "corpus_vqe_ansatz_6_creg";
  r.n_qubits = 6;
  std::ostringstream os;
  os << "// Two-layer rx+rz / cz ansatz on 6 qubits with measurement.\n"
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\ncreg c[6];\n";
  for (int q = 0; q < 6; ++q) {
    os << "rx(" << rx1_text[q] << ") q[" << q << "];\n";
    r.gates.push_back({GateKind::kRx, q, -1, rx1[q]});
  }
  for (int q = 0; q < 6; ++q) {
    os << "rz(" << rz1_text[q] << ") q[" << q << "];\n";
    r.gates.push_back({GateKind::kRz, q, -1, rz1[q]});
  }
  for (const auto& p : cz) {
    os << "cz q[" << p[0] << "],q[" << p[1] << "];\n";
    r.gates.push_back({GateKind::kCz, p[0], p[1], 0.0});
  }
  for (int q = 0; q < 6; ++q) {
    os << "rx(" << rx2_text[q] << ") q[" << q << "];\n";
    r.gates.push_back({GateKind::kRx, q, -1, rx2[q]});
  }
  os << "measure q -> c;\n";
  r.qasm = os.str();
  r.observable = "ZZIIZZ";
  r.epsilon = 0.1;
  r.cap = 6;
  r.seed = 77;
  r.expect_failure = true;
  return r;
}

BenchRequest ghz8_measured() {
  BenchRequest r;
  r.name = "ghz_8_creg";
  r.n_qubits = 8;
  r.gates = ghz_gates(8);
  r.qasm = to_qasm_text(8, r.gates, /*with_creg=*/true);
  r.observable = std::string(8, 'Z');
  r.epsilon = 0.1;
  r.cap = 4;
  r.seed = 78;
  r.expect_failure = true;
  r.oracle_kind = OracleKind::kGhzAnalytic;
  return r;
}

// ---- table-driven families ---------------------------------------------------

/// kGhz measures the full Z^n or X^n string (analytic oracle); kGhzPart a
/// small support (dense oracle, at most 16 qubits).
enum class Family { kGhz, kGhzPart, kHwe, kBrick, kBrickBlocks, kMacroHwe8 };

struct Slot {
  Family family;
  int n;          ///< total width
  int layers;     ///< ansatz layers (ignored for GHZ)
  int cap;
  double epsilon;
  char letter;    ///< observable letter: 'Z' or 'X'
  int pair_budget = 0;
  double overlap = 0.5;
  int blocks = 1;  ///< kBrickBlocks: number of equal independent blocks
  /// Observable support size (per block for kBrickBlocks); kGhz ignores it.
  int support = 3;
};

/// `rng` draws the seeded rotation angles; `support` draws the observable's
/// support, which is fixed per slot: where the support lies relative to the
/// cuts changes how many branches a request enumerates, and so its cost.
BenchRequest from_slot(const Slot& s, Stream& rng, Stream& support) {
  BenchRequest r;
  r.n_qubits = s.n;
  r.cap = s.cap;
  r.epsilon = s.epsilon;
  r.pair_budget = s.pair_budget;
  r.overlap = s.overlap;
  switch (s.family) {
    case Family::kGhz:
      r.name = "ghz_" + std::to_string(s.n);
      r.gates = ghz_gates(s.n);
      r.observable = std::string(static_cast<std::size_t>(s.n), s.letter);
      r.oracle_kind = OracleKind::kGhzAnalytic;
      break;
    case Family::kGhzPart:
      r.name = "ghz_" + std::to_string(s.n) + "_part";
      r.gates = ghz_gates(s.n);
      r.observable = random_observable(s.n, s.letter, s.support, support);
      r.oracle_kind = OracleKind::kDense;
      break;
    case Family::kHwe:
      r.name = "hwe_" + std::to_string(s.n);
      r.gates = hwe_gates(s.n, s.layers, rng);
      r.observable = random_observable(s.n, s.letter, s.support, support);
      r.oracle_kind = OracleKind::kDense;
      break;
    case Family::kBrick:
      r.name = "brickwork_" + std::to_string(s.n);
      r.gates = brickwork_gates(s.n, s.layers, rng);
      r.observable = random_observable(s.n, s.letter, s.support, support);
      r.oracle_kind = OracleKind::kDense;
      break;
    case Family::kMacroHwe8: {
      const BenchRequest shaped = seeded_macro_hwe8(rng);
      r.name = "macro_hwe_8";
      r.gates = shaped.gates;
      r.observable = random_observable(s.n, s.letter, s.support, support);
      r.oracle_kind = OracleKind::kDense;
      r.qasm = shaped.qasm;
      break;
    }
    case Family::kBrickBlocks: {
      const int w = s.n / s.blocks;
      r.name = "brickwork_" + std::to_string(s.n) + "_blocks" + std::to_string(s.blocks);
      r.observable.assign(static_cast<std::size_t>(s.n), 'I');
      for (int b = 0; b < s.blocks; ++b) {
        const std::vector<BGate> g = brickwork_gates(w, s.layers, rng, b * w);
        r.gates.insert(r.gates.end(), g.begin(), g.end());
        r.blocks.push_back({b * w, w});
        add_support(&r.observable, s.letter, b * w, (b + 1) * w, s.support, support);
      }
      r.oracle_kind = OracleKind::kBlocks;
      break;
    }
  }
  r.name += "_cap" + std::to_string(s.cap);
  if (s.pair_budget > 0) {
    r.name += "_nme" + std::to_string(s.pair_budget);
  }
  if (r.qasm.empty()) {
    r.qasm = to_qasm_text(r.n_qubits, r.gates);
  }
  return r;
}

// serve: about two dozen warm requests, 8-16 qubits, 1-3 cuts each.
const std::vector<Slot>& serve_slots() {
  static const std::vector<Slot> slots = {
      {Family::kGhz, 8, 0, 4, 0.05, 'Z'},       {Family::kGhz, 8, 0, 4, 0.1, 'X'},
      {Family::kGhz, 10, 0, 4, 0.1, 'Z'},       {Family::kGhz, 12, 0, 4, 0.075, 'Z'},
      {Family::kGhz, 14, 0, 8, 0.05, 'Z'},      {Family::kGhz, 16, 0, 9, 0.05, 'Z'},
      {Family::kGhzPart, 12, 0, 7, 0.1, 'X'},   {Family::kHwe, 8, 1, 4, 0.05, 'Z'},
      {Family::kHwe, 10, 1, 5, 0.075, 'X'},     {Family::kHwe, 12, 1, 6, 0.1, 'Z'},
      {Family::kHwe, 14, 1, 7, 0.06, 'Z'},      {Family::kHwe, 16, 1, 8, 0.1, 'X'},
      {Family::kHwe, 16, 1, 12, 0.05, 'Z'},     {Family::kBrick, 8, 2, 4, 0.075, 'Z'},
      {Family::kBrick, 10, 2, 5, 0.1, 'X'},     {Family::kBrick, 12, 2, 6, 0.06, 'Z'},
      {Family::kBrick, 14, 2, 7, 0.1, 'Z'},     {Family::kBrick, 16, 2, 8, 0.1, 'X'},
      {Family::kBrick, 12, 2, 4, 0.1, 'Z'},     {Family::kGhzPart, 16, 0, 6, 0.075, 'X'},
  };
  return slots;
}

// Which serve slots draw a fresh request seed every round.
bool serve_fresh(std::size_t slot) { return slot % 7 == 3; }

// cold: one answer per request without caches, three route classes.
const std::vector<Slot>& cold_slots() {
  static const std::vector<Slot> slots = {
      // mid-width, spliced branch-enumeration route
      {Family::kMacroHwe8, 8, 0, 4, 0.1, 'Z'},
      {Family::kHwe, 10, 1, 5, 0.1, 'X'},
      {Family::kBrick, 10, 2, 5, 0.1, 'Z'},
      {Family::kGhz, 14, 0, 7, 0.1, 'Z'},
      // 30-qubit plans, fragment route
      // twice: the round's median falls among these two slots' answers, so
      // latency_p50_ms is the median of twice as many like requests
      {Family::kGhz, 30, 0, 8, 0.1, 'Z'},
      {Family::kGhz, 30, 0, 8, 0.1, 'Z'},
      {Family::kGhz, 30, 0, 10, 0.1, 'X'},
      {Family::kGhz, 30, 0, 16, 0.05, 'Z'},
      {Family::kBrickBlocks, 30, 2, 12, 0.1, 'Z', 0, 0.5, 2, 2},
      // 26 qubits whose plan splices past 28: DRAM-resident reference
      {Family::kGhz, 26, 0, 9, 0.1, 'Z'},
  };
  return slots;
}

// nme: cold requests with NME resource links (Theorem 1 cuts).
const std::vector<Slot>& nme_slots() {
  static const std::vector<Slot> slots = {
      {Family::kGhz, 10, 0, 5, 0.1, 'Z', 1, 0.75},
      {Family::kGhz, 10, 0, 5, 0.1, 'Z', 2, 0.9},
      {Family::kGhz, 11, 0, 6, 0.1, 'Z', 2, 0.85},
      {Family::kGhz, 12, 0, 6, 0.1, 'Z', 1, 0.8},
      {Family::kGhz, 12, 0, 6, 0.1, 'Z', 2, 0.9},
      {Family::kHwe, 10, 1, 6, 0.1, 'Z', 2, 0.8},
      {Family::kHwe, 10, 1, 7, 0.1, 'X', 1, 0.75},
  };
  return slots;
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool parse_workload(const std::string& name, Workload* out) {
  if (name == "serve") {
    *out = Workload::kServe;
  } else if (name == "cold") {
    *out = Workload::kCold;
  } else if (name == "nme") {
    *out = Workload::kNme;
  } else {
    return false;
  }
  return true;
}

RunShape run_shape(Workload w) {
  switch (w) {
    case Workload::kServe:
      return {1, 99.0};  // thousands of requests per run
    case Workload::kCold:
      return {7, 85.0};  // 10 requests a round: 70 samples, 10.5 beyond p85
    case Workload::kNme:
      return {8, 80.0};  // 7 requests a round: 56 samples, 11 beyond p80
  }
  return {};
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kServe:
      return "serve";
    case Workload::kCold:
      return "cold";
    case Workload::kNme:
      return "nme";
  }
  return "?";
}

std::vector<BenchRequest> make_warmup_requests(Workload w) {
  // GHZ circuits have no angles: the stream is never drawn from.
  Stream rng(0);
  std::vector<BenchRequest> out = {from_slot({Family::kGhz, 8, 0, 4, 0.1, 'Z'}, rng, rng)};
  if (w == Workload::kCold) {
    out.push_back(from_slot({Family::kGhz, 29, 0, 8, 0.1, 'Z'}, rng, rng));
  } else if (w == Workload::kNme) {
    out.push_back(from_slot({Family::kGhz, 9, 0, 5, 0.1, 'Z', 1, 0.8}, rng, rng));
  }
  return out;
}

std::uint64_t fresh_seed_for(std::uint64_t seed, std::uint64_t round, std::size_t slot) {
  return key_of(seed, round + 1, 1000 + slot) >> 16;
}

namespace {

/// Key of a slot's observable-support stream: the same for every seed.
std::uint64_t support_key(Workload w, std::size_t slot) {
  return mix64(0x5e9000ULL + 1000ULL * static_cast<std::uint64_t>(w) + slot);
}

}  // namespace

std::vector<BenchRequest> make_round(Workload w, std::uint64_t seed, std::uint64_t round) {
  std::vector<BenchRequest> out;
  if (w == Workload::kServe) {
    // The catalog is the same on every round (round 0 angles); only the
    // fresh-seed slots change their sampling seed.
    const auto& slots = serve_slots();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Stream rng(key_of(seed, 0, i));
      Stream support(support_key(w, i));
      BenchRequest r = from_slot(slots[i], rng, support);
      r.seed = 1000 + i;
      if (serve_fresh(i)) {
        r.fresh_seed = true;
        r.seed = fresh_seed_for(seed, round, i);
      }
      out.push_back(std::move(r));
    }
    BenchRequest hwe8 = corpus_hwe8();
    hwe8.observable = "ZIIZZIIZ";
    hwe8.epsilon = 0.06;
    hwe8.cap = 4;
    hwe8.seed = 2000;
    out.push_back(std::move(hwe8));
    out.push_back(corpus_vqe6_measured());
    out.push_back(ghz8_measured());
    return out;
  }
  const auto& slots = w == Workload::kCold ? cold_slots() : nme_slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Stream rng(key_of(seed, round, i));
    Stream support(support_key(w, i));
    BenchRequest r = from_slot(slots[i], rng, support);
    r.seed = key_of(seed, round, 500 + i) >> 16;
    out.push_back(std::move(r));
  }
  return out;
}

std::string to_qasm_text(int n_qubits, const std::vector<BGate>& gates, bool with_creg) {
  std::ostringstream os;
  os << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" << n_qubits << "];\n";
  if (with_creg) {
    os << "creg c[" << n_qubits << "];\n";
  }
  for (const BGate& g : gates) {
    switch (g.kind) {
      case GateKind::kH:
        os << "h q[" << g.a << "];\n";
        break;
      case GateKind::kRx:
        os << "rx(" << fmt_real(g.theta) << ") q[" << g.a << "];\n";
        break;
      case GateKind::kRy:
        os << "ry(" << fmt_real(g.theta) << ") q[" << g.a << "];\n";
        break;
      case GateKind::kRz:
        os << "rz(" << fmt_real(g.theta) << ") q[" << g.a << "];\n";
        break;
      case GateKind::kCx:
        os << "cx q[" << g.a << "],q[" << g.b << "];\n";
        break;
      case GateKind::kCz:
        os << "cz q[" << g.a << "],q[" << g.b << "];\n";
        break;
    }
  }
  if (with_creg) {
    os << "measure q -> c;\n";
  }
  return os.str();
}

}  // namespace qbench
