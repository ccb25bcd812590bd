#include "oracle.hpp"

#include <cmath>
#include <complex>
#include <sstream>
#include <stdexcept>

namespace qbench {

namespace {

using Amp = std::complex<double>;

/// Basis-index bit of qubit q (qubit 0 = most significant, as in QASM
/// diagrams; expectations do not depend on the convention).
inline std::size_t bit_of(int n, int q) { return std::size_t{1} << (n - 1 - q); }

void apply_1q(std::vector<Amp>& psi, int n, int q, Amp m00, Amp m01, Amp m10, Amp m11) {
  const std::size_t bit = bit_of(n, q);
  for (std::size_t i = 0; i < psi.size(); ++i) {
    if ((i & bit) != 0) {
      continue;
    }
    const Amp a = psi[i];
    const Amp b = psi[i | bit];
    psi[i] = m00 * a + m01 * b;
    psi[i | bit] = m10 * a + m11 * b;
  }
}

void apply_gate(std::vector<Amp>& psi, int n, const BGate& g) {
  const double c = std::cos(g.theta / 2.0);
  const double s = std::sin(g.theta / 2.0);
  const Amp i1(0.0, 1.0);
  switch (g.kind) {
    case GateKind::kH: {
      const double r = 1.0 / std::sqrt(2.0);
      apply_1q(psi, n, g.a, r, r, r, -r);
      break;
    }
    case GateKind::kRx:
      apply_1q(psi, n, g.a, c, -i1 * s, -i1 * s, c);
      break;
    case GateKind::kRy:
      apply_1q(psi, n, g.a, c, -s, s, c);
      break;
    case GateKind::kRz:
      apply_1q(psi, n, g.a, std::exp(-i1 * (g.theta / 2.0)), 0.0, 0.0,
               std::exp(i1 * (g.theta / 2.0)));
      break;
    case GateKind::kCx: {
      const std::size_t cb = bit_of(n, g.a);
      const std::size_t tb = bit_of(n, g.b);
      for (std::size_t i = 0; i < psi.size(); ++i) {
        if ((i & cb) != 0 && (i & tb) == 0) {
          std::swap(psi[i], psi[i | tb]);
        }
      }
      break;
    }
    case GateKind::kCz: {
      const std::size_t mask = bit_of(n, g.a) | bit_of(n, g.b);
      for (std::size_t i = 0; i < psi.size(); ++i) {
        if ((i & mask) == mask) {
          psi[i] = -psi[i];
        }
      }
      break;
    }
  }
}

double ghz_analytic(const std::string& observable) {
  const std::size_t n = observable.size();
  if (observable == std::string(n, 'X')) {
    return 1.0;
  }
  if (observable == std::string(n, 'Z')) {
    return n % 2 == 0 ? 1.0 : 0.0;
  }
  throw std::runtime_error("oracle: GHZ analytic value needs Z^n or X^n, got " + observable);
}

}  // namespace

double dense_expectation(int n_qubits, const std::vector<BGate>& gates,
                         const std::string& observable) {
  if (n_qubits > kMaxDenseQubits || static_cast<int>(observable.size()) != n_qubits) {
    throw std::runtime_error("oracle: dense simulation limited to 16 qubits with a matching "
                             "observable");
  }
  std::vector<Amp> psi(std::size_t{1} << n_qubits, Amp(0.0, 0.0));
  psi[0] = 1.0;
  for (const BGate& g : gates) {
    apply_gate(psi, n_qubits, g);
  }
  // Rotate X factors to Z, then read the parity of the support.
  std::size_t zmask = 0;
  for (int q = 0; q < n_qubits; ++q) {
    const char p = observable[static_cast<std::size_t>(q)];
    if (p == 'X') {
      apply_gate(psi, n_qubits, BGate{GateKind::kH, q, -1, 0.0});
    } else if (p != 'Z' && p != 'I') {
      throw std::runtime_error("oracle: observable letters are I, X, Z");
    }
    if (p != 'I') {
      zmask |= bit_of(n_qubits, q);
    }
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < psi.size(); ++i) {
    const double p = std::norm(psi[i]);
    acc += (__builtin_popcountll(i & zmask) % 2 == 0) ? p : -p;
  }
  return acc;
}

void compute_oracles(std::vector<BenchRequest>* requests) {
  for (BenchRequest& r : *requests) {
    switch (r.oracle_kind) {
      case OracleKind::kGhzAnalytic:
        r.oracle = ghz_analytic(r.observable);
        break;
      case OracleKind::kDense:
        r.oracle = dense_expectation(r.n_qubits, r.gates, r.observable);
        break;
      case OracleKind::kBlocks: {
        double prod = 1.0;
        for (const Block& b : r.blocks) {
          std::vector<BGate> local;
          for (BGate g : r.gates) {
            if (g.a >= b.offset && g.a < b.offset + b.width) {
              g.a -= b.offset;
              if (g.b >= 0) {
                g.b -= b.offset;
                if (g.b < 0 || g.b >= b.width) {
                  throw std::runtime_error("oracle: gate crosses a block boundary");
                }
              }
              local.push_back(g);
            }
          }
          const std::string obs = r.observable.substr(static_cast<std::size_t>(b.offset),
                                                       static_cast<std::size_t>(b.width));
          if (obs.find_first_not_of('I') != std::string::npos) {
            prod *= dense_expectation(b.width, local, obs);
          }
        }
        r.oracle = prod;
        break;
      }
    }
  }
}

std::size_t binomial_upper_quantile(std::size_t n, double p, double tail) {
  // Walk the pmf upward in log space until the upper tail is small enough.
  const double lq = std::log1p(-p);
  const double lp = std::log(p);
  double log_pmf = static_cast<double>(n) * lq;
  double cdf = std::exp(log_pmf);
  std::size_t k = 0;
  while (k < n && 1.0 - cdf > tail) {
    log_pmf += std::log(static_cast<double>(n - k)) - std::log(static_cast<double>(k + 1)) + lp -
               lq;
    ++k;
    cdf += std::exp(log_pmf);
  }
  return k;
}

CheckSummary check_answers(const std::vector<Answer>& answers) {
  CheckSummary s;
  s.answers = answers.size();
  for (const Answer& a : answers) {
    const double err = std::fabs(a.estimate - a.oracle);
    const double sigma = a.ci_halfwidth / 1.96;
    if (sigma > 0.0) {
      s.worst_sigma = std::max(s.worst_sigma, err / sigma);
      if (err > 6.0 * sigma) {
        ++s.beyond_6_sigma;
      }
    } else if (err > 1e-9) {
      // A zero-width answer must be exact.
      ++s.beyond_6_sigma;
    }
    if (err > a.ci_halfwidth + 1e-12) {
      ++s.ci_misses;
    }
    if (a.ci_halfwidth > 1.96 * a.epsilon * (1.0 + 1e-12)) {
      ++s.halfwidth_over;
    }
  }
  s.ci_miss_limit = binomial_upper_quantile(s.answers, 0.05, 1e-4);
  return s;
}

std::string CheckSummary::describe() const {
  std::ostringstream os;
  os << answers << " distinct answers: " << beyond_6_sigma << " beyond 6 sigma (worst "
     << worst_sigma << " sigma), " << ci_misses << " CI misses (limit " << ci_miss_limit << "), "
     << halfwidth_over << " half-widths over 1.96*eps";
  return os.str();
}

}  // namespace qbench
