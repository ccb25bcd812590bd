// The benchmark's correctness oracle, independent of the program under test:
// nothing here calls into qcut.
//
// Values come from three sources (BenchRequest::oracle_kind):
//  * analytic GHZ values: <Z^n> = (1 + (-1)^n) / 2 and <X^n> = 1;
//  * a small dense statevector simulator running the benchmark's own gate
//    lists, for inputs of at most kMaxDenseQubits qubits;
//  * block products for wide inputs built from independent blocks: the
//    expectation of a product observable is the product of each block's.
//
// The statistical checks then hold every answer to its own reported
// uncertainty (see check_answers).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "catalog.hpp"

namespace qbench {

inline constexpr int kMaxDenseQubits = 16;

/// <observable> of the gate list run on |0...0>, by dense simulation.
/// Observable letters: I, X, Z. Throws std::runtime_error past 16 qubits.
double dense_expectation(int n_qubits, const std::vector<BGate>& gates,
                         const std::string& observable);

/// Fills every request's `oracle` from its oracle_kind.
void compute_oracles(std::vector<BenchRequest>* requests);

/// One answered request, as the program reported it.
struct Answer {
  double estimate = 0.0;
  double ci_halfwidth = 0.0;
  double epsilon = 0.0;
  double oracle = 0.0;
};

struct CheckSummary {
  std::size_t answers = 0;
  std::size_t beyond_6_sigma = 0;    ///< answers more than 6 sigma from the oracle
  double worst_sigma = 0.0;          ///< largest |estimate - oracle| / sigma
  std::size_t ci_misses = 0;         ///< 95% CIs that miss the oracle
  std::size_t ci_miss_limit = 0;     ///< Binomial(N, 0.05) quantile at 1 - 1e-4
  std::size_t halfwidth_over = 0;    ///< CI half-widths above 1.96 * epsilon
  bool ok() const {
    return beyond_6_sigma == 0 && ci_misses <= ci_miss_limit && halfwidth_over == 0;
  }
  std::string describe() const;
};

/// The per-workload statistical checks over distinct answers:
///  * no answer is more than 6 of its own sigma (= half-width / 1.96) away;
///  * the number of 95% CIs missing the oracle is at most the count that
///    Binomial(N, 0.05) exceeds with probability at most 1e-4;
///  * every half-width is at most 1.96 * epsilon (the kappa^2/eps^2 budget).
CheckSummary check_answers(const std::vector<Answer>& answers);

/// Smallest k with P(Binomial(n, p) > k) <= tail.
std::size_t binomial_upper_quantile(std::size_t n, double p, double tail);

}  // namespace qbench
