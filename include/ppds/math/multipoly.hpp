#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ppds/common/error.hpp"
#include "ppds/math/monomial.hpp"

/// \file multipoly.hpp
/// Sparse multivariate polynomials — the object the OMPE sender holds.
///
/// In the paper the sender's secret is always a multivariate polynomial P:
///   * linear classification:   P(t) = ra * (w . t + b), degree 1 over n vars
///   * nonlinear classification: P(tau) over n' monomial variates, degree 1
///     in tau (the monomial transform absorbs the kernel degree)
///   * similarity stage 1:      P(t) = ram * (mA . t)           (degree 1)
///   * similarity stage 2:      Eq. (7), degree 4 over 2 vars.

namespace ppds::math {

/// One term: coeff * prod_i x_i^{exps[i]}.
struct Term {
  double coeff = 0.0;
  Exponents exps;
};

/// Sparse multivariate polynomial over doubles.
class MultiPoly {
 public:
  MultiPoly() = default;

  /// \p arity — number of variables; every term must carry that many exponents.
  explicit MultiPoly(std::size_t arity) : arity_(arity) {}

  /// Convenience: builds the affine polynomial w . x + b.
  static MultiPoly affine(const std::vector<double>& w, double b);

  void add_term(double coeff, Exponents exps);

  /// Adds \p delta to the constant term.
  void add_constant(double delta);

  /// Multiplies every coefficient by \p s (the paper's amplification step).
  void scale(double s);

  double evaluate(const std::vector<double>& x) const;

  /// Largest total degree across terms.
  unsigned total_degree() const;

  /// Merges like terms and drops (near-)zero coefficients.
  void compact(double drop_below = 0.0);

  /// Product of two polynomials over the same variables, discarding any
  /// resulting term of total degree > max_degree (used by the Taylor
  /// truncation of the RBF/sigmoid kernels).
  static MultiPoly mul(const MultiPoly& a, const MultiPoly& b,
                       unsigned max_degree);

  /// a^e with the same truncation rule.
  static MultiPoly pow(const MultiPoly& a, unsigned e, unsigned max_degree);

  MultiPoly operator+(const MultiPoly& other) const;

  std::size_t arity() const { return arity_; }
  const std::vector<Term>& terms() const { return terms_; }

 private:
  std::size_t arity_ = 0;
  std::vector<Term> terms_;
};

/// Compiled evaluation form of a MultiPoly: a flat coefficient array and a
/// per-term DAG node index over a monomial evaluation DAG (the divisor
/// closure of the term monomials). Where MultiPoly::evaluate walks every
/// term's exponent vector with repeated multiplications (quadratic in total
/// degree for nonlinear profiles), the compiled form evaluates in one
/// multiplication per DAG node plus one multiply-add per term — and its
/// inner loop carries no nested vectors, so it vectorizes.
///
/// Compile once per secret polynomial; evaluate at many points (the OMPE
/// sender evaluates every one of the receiver's M disguised points). The
/// per-term coefficient array can be swapped at evaluation time
/// (evaluate_with), which is how the exact field backend supplies its
/// scale-harmonized M61 encodings and how amplified copies evaluate without
/// recompiling.
class CompiledMultiPoly {
 public:
  /// Sentinel node index standing for the constant 1 (constant terms, and
  /// the parent of degree-1 monomials).
  static constexpr std::uint32_t kOne = MonomialDag::kOne;

  CompiledMultiPoly() = default;

  /// Compiles \p poly. Term order (and hence coefficient order) matches
  /// poly.terms() exactly, so externally encoded coefficient arrays stay
  /// aligned.
  explicit CompiledMultiPoly(const MultiPoly& poly);

  std::size_t arity() const { return arity_; }
  std::size_t term_count() const { return coeffs_.size(); }
  std::size_t node_count() const { return dag_.size(); }

  /// Per-term coefficients in source order.
  const std::vector<double>& coeffs() const { return coeffs_; }

  /// DAG node index per term (kOne for the constant term), source order —
  /// the flat view behind evaluate_with's term walk, for callers fusing
  /// their own lane kernels over the compiled program.
  const std::vector<std::uint32_t>& term_nodes() const { return term_node_; }

  /// The compiled monomial DAG in graded order.
  const MonomialDag& dag() const { return dag_; }

  /// Evaluates with the compiled double coefficients. \p scratch holds the
  /// node values (resized to node_count()); pass a per-thread instance when
  /// evaluating concurrently.
  double evaluate(std::span<const double> x, std::vector<double>& scratch) const {
    return evaluate_with(std::span<const double>(coeffs_), x, scratch);
  }

  /// Evaluates with an externally supplied coefficient array (one entry per
  /// source term, same order as coeffs()) over any ring R with +, * and a
  /// zero-initializing default constructor — double for the real OMPE
  /// backend, field::M61 for the exact backend.
  template <typename R>
  R evaluate_with(std::span<const R> coeffs, std::span<const R> x,
                  std::vector<R>& scratch) const {
    detail::require(coeffs.size() == coeffs_.size(),
                    "CompiledMultiPoly: coefficient count mismatch");
    detail::require(x.size() == arity_, "CompiledMultiPoly: arity mismatch");
    scratch.resize(dag_.size());
    dag_.evaluate(x, std::span<R>(scratch));
    R acc{};
    for (std::size_t t = 0; t < coeffs.size(); ++t) {
      const std::uint32_t node = term_node_[t];
      acc = acc + (node == kOne ? coeffs[t] : coeffs[t] * scratch[node]);
    }
    return acc;
  }

 private:
  std::size_t arity_ = 0;
  std::vector<double> coeffs_;           ///< per term, source order
  std::vector<std::uint32_t> term_node_; ///< DAG node per term (kOne = const)
  /// Nodes of the divisor closure in graded order.
  MonomialDag dag_;
};

}  // namespace ppds::math
