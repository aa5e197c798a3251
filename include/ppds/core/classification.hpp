#pragma once

#include <optional>
#include <vector>

#include "ppds/common/secret_taint.hpp"
#include "ppds/core/config.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/math/monomial.hpp"
#include "ppds/net/channel.hpp"
#include "ppds/svm/model.hpp"

/// \file classification.hpp
/// Privacy-preserving data classification (Section IV of the paper).
///
/// Alice (ClassificationServer) owns a trained SVM; Bob
/// (ClassificationClient) owns unlabeled samples. Per query Bob learns only
/// the randomized decision value ra * d(t̃) — hence the class sign — while
/// Alice learns nothing about t̃ and Bob learns nothing about the model
/// (Level 1), nor can colluding clients reconstruct it (Level 2, thanks to
/// the fresh per-query amplifier ra > 0).
///
/// Public between the parties: feature dimension, kernel type and kernel
/// hyperparameters (a0, b0, p / Taylor order), and the SchemeConfig. Secret:
/// Alice's support vectors / coefficients / bias, Bob's sample.

namespace ppds::core {

/// The public protocol profile both parties derive from the kernel: how the
/// decision function is represented as a polynomial.
struct ClassificationProfile {
  std::size_t input_dim = 0;       ///< n, Bob's feature count
  std::size_t poly_arity = 0;      ///< r, variates of the OMPE polynomial
  unsigned declared_degree = 1;    ///< p, drives m = p*q + 1
  svm::Kernel kernel;              ///< public kernel hyperparameters
  /// Monomial basis for kernels that need an input transform
  /// (empty for the linear kernel: tau == t).
  std::vector<math::Exponents> monomials;
  /// Evaluation DAG over `monomials` (built once in make()): tau_j =
  /// tau_parent(j) * t_var(j), so the client transform costs one multiply
  /// per monomial instead of a per-monomial power walk, with the same
  /// ascending-variable product order, so bitwise-identical to that walk.
  math::MonomialDag monomial_dag;
  /// monomial_basis_digest(monomial_dag), computed once in make(): the
  /// handshake binds the basis through these 32 bytes, so session setup is
  /// O(1) in the basis size. Unset when there is no basis.
  std::optional<crypto::Digest> basis_digest;

  /// Builds the profile both parties agree on. \p taylor_order is the
  /// truncation degree for RBF/sigmoid kernels (ignored otherwise).
  static ClassificationProfile make(std::size_t input_dim,
                                    const svm::Kernel& kernel,
                                    unsigned taylor_order = 4);

  /// Bob's local transform t -> tau (identity for the linear kernel).
  std::vector<double> transform(const std::vector<double>& sample) const;

  /// Batched transform, bit-identical per sample to transform(): sweeps the
  /// monomial DAG over blocks of eight samples in an SoA layout, turning
  /// the latency-bound per-sample multiply chain into eight independent
  /// chains the compiler vectorizes. The batch query paths always use it.
  std::vector<std::vector<double>> transform_batch(
      const std::vector<std::vector<double>>& samples) const;
};

/// Alice: serves private classification queries from her model.
class ClassificationServer {
 public:
  /// \p model must use the same kernel the profile was built from. Only
  /// its expansion into the profile's basis is kept.
  ClassificationServer(const svm::SvmModel& model,
                       const ClassificationProfile& profile,
                       SchemeConfig config);

  /// Serves \p count queries over the channel. \p external, when given, is
  /// a caller-owned OtBundle reused across sessions (persistent silent-OT
  /// pools: the seed agreement and pad reservoir survive the session); by
  /// default a session-local bundle is built and torn down here.
  void serve(net::Endpoint& channel, std::size_t count, Rng& rng,
             OtBundle* external = nullptr) const;

 private:
  SchemeConfig config_;
  unsigned declared_degree_;
  /// Monomial-basis kernels (polynomial) expand to a LINEAR function of the
  /// transformed variates tau: coefficients + constant, served through the
  /// OMPE linear fast path. Other kernels keep the generic MultiPoly.
  bool linear_in_tau_ = false;
  PPDS_SECRET std::vector<double> tau_coeffs_;
  PPDS_SECRET double tau_constant_ = 0.0;
  PPDS_SECRET math::MultiPoly poly_;
};

/// The coefficient form of the expansion for monomial-basis profiles:
/// d(tau) = coeffs . tau + constant. Cheaper than a MultiPoly by a factor
/// of the arity (325k variates for the a1a..a9a nonlinear runs).
struct LinearExpansion {
  std::vector<double> coeffs;
  double constant = 0.0;
};

/// Sweeps the monomial DAG once per support vector (seeded with c_s), so
/// the products and their summation order match the per-monomial power
/// walk bit for bit (tests/core/decision_coefficients_oracle.hpp).
LinearExpansion expand_decision_coefficients(
    const svm::SvmModel& model, const ClassificationProfile& profile);

/// SHA-256 over \p dag's parent array, then its var array, each entry a
/// little-endian u32. The DAG fixes the basis exactly: node i's exponents
/// are its parent's plus one in var[i].
crypto::Digest monomial_basis_digest(const math::MonomialDag& dag);

/// Bob: issues private classification queries.
class ClassificationClient {
 public:
  /// Keeps the profile's shape and evaluation DAG, not its exponent list.
  ClassificationClient(const ClassificationProfile& profile,
                       SchemeConfig config);

  /// One query: returns the randomized decision value ra * d(t̃) (sign is
  /// the class). The paper's Bob only ever uses the sign; the raw value is
  /// exposed to let the attack evaluations show it is useless (Fig. 5).
  double query_value(net::Endpoint& channel, const std::vector<double>& sample,
                     Rng& rng) const;

  /// One query, returning the class label in {+1, -1}.
  int classify(net::Endpoint& channel, const std::vector<double>& sample,
               Rng& rng) const;

  /// Batch of queries against a server serving the same count. REQUIRED
  /// form for OtEngine::kPrecomputed (the offline OT pool is sized and
  /// exchanged once for the whole batch); equivalent to a loop of
  /// query_value() for the other engines. \p external as in
  /// ClassificationServer::serve().
  std::vector<double> query_values_batch(
      net::Endpoint& channel, const std::vector<std::vector<double>>& samples,
      Rng& rng, OtBundle* external = nullptr) const;

  /// Batch classify: signs of query_values_batch.
  std::vector<int> classify_batch(
      net::Endpoint& channel, const std::vector<std::vector<double>>& samples,
      Rng& rng, OtBundle* external = nullptr) const;

 private:
  SchemeConfig config_;
  std::size_t input_dim_;
  std::size_t poly_arity_;
  unsigned declared_degree_;
  math::MonomialDag dag_;  ///< empty unless the kernel needs a transform
};

/// Expands a trained model's decision function into the profile's polynomial
/// basis (shared by the server and by tests).
math::MultiPoly expand_decision_function(const svm::SvmModel& model,
                                         const ClassificationProfile& profile);

}  // namespace ppds::core
