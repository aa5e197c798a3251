#include "ppds/core/classification.hpp"

#include <cmath>

#include "ppds/common/ct.hpp"
#include "ppds/common/secret_taint.hpp"
#include "ppds/math/taylor.hpp"
#include "ppds/net/framing.hpp"

namespace ppds::core {

namespace {

/// Truncated-Taylor polynomial (over t) of one RBF term exp(-g*||x - t||^2).
math::MultiPoly rbf_term_poly(const math::Vec& x, double gamma,
                              unsigned order) {
  const std::size_t n = x.size();
  // r2(t) = ||x||^2 - 2 x.t + sum t_j^2
  math::MultiPoly r2(n);
  r2.add_constant(math::norm2(x));
  for (std::size_t j = 0; j < n; ++j) {
    math::Exponents lin(n, 0);
    lin[j] = 1;
    r2.add_term(-2.0 * x[j], std::move(lin));
    math::Exponents sq(n, 0);
    sq[j] = 2;
    r2.add_term(1.0, std::move(sq));
  }
  // exp(-g r2) ~= sum_i (-g)^i / i! * r2^i, truncated at total degree `order`.
  math::MultiPoly acc(n);
  math::MultiPoly power(n);
  power.add_constant(1.0);
  double factor = 1.0;
  acc.add_constant(1.0);
  for (unsigned i = 1; 2 * i <= order; ++i) {
    power = math::MultiPoly::mul(power, r2, order);
    factor *= -gamma / static_cast<double>(i);
    math::MultiPoly contrib = power;
    contrib.scale(factor);
    acc = acc + contrib;
  }
  return acc;
}

/// Truncated-Taylor polynomial of one sigmoid term tanh(a0 x.t + c0).
math::MultiPoly sigmoid_term_poly(const math::Vec& x, double a0, double c0,
                                  unsigned order) {
  const std::size_t n = x.size();
  math::Vec scaled = x;
  math::scale(scaled, a0);
  math::MultiPoly u = math::MultiPoly::affine(scaled, c0);
  const std::vector<double> series = math::tanh_taylor(order);
  math::MultiPoly acc(n);
  math::MultiPoly power(n);
  power.add_constant(1.0);
  for (std::size_t j = 0; j < series.size(); ++j) {
    if (series[j] != 0.0) {
      math::MultiPoly contrib = power;
      contrib.scale(series[j]);
      acc = acc + contrib;
    }
    if (j + 1 < series.size()) power = math::MultiPoly::mul(power, u, order);
  }
  return acc;
}

}  // namespace

ClassificationProfile ClassificationProfile::make(std::size_t input_dim,
                                                  const svm::Kernel& kernel,
                                                  unsigned taylor_order) {
  detail::require(input_dim >= 1, "ClassificationProfile: dim >= 1");
  ClassificationProfile profile;
  profile.input_dim = input_dim;
  profile.kernel = kernel;
  switch (kernel.type) {
    case svm::KernelType::kLinear:
      profile.poly_arity = input_dim;
      profile.declared_degree = 1;
      break;
    case svm::KernelType::kPolynomial:
      detail::require(kernel.degree >= 1, "polynomial kernel degree >= 1");
      profile.monomials = math::monomials_up_to(input_dim, kernel.degree);
      profile.monomial_dag = math::build_monomial_dag(profile.monomials);
      profile.basis_digest = monomial_basis_digest(profile.monomial_dag);
      profile.poly_arity = profile.monomials.size();
      profile.declared_degree = kernel.degree;
      break;
    case svm::KernelType::kRbf:
      detail::require(taylor_order >= 2 && taylor_order % 2 == 0,
                      "rbf taylor order must be even and >= 2");
      profile.poly_arity = input_dim;
      profile.declared_degree = taylor_order;
      break;
    case svm::KernelType::kSigmoid:
      detail::require(taylor_order >= 1, "sigmoid taylor order >= 1");
      profile.poly_arity = input_dim;
      profile.declared_degree = taylor_order;
      break;
  }
  return profile;
}

namespace {

/// t -> tau over \p dag (identity when the DAG is empty). Graded basis:
/// each monomial is its divisor parent times one variable, so the full
/// transform costs one multiplication per monomial.
std::vector<double> transform_one(const math::MonomialDag& dag,
                                  std::size_t input_dim,
                                  const std::vector<double>& sample) {
  detail::require(sample.size() == input_dim,
                  "ClassificationProfile: sample dimension mismatch");
  if (dag.empty()) return sample;
  std::vector<double> tau(dag.size());
  dag.evaluate(std::span<const double>(sample), std::span<double>(tau));
  return tau;
}

std::vector<std::vector<double>> transform_many(
    const math::MonomialDag& dag, std::size_t input_dim,
    const std::vector<std::vector<double>>& samples) {
  std::vector<std::vector<double>> out;
  out.reserve(samples.size());
  if (dag.empty()) {
    for (const std::vector<double>& sample : samples) {
      detail::require(sample.size() == input_dim,
                      "ClassificationProfile: sample dimension mismatch");
      out.push_back(sample);
    }
    return out;
  }
  // Node-major SoA block: lane b of node i lives at block[i * kLanes + b].
  // Each sample still sees the exact per-node multiply chain of
  // transform_one(), so results are bit-identical; the lanes are
  // independent chains, which is what lets the inner loop vectorize.
  constexpr std::size_t kLanes = 8;
  const std::size_t nodes = dag.size();
  std::vector<double> block(nodes * kLanes);
  std::size_t s0 = 0;
  for (; s0 + kLanes <= samples.size(); s0 += kLanes) {
    for (std::size_t b = 0; b < kLanes; ++b) {
      detail::require(samples[s0 + b].size() == input_dim,
                      "ClassificationProfile: sample dimension mismatch");
    }
    for (std::size_t i = 0; i < nodes; ++i) {
      const std::uint32_t parent = dag.parent[i];
      const std::uint32_t var = dag.var[i];
      double* lane = block.data() + i * kLanes;
      if (parent == math::MonomialDag::kOne) {
        for (std::size_t b = 0; b < kLanes; ++b) {
          lane[b] = samples[s0 + b][var];
        }
      } else {
        const double* up = block.data() + parent * kLanes;
        for (std::size_t b = 0; b < kLanes; ++b) {
          lane[b] = up[b] * samples[s0 + b][var];
        }
      }
    }
    for (std::size_t b = 0; b < kLanes; ++b) {
      std::vector<double> tau(nodes);
      for (std::size_t i = 0; i < nodes; ++i) tau[i] = block[i * kLanes + b];
      out.push_back(std::move(tau));
    }
  }
  for (; s0 < samples.size(); ++s0) {
    out.push_back(transform_one(dag, input_dim, samples[s0]));
  }
  return out;
}

}  // namespace

std::vector<double> ClassificationProfile::transform(
    const std::vector<double>& sample) const {
  return transform_one(monomial_dag, input_dim, sample);
}

std::vector<std::vector<double>> ClassificationProfile::transform_batch(
    const std::vector<std::vector<double>>& samples) const {
  return transform_many(monomial_dag, input_dim, samples);
}

crypto::Digest monomial_basis_digest(const math::MonomialDag& dag) {
  ByteWriter w;
  for (const std::uint32_t parent : dag.parent) w.u32(parent);
  for (const std::uint32_t var : dag.var) w.u32(var);
  return crypto::sha256(w.data());
}

math::MultiPoly expand_decision_function(const svm::SvmModel& model,
                                         const ClassificationProfile& profile) {
  const auto& kernel = profile.kernel;
  detail::require(model.kernel() == kernel,
                  "expand_decision_function: model/profile kernel mismatch");
  detail::require(model.dim() == profile.input_dim,
                  "expand_decision_function: dimension mismatch");

  switch (kernel.type) {
    case svm::KernelType::kLinear: {
      return math::MultiPoly::affine(model.linear_weights(), model.bias());
    }
    case svm::KernelType::kPolynomial: {
      // Delegate to the coefficient form, then lift to a MultiPoly (only
      // tests and small demos take this path; the server itself keeps the
      // coefficient form to stay O(arity)).
      const LinearExpansion expansion =
          expand_decision_coefficients(model, profile);
      math::MultiPoly poly(profile.poly_arity);
      for (std::size_t j = 0; j < expansion.coeffs.size(); ++j) {
        if (expansion.coeffs[j] == 0.0) continue;
        math::Exponents unit(profile.poly_arity, 0);
        unit[j] = 1;
        poly.add_term(expansion.coeffs[j], std::move(unit));
      }
      poly.add_constant(expansion.constant);
      return poly;
    }
    case svm::KernelType::kRbf: {
      math::MultiPoly acc(profile.input_dim);
      const auto& svs = model.support_vectors();
      const auto& cs = model.coefficients();
      for (std::size_t s = 0; s < svs.size(); ++s) {
        math::MultiPoly term =
            rbf_term_poly(svs[s], kernel.gamma, profile.declared_degree);
        term.scale(cs[s]);
        acc = acc + term;
      }
      acc.add_constant(model.bias());
      return acc;
    }
    case svm::KernelType::kSigmoid: {
      math::MultiPoly acc(profile.input_dim);
      const auto& svs = model.support_vectors();
      const auto& cs = model.coefficients();
      for (std::size_t s = 0; s < svs.size(); ++s) {
        math::MultiPoly term = sigmoid_term_poly(svs[s], kernel.a0, kernel.c0,
                                                 profile.declared_degree);
        term.scale(cs[s]);
        acc = acc + term;
      }
      acc.add_constant(model.bias());
      return acc;
    }
  }
  throw InvalidArgument("expand_decision_function: unknown kernel");
}

LinearExpansion expand_decision_coefficients(
    const svm::SvmModel& model, const ClassificationProfile& profile) {
  const auto& kernel = profile.kernel;
  detail::require(kernel.type == svm::KernelType::kPolynomial,
                  "expand_decision_coefficients: monomial-basis kernels only");
  detail::require(model.kernel() == kernel,
                  "expand_decision_coefficients: kernel mismatch");
  detail::require(model.dim() == profile.input_dim,
                  "expand_decision_coefficients: dimension mismatch");
  // d(tau) = sum_j coeff_j tau_j + const, where for a monomial with
  // exponents kappa of total degree i:
  //   coeff_j = p!/(kappa! (p-i)!) a0^i b0^{p-i} sum_s c_s prod x_s^kappa
  const unsigned p = kernel.degree;
  const auto& svs = model.support_vectors();
  const auto& cs = model.coefficients();
  const math::MonomialDag& dag = profile.monomial_dag;
  detail::require(dag.size() == profile.monomials.size(),
                  "expand_decision_coefficients: basis without its DAG");
  // One DAG sweep per support vector, seeded with c_s: node j holds
  // c_s * prod x_s^kappa_j, multiplied in ascending-variable order, and the
  // sums run in ascending s, so sv_sums matches the per-monomial power walk
  // (the test oracle) bit for bit.
  std::vector<double> sv_sums(dag.size(), 0.0);
  std::vector<double> prods(dag.size());
  const ScopedWipe sums_guard(sv_sums);  // model-derived partial sums
  const ScopedWipe prods_guard(prods);
  for (std::size_t s = 0; s < svs.size(); ++s) {
    const math::Vec& x = svs[s];
    for (std::size_t j = 0; j < dag.size(); ++j) {
      const std::uint32_t parent = dag.parent[j];
      const double up =
          parent == math::MonomialDag::kOne ? cs[s] : prods[parent];
      prods[j] = up * x[dag.var[j]];
      sv_sums[j] += prods[j];
    }
  }
  LinearExpansion out;
  out.coeffs.assign(profile.poly_arity, 0.0);
  math::Exponents extended;
  for (std::size_t j = 0; j < profile.monomials.size(); ++j) {
    const math::Exponents& kappa = profile.monomials[j];
    unsigned i = 0;
    for (unsigned e : kappa) i += e;
    double b0_pow = 1.0;
    if (p > i) {
      if (kernel.b0 == 0.0) continue;  // homogeneous kernel: no low terms
      b0_pow = std::pow(kernel.b0, static_cast<double>(p - i));
    }
    extended.assign(kappa.begin(), kappa.end());
    extended.push_back(static_cast<std::uint8_t>(p - i));
    const double combinatorial = math::multinomial_coefficient(extended);
    out.coeffs[j] = combinatorial *
                    std::pow(kernel.a0, static_cast<double>(i)) * b0_pow *
                    sv_sums[j];
  }
  // Constant part: b plus, for inhomogeneous kernels, the b0^p term of
  // every support vector.
  out.constant = model.bias();
  if (kernel.b0 != 0.0) {
    double sv_sum = 0.0;
    for (double c : model.coefficients()) sv_sum += c;
    out.constant +=
        std::pow(kernel.b0, static_cast<double>(kernel.degree)) * sv_sum;
  }
  return out;
}

ClassificationServer::ClassificationServer(const svm::SvmModel& model,
                                           const ClassificationProfile& profile,
                                           SchemeConfig config)
    : config_(config), declared_degree_(profile.declared_degree) {
  if (profile.kernel.type == svm::KernelType::kPolynomial) {
    linear_in_tau_ = true;
    LinearExpansion expansion = expand_decision_coefficients(model, profile);
    tau_coeffs_ = std::move(expansion.coeffs);
    tau_constant_ = expansion.constant;
  } else {
    poly_ = expand_decision_function(model, profile);
  }
}

void ClassificationServer::serve(net::Endpoint& channel, std::size_t count,
                                 Rng& rng, OtBundle* external) const {
  // Precomputed engine: the whole batch's offline OT phase runs up front
  // (the client's matching batch call does the same).
  const auto demand =
      ot_demand_per_query(config_.ompe, declared_degree_);
  run_ot_session(
      config_, OtRole::kSender, channel, rng, external, demand, count,
      [&](OtBundle& ot) {
        for (std::size_t i = 0; i < count; ++i) {
          // Fresh positive amplifier per query — the Level-2 defense of
          // Fig. 5/6. The range is deliberately wide (2^-8 .. 2^8):
          // multiplicative positive noise has a positive mean, so a
          // colluding least-squares fit converges to the true DIRECTION at
          // a rate set by the noise spread — a heavier tail buys more
          // collusion resistance (quantified in fig5 and EXPERIMENTS.md; an
          // observation the paper does not make).
          const double ra = rng.log_uniform_positive(-8.0, 8.0);
          if (linear_in_tau_) {
            PPDS_SECRET std::vector<double> amplified = tau_coeffs_;
            const ScopedWipe guard(amplified);  // ra-amplified model is secret
            for (double& c : amplified) c *= ra;
            ompe::run_sender_linear(channel, amplified, ra * tau_constant_,
                                    config_.ompe, ot.sender(), rng,
                                    declared_degree_);
          } else {
            PPDS_SECRET math::MultiPoly amplified = poly_;
            amplified.scale(ra);
            ompe::run_sender(channel, amplified, config_.ompe, ot.sender(),
                             rng, declared_degree_);
          }
        }
      });
}

ClassificationClient::ClassificationClient(
    const ClassificationProfile& profile, SchemeConfig config)
    : config_(config),
      input_dim_(profile.input_dim),
      poly_arity_(profile.poly_arity),
      declared_degree_(profile.declared_degree),
      dag_(profile.monomial_dag) {}

double ClassificationClient::query_value(net::Endpoint& channel,
                                         const std::vector<double>& sample,
                                         Rng& rng) const {
  return query_values_batch(channel, {sample}, rng).front();
}

int ClassificationClient::classify(net::Endpoint& channel,
                                   const std::vector<double>& sample,
                                   Rng& rng) const {
  // Two-step reveal: declassify the comparison (a single public bit), then
  // branch on the public bool — never on the masked value itself.
  const bool negative = PPDS_DECLASSIFY(
      query_value(channel, sample, rng) < 0.0,
      "sign(ra * d(tau)) is the protocol output Bob is entitled to; the "
      "positive amplifier ra preserves the sign while hiding |d|");
  return negative ? -1 : 1;
}

std::vector<double> ClassificationClient::query_values_batch(
    net::Endpoint& channel, const std::vector<std::vector<double>>& samples,
    Rng& rng, OtBundle* external) const {
  const auto demand = ot_demand_per_query(config_.ompe, declared_degree_);
  return run_ot_session(
      config_, OtRole::kReceiver, channel, rng, external, demand,
      samples.size(), [&](OtBundle& ot) {
        std::vector<double> out;
        out.reserve(samples.size());
        // Transform the whole batch up front through the SoA lane sweep
        // (bit-identical per sample to transform()).
        for (const auto& tau : transform_many(dag_, input_dim_, samples)) {
          out.push_back(ompe::run_receiver(channel, tau, declared_degree_,
                                           poly_arity_, config_.ompe,
                                           ot.receiver(), rng));
        }
        return out;
      });
}

std::vector<int> ClassificationClient::classify_batch(
    net::Endpoint& channel, const std::vector<std::vector<double>>& samples,
    Rng& rng, OtBundle* external) const {
  const std::vector<double> values =
      query_values_batch(channel, samples, rng, external);
  std::vector<int> labels;
  labels.reserve(values.size());
  for (double v : values) {
    const bool negative = PPDS_DECLASSIFY(
        v < 0.0, "sign(ra * d(tau)) is the protocol output (see classify())");
    labels.push_back(negative ? -1 : 1);
  }
  return labels;
}

}  // namespace ppds::core
