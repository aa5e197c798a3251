#pragma once

#include <cmath>

#include "ppds/core/classification.hpp"

/// \file decision_coefficients_oracle.hpp
/// The naive coefficient expansion of a polynomial-kernel decision function:
/// every monomial walks every support vector with its own ascending-variable
/// power walk. expand_decision_coefficients (one monomial-DAG sweep per
/// support vector) is checked against it bit for bit; the library itself
/// only ever runs the sweep.

namespace ppds::core::oracle {

inline LinearExpansion decision_coefficients(
    const svm::SvmModel& model, const ClassificationProfile& profile) {
  const svm::Kernel& kernel = profile.kernel;
  const unsigned p = kernel.degree;
  const auto& svs = model.support_vectors();
  const auto& cs = model.coefficients();
  LinearExpansion out;
  out.coeffs.assign(profile.poly_arity, 0.0);
  for (std::size_t j = 0; j < profile.monomials.size(); ++j) {
    const math::Exponents& kappa = profile.monomials[j];
    unsigned i = 0;
    for (unsigned e : kappa) i += e;
    double b0_pow = 1.0;
    if (p > i) {
      if (kernel.b0 == 0.0) continue;
      b0_pow = std::pow(kernel.b0, static_cast<double>(p - i));
    }
    math::Exponents extended = kappa;
    extended.push_back(static_cast<std::uint8_t>(p - i));
    const double combinatorial = math::multinomial_coefficient(extended);
    double sv_sum = 0.0;
    for (std::size_t s = 0; s < svs.size(); ++s) {
      double prod = cs[s];
      for (std::size_t var = 0; var < kappa.size(); ++var) {
        for (unsigned e = 0; e < kappa[var]; ++e) prod *= svs[s][var];
      }
      sv_sum += prod;
    }
    out.coeffs[j] = combinatorial *
                    std::pow(kernel.a0, static_cast<double>(i)) * b0_pow *
                    sv_sum;
  }
  out.constant = model.bias();
  if (kernel.b0 != 0.0) {
    double sv_sum = 0.0;
    for (double c : cs) sv_sum += c;
    out.constant += std::pow(kernel.b0, static_cast<double>(p)) * sv_sum;
  }
  return out;
}

}  // namespace ppds::core::oracle
