#pragma once

#include <vector>

#include "ppds/common/error.hpp"
#include "ppds/math/monomial.hpp"

/// \file monomial_oracle.hpp
/// The naive transform t -> tau: every monomial evaluated by its own
/// ascending-variable power walk. It is the oracle MonomialDag (and the
/// client transform built on it) is checked against bit for bit; the
/// library itself only ever evaluates the DAG.

namespace ppds::math::oracle {

inline std::vector<double> monomial_transform(
    const std::vector<Exponents>& monomials, const std::vector<double>& t) {
  std::vector<double> tau;
  tau.reserve(monomials.size());
  for (const Exponents& exps : monomials) {
    detail::require(exps.size() == t.size(),
                    "monomial_transform: dimension mismatch");
    double value = 1.0;
    for (std::size_t i = 0; i < exps.size(); ++i) {
      for (unsigned j = 0; j < exps[i]; ++j) value *= t[i];
    }
    tau.push_back(value);
  }
  return tau;
}

}  // namespace ppds::math::oracle
