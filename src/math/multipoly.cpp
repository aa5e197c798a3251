#include "ppds/math/multipoly.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <unordered_map>

namespace ppds::math {

MultiPoly MultiPoly::affine(const std::vector<double>& w, double b) {
  MultiPoly p(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] == 0.0) continue;
    Exponents e(w.size(), 0);
    e[i] = 1;
    p.add_term(w[i], std::move(e));
  }
  p.add_constant(b);
  return p;
}

void MultiPoly::add_term(double coeff, Exponents exps) {
  detail::require(exps.size() == arity_, "MultiPoly: exponent arity mismatch");
  terms_.push_back(Term{coeff, std::move(exps)});
}

void MultiPoly::add_constant(double delta) {
  for (Term& t : terms_) {
    bool constant = true;
    for (unsigned e : t.exps) {
      if (e != 0) {
        constant = false;
        break;
      }
    }
    if (constant) {
      t.coeff += delta;
      return;
    }
  }
  terms_.push_back(Term{delta, Exponents(arity_, 0)});
}

void MultiPoly::scale(double s) {
  for (Term& t : terms_) t.coeff *= s;
}

double MultiPoly::evaluate(const std::vector<double>& x) const {
  detail::require(x.size() == arity_, "MultiPoly::evaluate: arity mismatch");
  double acc = 0.0;
  for (const Term& t : terms_) {
    double v = t.coeff;
    for (std::size_t i = 0; i < arity_; ++i) {
      for (unsigned j = 0; j < t.exps[i]; ++j) v *= x[i];
    }
    acc += v;
  }
  return acc;
}

void MultiPoly::compact(double drop_below) {
  // Element-wise comparator instead of std::less<vector>: the defaulted
  // operator<=> lowers to a memcmp that GCC 12 -O3 misdiagnoses with
  // -Wstringop-overread (impossible [2^63, 2^64) bound), and all keys here
  // share the same arity anyway.
  struct ExpLess {
    bool operator()(const Exponents& a, const Exponents& b) const {
      if (a.size() != b.size()) return a.size() < b.size();
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) return a[i] < b[i];
      }
      return false;
    }
  };
  std::map<Exponents, double, ExpLess> merged;
  for (const Term& t : terms_) merged[t.exps] += t.coeff;
  terms_.clear();
  for (auto& [exps, coeff] : merged) {
    if (std::abs(coeff) > drop_below) {
      terms_.push_back(Term{coeff, exps});
    }
  }
  if (terms_.empty()) terms_.push_back(Term{0.0, Exponents(arity_, 0)});
}

MultiPoly MultiPoly::mul(const MultiPoly& a, const MultiPoly& b,
                         unsigned max_degree) {
  detail::require(a.arity_ == b.arity_, "MultiPoly::mul: arity mismatch");
  MultiPoly out(a.arity_);
  for (const Term& ta : a.terms_) {
    unsigned da = 0;
    for (unsigned e : ta.exps) da += e;
    for (const Term& tb : b.terms_) {
      unsigned db = 0;
      for (unsigned e : tb.exps) db += e;
      if (da + db > max_degree) continue;
      Exponents exps(a.arity_);
      for (std::size_t i = 0; i < a.arity_; ++i) exps[i] = ta.exps[i] + tb.exps[i];
      out.terms_.push_back(Term{ta.coeff * tb.coeff, std::move(exps)});
    }
  }
  out.compact();
  return out;
}

MultiPoly MultiPoly::pow(const MultiPoly& a, unsigned e, unsigned max_degree) {
  MultiPoly acc(a.arity_);
  acc.add_constant(1.0);
  for (unsigned i = 0; i < e; ++i) acc = mul(acc, a, max_degree);
  return acc;
}

MultiPoly MultiPoly::operator+(const MultiPoly& other) const {
  detail::require(arity_ == other.arity_, "MultiPoly::+: arity mismatch");
  MultiPoly out(arity_);
  out.terms_ = terms_;
  out.terms_.insert(out.terms_.end(), other.terms_.begin(), other.terms_.end());
  out.compact();
  return out;
}

namespace {

unsigned exps_degree(const Exponents& exps) {
  unsigned d = 0;
  for (unsigned e : exps) d += e;
  return d;
}

/// Graded-lex order: ascending total degree, ties broken lexicographically.
/// Guarantees every node's divisor parent sorts strictly earlier, which is
/// what build_monomial_dag requires.
bool graded_less(const Exponents& a, const Exponents& b) {
  const unsigned da = exps_degree(a);
  const unsigned db = exps_degree(b);
  if (da != db) return da < db;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

}  // namespace

CompiledMultiPoly::CompiledMultiPoly(const MultiPoly& poly)
    : arity_(poly.arity()) {
  const std::vector<Term>& terms = poly.terms();
  coeffs_.reserve(terms.size());
  term_node_.resize(terms.size());

  // Pass 1: copy the coefficients in source order and collect the divisor
  // closure of the term monomials — every monomial on
  // the chain from a term down to degree 1 (decrementing the last nonzero
  // exponent) becomes a DAG node.
  std::unordered_map<std::string, std::uint32_t> index;
  std::vector<Exponents> nodes;
  for (const Term& term : terms) {
    coeffs_.push_back(term.coeff);
    Exponents chain = term.exps;
    std::string key(chain.begin(), chain.end());
    while (true) {
      unsigned degree = 0;
      std::size_t last = chain.size();
      for (std::size_t i = 0; i < chain.size(); ++i) {
        degree += chain[i];
        if (chain[i] != 0) last = i;
      }
      if (degree == 0 || index.contains(key)) break;
      index.emplace(key, 0);  // placeholder; final ids assigned after sorting
      nodes.push_back(chain);
      --chain[last];
      key[last] = static_cast<char>(chain[last]);
    }
  }

  // Pass 2: graded order makes each parent's value available before its
  // children read it in the single evaluation sweep.
  std::sort(nodes.begin(), nodes.end(), graded_less);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    index[std::string(nodes[i].begin(), nodes[i].end())] =
        static_cast<std::uint32_t>(i);
  }
  dag_ = build_monomial_dag(nodes);

  for (std::size_t t = 0; t < terms.size(); ++t) {
    const Exponents& exps = terms[t].exps;
    term_node_[t] = exps_degree(exps) == 0
                        ? kOne
                        : index.at(std::string(exps.begin(), exps.end()));
  }
}

unsigned MultiPoly::total_degree() const {
  unsigned best = 0;
  for (const Term& t : terms_) {
    unsigned d = 0;
    for (unsigned e : t.exps) d += e;
    if (d > best) best = d;
  }
  return best;
}

}  // namespace ppds::math
