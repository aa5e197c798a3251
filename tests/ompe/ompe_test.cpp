#include "ppds/ompe/ompe.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ppds/net/party.hpp"

namespace ppds::ompe {
namespace {

/// Runs one complete OMPE evaluation over a fresh channel with loopback OT.
double run_ompe(const math::MultiPoly& secret, const std::vector<double>& alpha,
                const OmpeParams& params, unsigned declared_degree = 0,
                std::uint64_t seed = 7) {
  const unsigned degree =
      declared_degree == 0 ? std::max(1u, secret.total_degree())
                           : declared_degree;
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackSender ot;
        run_sender(ch, secret, params, ot, rng, declared_degree);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed + 1);
        crypto::LoopbackReceiver ot;
        return run_receiver(ch, alpha, degree, secret.arity(), params, ot,
                            rng);
      });
  return outcome.b;
}

TEST(Ompe, LinearPolynomialRealBackend) {
  const auto p = math::MultiPoly::affine({0.5, -2.0, 1.0}, 0.75);
  OmpeParams params;
  const std::vector<double> alpha{0.3, -0.1, 0.9};
  EXPECT_NEAR(run_ompe(p, alpha, params), p.evaluate(alpha), 1e-9);
}

TEST(Ompe, LinearPolynomialFieldBackendExactGrid) {
  const auto p = math::MultiPoly::affine({0.5, -2.0, 1.0}, 0.75);
  OmpeParams params;
  params.backend = Backend::kField;
  const std::vector<double> alpha{0.25, -0.125, 0.5};  // exact on the grid
  EXPECT_NEAR(run_ompe(p, alpha, params), p.evaluate(alpha), 1e-5);
}

TEST(Ompe, HighDegreePolynomialRealBackend) {
  // Eq. (7)-shaped bivariate degree-4 polynomial.
  math::MultiPoly p(2);
  p.add_term(0.5, {2, 2});
  p.add_term(-1.5, {2, 0});
  p.add_term(0.75, {0, 2});
  p.add_term(2.0, {1, 1});
  p.add_constant(-0.3);
  OmpeParams params;
  const std::vector<double> alpha{0.7, -1.3};
  // Degree 4 with q = 8 means a degree-32 interpolation: long-double
  // conditioning limits accuracy to ~1e-4 relative (the exact field backend
  // exists for cases that need more).
  const double expect = p.evaluate(alpha);
  EXPECT_NEAR(run_ompe(p, alpha, params), expect,
              1e-6 + 1e-3 * std::abs(expect));
}

TEST(Ompe, DeclaredDegreeAboveActual) {
  // The nonlinear classification pattern: secret linear in tau, declared
  // degree p = 3 so the cost model matches the paper.
  const auto p = math::MultiPoly::affine({1.0, -1.0, 0.5, 0.25}, 0.1);
  OmpeParams params;
  const std::vector<double> alpha{0.2, 0.4, -0.6, 0.8};
  EXPECT_NEAR(run_ompe(p, alpha, params, 3), p.evaluate(alpha), 1e-8);
}

TEST(Ompe, DeclaredDegreeBelowActualRejected) {
  math::MultiPoly p(1);
  p.add_term(1.0, {3});
  OmpeParams params;
  EXPECT_THROW(run_ompe(p, {0.5}, params, 2), Error);
}

class OmpeQParam : public ::testing::TestWithParam<unsigned> {};

// Property: correctness is independent of the security parameter q.
TEST_P(OmpeQParam, CorrectAcrossSecurityParameters) {
  const auto p = math::MultiPoly::affine({1.5, -0.5}, -0.25);
  OmpeParams params;
  params.q = GetParam();
  const std::vector<double> alpha{0.6, 0.8};
  EXPECT_NEAR(run_ompe(p, alpha, params, 0, 100 + params.q),
              p.evaluate(alpha), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(SecurityQ, OmpeQParam,
                         ::testing::Values(1, 2, 4, 8, 12, 16));

class OmpeKParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(OmpeKParam, CorrectAcrossCoverBlowups) {
  const auto p = math::MultiPoly::affine({-0.7, 0.3}, 0.9);
  OmpeParams params;
  params.k = GetParam();
  const std::vector<double> alpha{-0.4, 0.2};
  EXPECT_NEAR(run_ompe(p, alpha, params, 0, 200 + params.k),
              p.evaluate(alpha), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(CoverK, OmpeKParam, ::testing::Values(1, 2, 3, 5, 8));

TEST(Ompe, FieldBackendSignExactForTinyMargins) {
  // The reason the exact backend exists: near-zero decision values must
  // still classify by sign. 2^-18 is representable at frac_bits = 20.
  OmpeParams params;
  params.backend = Backend::kField;
  const double tiny = std::pow(2.0, -18.0);
  for (double sign : {1.0, -1.0}) {
    const auto p = math::MultiPoly::affine({1.0}, sign * tiny);
    const double got = run_ompe(p, {0.0}, params);
    EXPECT_EQ(got > 0, sign > 0);
    EXPECT_NEAR(got, sign * tiny, 1e-9);
  }
}

TEST(Ompe, WireFormatMatchesCostModel) {
  // Bob ships M = (pq+1)k pairs of (node, r-vector): (1 + arity) doubles
  // each, plus the header.
  const auto p = math::MultiPoly::affine({1.0, 2.0, 3.0}, 0.0);
  OmpeParams params;
  params.q = 4;
  params.k = 3;
  const std::vector<double> alpha{0.1, 0.2, 0.3};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        crypto::LoopbackSender ot;
        run_sender(ch, p, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        crypto::LoopbackReceiver ot;
        return run_receiver(ch, alpha, 1, 3, params, ot, rng);
      });
  const std::size_t big_m = (1 * 4 + 1) * 3;
  const std::size_t header = 1 + 1 + 4 + 8 + 8 + 8;
  EXPECT_EQ(outcome.b_sent.bytes, header + big_m * (1 + 3) * 8);
  // Sender's loopback OT ships all M values of 8 bytes.
  EXPECT_EQ(outcome.a_sent.bytes, big_m * 8u);
}

TEST(Ompe, SenderRejectsMismatchedRequest) {
  // Receiver claims a different arity than the sender's polynomial.
  const auto p = math::MultiPoly::affine({1.0, 2.0}, 0.0);
  OmpeParams params;
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            crypto::LoopbackSender ot;
            run_sender(ch, p, params, ot, rng);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            crypto::LoopbackReceiver ot;
            const std::vector<double> alpha{0.1, 0.2, 0.3};
            return run_receiver(ch, alpha, 1, 3, params, ot, rng);
          }),
      ProtocolError);
}

TEST(Ompe, SenderRejectsRepeatedNodes) {
  const auto p = math::MultiPoly::affine({1.0}, 0.0);
  OmpeParams params;
  params.q = 1;
  params.k = 2;
  // Hand-craft a malformed request with duplicate nodes.
  auto outcome_error = [&]() {
    net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(1);
          crypto::LoopbackSender ot;
          run_sender(ch, p, params, ot, rng);
          return 0;
        },
        [&](net::Endpoint& ch) {
          ByteWriter w;
          w.u8(1);   // version
          w.u8(0);   // real backend
          w.u32(1);  // degree
          w.u64(1);  // arity
          w.u64(4);  // M
          w.u64(2);  // m
          for (int i = 0; i < 4; ++i) {
            w.f64(0.5);  // duplicate node
            w.f64(0.1);
          }
          ch.send(w.take());
          ch.recv();
          return 0;
        });
  };
  EXPECT_THROW(outcome_error(), ProtocolError);
}

TEST(Ompe, LinearFastPathMatchesGenericSender) {
  // run_sender_linear must speak the exact same protocol as run_sender on
  // an affine secret (real and field backends).
  const std::vector<double> w{0.4, -0.9, 0.2};
  const double b = -0.35;
  const std::vector<double> alpha{0.5, 0.25, -0.75};
  for (int backend = 0; backend < 2; ++backend) {
    OmpeParams params;
    params.backend = backend == 0 ? Backend::kReal : Backend::kField;
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng rng(400 + backend);
          crypto::LoopbackSender ot;
          run_sender_linear(ch, w, b, params, ot, rng);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rng(500 + backend);
          crypto::LoopbackReceiver ot;
          return run_receiver(ch, alpha, 1, 3, params, ot, rng);
        });
    double expect = b;
    for (std::size_t i = 0; i < w.size(); ++i) expect += w[i] * alpha[i];
    EXPECT_NEAR(outcome.b, expect, 1e-5) << "backend " << backend;
  }
}

TEST(Ompe, LinearFastPathDeclaredDegree) {
  // The nonlinear pattern: linear secret with declared degree 3 (m = 3q+1).
  const std::vector<double> w{1.0, -0.5};
  const std::vector<double> alpha{0.3, 0.6};
  OmpeParams params;
  params.q = 2;
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(600);
        crypto::LoopbackSender ot;
        run_sender_linear(ch, w, 0.1, params, ot, rng, 3);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(601);
        crypto::LoopbackReceiver ot;
        return run_receiver(ch, alpha, 3, 2, params, ot, rng);
      });
  EXPECT_NEAR(outcome.b, 1.0 * 0.3 - 0.5 * 0.6 + 0.1, 1e-8);
}

TEST(Ompe, ResultWithNaorPinkasOtMatches) {
  // Full cryptographic stack once (small q/k to keep modexp count low):
  // Naor-Pinkas amortized into one DH batch, then hash/XOR transfers.
  const auto p = math::MultiPoly::affine({0.9, -0.4}, 0.2);
  OmpeParams params;
  params.q = 2;
  params.k = 2;
  const crypto::DhGroup group(crypto::GroupId::kModp1024);
  const std::vector<double> alpha{0.5, -0.5};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(11);
        crypto::BatchedOtSender ot(group, rng);
        run_sender(ch, p, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(12);
        crypto::BatchedOtReceiver ot(group, rng);
        return run_receiver(ch, alpha, 1, 2, params, ot, rng);
      });
  EXPECT_NEAR(outcome.b, p.evaluate(alpha), 1e-9);
}

// Privacy smoke property: across repeated runs with the same alpha, the
// values Bob sends to Alice differ (fresh covers), so Alice cannot key on
// repeated queries.
TEST(Ompe, RequestsAreRerandomizedPerRun) {
  const auto p = math::MultiPoly::affine({1.0, 1.0}, 0.0);
  OmpeParams params;
  const std::vector<double> alpha{0.33, -0.77};
  Bytes first, second;
  for (int run = 0; run < 2; ++run) {
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          // Capture the request rather than serving it, then close so the
          // receiver's pending OT read aborts instead of deadlocking.
          ch.set_stage(net::Stage::kOmpeRequest);  // mirror the receiver
          Bytes request = ch.recv();
          ch.close();
          return request;
        },
        [&](net::Endpoint& ch) {
          Rng rng(500 + run);
          crypto::LoopbackReceiver ot;
          try {
            return run_receiver(ch, alpha, 1, 2, params, ot, rng);
          } catch (const ProtocolError&) {
            return 0.0;  // channel closed after capture — expected
          }
        });
    (run == 0 ? first : second) = outcome.a;
  }
  EXPECT_EQ(first.size(), second.size());
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace ppds::ompe
