#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ppds/common/hex.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/net/party.hpp"
#include "ppds/ompe/ompe.hpp"

/// \file ompe_parallel_test.cpp
/// eval_threads and the ISA dispatch of the M61x8 lane kernels (AVX2 or
/// portable) are LOCAL: they must never change a single wire byte. These
/// tests pin that contract down bit for bit — run them under tsan to also
/// race the worker pool against itself, and with PPDS_FORCE_SCALAR=1 to take
/// the portable lane kernels (ctest registers that run as
/// OmpeForcedScalarDispatch).

namespace ppds::ompe {
namespace {

// Wide enough that big_m * (arity + 1) crosses the inline threshold, so the
// eval_threads > 1 runs genuinely go through the worker pool.
constexpr std::size_t kWideArity = 700;

std::vector<double> wide_alpha() {
  std::vector<double> alpha(kWideArity);
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    alpha[i] = 0.001 * static_cast<double>(i % 97) - 0.04;
  }
  return alpha;
}

/// Captures the receiver's request bytes (the only message it sends before
/// the OT) for a given thread setting.
Bytes capture_request(Backend backend, unsigned eval_threads,
                      std::uint64_t seed) {
  OmpeParams params;
  params.backend = backend;
  params.eval_threads = eval_threads;
  const std::vector<double> alpha = wide_alpha();
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        ch.set_stage(net::Stage::kOmpeRequest);  // mirror the receiver
        Bytes request = ch.recv();
        ch.close();  // abort the receiver's pending OT read
        return request;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackReceiver ot;
        try {
          return run_receiver(ch, alpha, 1, kWideArity, params, ot, rng);
        } catch (const ProtocolError&) {
          return 0.0;  // channel closed after capture — expected
        }
      });
  return outcome.a;
}

TEST(OmpeParallel, ReceiverTranscriptBitIdenticalAcrossThreadCounts) {
  for (Backend backend : {Backend::kReal, Backend::kField}) {
    const Bytes sequential = capture_request(backend, 1, 90210);
    const Bytes parallel = capture_request(backend, 8, 90210);
    ASSERT_FALSE(sequential.empty());
    EXPECT_EQ(sequential, parallel)
        << "backend " << static_cast<int>(backend);
  }
}

/// Builds a well-formed wide request by hand so the sender's reply can be
/// compared across thread settings without involving a (randomized)
/// receiver.
Bytes canned_request(const OmpeParams& params, Backend backend) {
  const std::size_t m = params.m(1);
  const std::size_t big_m = params.big_m(1);
  ByteWriter w;
  w.u8(1);  // version
  w.u8(static_cast<std::uint8_t>(backend));
  w.u32(1);  // degree
  w.u64(kWideArity);
  w.u64(big_m);
  w.u64(m);
  for (std::size_t i = 0; i < big_m; ++i) {
    if (backend == Backend::kReal) {
      w.f64(0.25 + 0.01 * static_cast<double>(i));  // distinct nonzero nodes
    } else {
      w.u64(i + 1);
    }
    for (std::size_t j = 0; j < kWideArity; ++j) {
      if (backend == Backend::kReal) {
        w.f64(0.5 - 0.002 * static_cast<double>((i + j) % 53));
      } else {
        w.u64(1 + ((i * 131 + j) % 1000));
      }
    }
  }
  return w.take();
}

Bytes capture_sender_reply(Backend backend, unsigned eval_threads,
                           std::uint64_t seed) {
  OmpeParams params;
  params.backend = backend;
  params.eval_threads = eval_threads;
  std::vector<double> weights(kWideArity);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 0.01 * static_cast<double>(i % 31) - 0.15;
  }
  const Bytes request = canned_request(params, backend);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackSender ot;
        run_sender_linear(ch, weights, 0.125, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        ch.set_stage(net::Stage::kOmpeRequest);  // mirror the sender
        ch.send(Bytes(request));
        ch.set_stage(net::Stage::kOtTransfer);
        return ch.recv();  // the loopback OT payload: all M masked values
      });
  return outcome.b;
}

TEST(OmpeParallel, SenderTranscriptBitIdenticalAcrossThreadCounts) {
  for (Backend backend : {Backend::kReal, Backend::kField}) {
    const Bytes sequential = capture_sender_reply(backend, 1, 777);
    const Bytes parallel = capture_sender_reply(backend, 8, 777);
    ASSERT_FALSE(sequential.empty());
    EXPECT_EQ(sequential, parallel)
        << "backend " << static_cast<int>(backend);
  }
}

/// The generic (run_sender) path evaluates P(z) through the fused lane
/// kernels under AVX2 and through CompiledMultiPoly::evaluate_with
/// otherwise; both must produce the same reply bytes.
Bytes capture_generic_sender_reply(std::uint64_t seed) {
  OmpeParams params;
  params.backend = Backend::kField;
  params.frac_bits = 12;
  math::MultiPoly secret(3);
  secret.add_term(0.5, {2, 1, 0});
  secret.add_term(-1.25, {0, 0, 3});
  secret.add_term(0.75, {1, 1, 1});
  secret.add_constant(0.375);

  const std::size_t m = params.m(3);
  const std::size_t big_m = params.big_m(3);
  ByteWriter w;
  w.u8(1);  // version
  w.u8(static_cast<std::uint8_t>(Backend::kField));
  w.u32(3);  // degree
  w.u64(3);  // arity
  w.u64(big_m);
  w.u64(m);
  for (std::size_t i = 0; i < big_m; ++i) {
    w.u64(i + 1);  // distinct nonzero nodes
    for (std::size_t j = 0; j < 3; ++j) w.u64(1 + ((i * 131 + j) % 1000));
  }
  const Bytes request = w.take();

  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackSender ot;
        run_sender(ch, secret, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        ch.set_stage(net::Stage::kOmpeRequest);
        ch.send(Bytes(request));
        ch.set_stage(net::Stage::kOtTransfer);
        return ch.recv();
      });
  return outcome.b;
}

// ---------------------------------------------------------------------------
// Golden transcripts: SHA-256 of the field-backend wire bytes, fixed across
// eval_threads, ISA dispatch (the default run and PPDS_FORCE_SCALAR=1 must
// both match) and refactors of the evaluators. A digest that changes means
// the protocol transcript changed.

std::string digest_hex(const Bytes& bytes) {
  return to_hex(crypto::sha256(bytes));
}

TEST(OmpeTranscriptDigest, FieldReceiverRequest) {
  for (unsigned threads : {1u, 8u}) {
    EXPECT_EQ(digest_hex(capture_request(Backend::kField, threads, 31337)),
              "dd9cc43194ea56fcbb8e5a3565db8ce52c443cdad38a13bb0305bf07ee6b43b1")
        << "eval_threads " << threads;
  }
}

TEST(OmpeTranscriptDigest, FieldSenderLinearReply) {
  for (unsigned threads : {1u, 8u}) {
    EXPECT_EQ(
        digest_hex(capture_sender_reply(Backend::kField, threads, 424242)),
        "c1851d9c5a9c00e9d56d03495d4679d620a4161d5efa3604bfcf619349c0ddd6")
        << "eval_threads " << threads;
  }
}

TEST(OmpeTranscriptDigest, FieldGenericSenderReply) {
  EXPECT_EQ(digest_hex(capture_generic_sender_reply(5150)),
            "3a45991facbbcb52f7dc9048f9d167c599f7daa39736b55afa3479f1603d3b81");
}

double run_full(const math::MultiPoly& secret, const std::vector<double>& alpha,
                const OmpeParams& params, std::uint64_t seed) {
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackSender ot;
        run_sender(ch, secret, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed + 1);
        crypto::LoopbackReceiver ot;
        return run_receiver(ch, alpha, secret.total_degree(), secret.arity(),
                            params, ot, rng);
      });
  return outcome.b;
}

TEST(OmpeParallel, DagEvaluatorMatchesNaiveExactlyOnFieldBackend) {
  // Field arithmetic is exact: on inputs and coefficients that sit on the
  // fixed-point grid, the DAG-evaluated protocol result must equal the
  // naive term-walk MultiPoly::evaluate exactly, not merely closely.
  math::MultiPoly p(3);
  p.add_term(0.5, {2, 1, 0});
  p.add_term(-1.25, {0, 0, 3});
  p.add_term(0.75, {1, 1, 1});
  p.add_constant(0.375);
  const std::vector<double> alpha{0.25, -0.5, 0.125};  // exact on the grid
  OmpeParams params;
  params.backend = Backend::kField;
  // Degree 3 harmonizes the constant term to scale 2^{f*(3+1)}: f = 12
  // keeps every encoded coefficient inside the field.
  params.frac_bits = 12;
  EXPECT_EQ(run_full(p, alpha, params, 4242), p.evaluate(alpha));
}

TEST(OmpeParallel, DagEvaluatorMatchesNaiveOnRealBackend) {
  math::MultiPoly p(2);
  p.add_term(0.5, {2, 2});
  p.add_term(2.0, {1, 1});
  p.add_term(-1.5, {2, 0});
  p.add_constant(-0.3);
  const std::vector<double> alpha{0.7, -1.3};
  const double expect = p.evaluate(alpha);
  EXPECT_NEAR(run_full(p, alpha, OmpeParams{}, 868), expect,
              1e-6 + 1e-3 * std::abs(expect));
}

TEST(OmpeParallel, StageCountersCountProtocolElementsExactly) {
  OmpeParams params;
  params.q = 4;
  params.k = 2;
  const std::size_t m = params.m(1);        // 5
  const std::size_t big_m = params.big_m(1);  // 10
  reset_stage_counters();
  const auto p = math::MultiPoly::affine({1.0, -2.0}, 0.5);
  const std::vector<double> alpha{0.3, 0.4};
  EXPECT_NEAR(run_full(p, alpha, params, 99), p.evaluate(alpha), 1e-8);
  const StageCounters counters = stage_counters();
  EXPECT_EQ(counters.mask_eval_points, big_m);
  EXPECT_EQ(counters.cover_eval_points, big_m);
  EXPECT_EQ(counters.ot_elements, big_m + m);  // sender offers M, receiver keeps m
  EXPECT_EQ(counters.interp_points, m);
  reset_stage_counters();
  const StageCounters zeroed = stage_counters();
  EXPECT_EQ(zeroed.mask_eval_points, 0u);
  EXPECT_EQ(zeroed.mask_eval_ns, 0u);
  EXPECT_EQ(zeroed.ot_elements, 0u);
  EXPECT_EQ(zeroed.interp_points, 0u);
}

}  // namespace
}  // namespace ppds::ompe
