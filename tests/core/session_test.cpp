#include "ppds/core/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "ppds/common/hex.hpp"
#include "ppds/net/party.hpp"

namespace ppds::core {
namespace {

svm::SvmModel toy_model() {
  return svm::SvmModel(svm::Kernel::linear(), {{0.8, -0.6}}, {1.0}, 0.1);
}

TEST(ProtocolDigest, DeterministicAndParameterSensitive) {
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const auto cfg = SchemeConfig::fast_simulation();
  EXPECT_EQ(protocol_digest(profile, cfg), protocol_digest(profile, cfg));

  auto other_cfg = cfg;
  other_cfg.ompe.q += 1;
  EXPECT_NE(protocol_digest(profile, cfg), protocol_digest(profile, other_cfg));

  const auto other_profile =
      ClassificationProfile::make(3, svm::Kernel::linear());
  EXPECT_NE(protocol_digest(profile, cfg),
            protocol_digest(other_profile, cfg));

  const auto poly_profile =
      ClassificationProfile::make(2, svm::Kernel::paper_polynomial(2));
  EXPECT_NE(protocol_digest(profile, cfg), protocol_digest(poly_profile, cfg));
}

TEST(ProtocolDigest, IgnoresLocalPerformanceKnobs) {
  // eval_threads never changes wire bytes, so two parties with different
  // settings must still agree on the digest.
  const auto profile =
      ClassificationProfile::make(2, svm::Kernel::paper_polynomial(2));
  const auto cfg = SchemeConfig::fast_simulation();
  auto tuned = cfg;
  tuned.ompe.eval_threads = 1;
  // The silent-OT reservoir is local too: it never changes wire bytes
  // (staging is sized by protocol constants).
  tuned.reservoir = true;
  EXPECT_EQ(protocol_digest(profile, cfg), protocol_digest(profile, tuned));
}

TEST(ProtocolDigest, SilentPrecomputeIsHashed) {
  // silent_precompute CHANGES the offline wire format (seed agreement +
  // correction blocks instead of DH batches), so parties must agree on it.
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  auto cfg = SchemeConfig::fast_simulation();
  cfg.ot_engine = OtEngine::kPrecomputed;
  auto silent = cfg;
  silent.silent_precompute = true;
  EXPECT_NE(protocol_digest(profile, cfg), protocol_digest(profile, silent));

  const auto space = DataSpace{};
  EXPECT_NE(similarity_digest(svm::Kernel::linear(), space, cfg),
            similarity_digest(svm::Kernel::linear(), space, silent));
  auto tuned = silent;
  tuned.reservoir = true;
  EXPECT_EQ(similarity_digest(svm::Kernel::linear(), space, silent),
            similarity_digest(svm::Kernel::linear(), space, tuned));
}

TEST(ProtocolDigest, GoldenHexForServedScenarios) {
  // The public parameters Scenario::make derives for diabetes (8 features)
  // under `diabetes:linear:silent` and `diabetes:poly:secure`. A changed
  // hex means a changed handshake: every deployed peer would be denied.
  const auto linear = ClassificationProfile::make(8, svm::Kernel::linear());
  const svm::Kernel poly_kernel = svm::Kernel::paper_polynomial(8);
  const auto poly = ClassificationProfile::make(8, poly_kernel);
  const DataSpace space;
  EXPECT_EQ(to_hex(protocol_digest(linear, SchemeConfig::silent())),
            "3bff482db5e6ab46784342b70b8b937a0193f02475dc768488dfeb7380558963");
  EXPECT_EQ(to_hex(protocol_digest(poly, SchemeConfig::secure_default())),
            "6e2dc53bff0551dc76277e0f260961b4a6e1a8b9441b6f85fb8051aa451ab536");
  EXPECT_EQ(to_hex(similarity_digest(svm::Kernel::linear(), space,
                                     SchemeConfig::silent())),
            "91905f8eb12e114fdaf9af6432a108fd2318859a27de79dd4d586a7d13321ed4");
  EXPECT_EQ(to_hex(similarity_digest(poly_kernel, space,
                                     SchemeConfig::secure_default())),
            "e9d0aa545949d44fed7a5a23ea84b6c9ef9ee9992cbaa9c507ed6e9f1ed9bd5a");
}

TEST(Session, AgreedParametersClassifyEndToEnd) {
  const auto model = toy_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples{
      {0.5, 0.1}, {-0.4, 0.9}, {0.2, -0.7}};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        serve_session(server, profile, cfg, ch, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        return classify_session(client, profile, cfg, ch, samples, rng);
      });
  ASSERT_EQ(outcome.b.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i]));
  }
}

TEST(Session, ParameterMismatchDeniedOnBothSides) {
  const auto model = toy_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto server_cfg = SchemeConfig::fast_simulation();
  auto client_cfg = server_cfg;
  client_cfg.ompe.q = server_cfg.ompe.q + 2;  // drifted parameter

  ClassificationServer server(model, profile, server_cfg);
  ClassificationClient client(profile, client_cfg);
  const std::vector<std::vector<double>> samples{{0.5, 0.1}};
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            serve_session(server, profile, server_cfg, ch, rng);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            try {
              classify_session(client, profile, client_cfg, ch, samples, rng);
            } catch (const ProtocolError&) {
              return 1;  // client saw the denial, as designed
            }
            return 0;
          }),
      ProtocolError);  // the server side also throws
}

TEST(Session, BadMagicRejected) {
  const auto model = toy_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  ClassificationServer server(model, profile, cfg);
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            serve_session(server, profile, cfg, ch, rng);
            return 0;
          },
          [&](net::Endpoint& ch) {
            ch.send(Bytes{'N', 'O', 'P', 'E'});
            try {
              ch.recv();
            } catch (const ProtocolError&) {
            }
            return 0;
          }),
      ProtocolError);
}

TEST(Session, ExcessiveQueryCountRejected) {
  const auto model = toy_model();
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const auto cfg = SchemeConfig::fast_simulation();
  ClassificationServer server(model, profile, cfg);
  ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples{{0.5, 0.1}, {0.2, 0.2}};
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            serve_session(server, profile, cfg, ch, rng, /*max_queries=*/1);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            try {
              classify_session(client, profile, cfg, ch, samples, rng);
            } catch (const ProtocolError&) {
            }
            return 0;
          }),
      ProtocolError);
}

TEST(SimilaritySession, AgreedParametersEvaluate) {
  const DataSpace space;
  const auto cfg = SchemeConfig::fast_simulation();
  const svm::SvmModel a(svm::Kernel::linear(), {{1.0, 0.2}}, {1.0}, 0.1);
  const svm::SvmModel b(svm::Kernel::linear(), {{0.8, 0.5}}, {1.0}, -0.2);
  SimilarityServer server(a, space, cfg);
  SimilarityClient client(b, space, cfg);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        serve_similarity_session(server, svm::Kernel::linear(), space, cfg,
                                 ch, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        return evaluate_similarity_session(client, svm::Kernel::linear(),
                                           space, cfg, ch, rng);
      });
  EXPECT_NEAR(outcome.b, ordinary_similarity(a, b, space),
              1e-6 + 1e-3 * outcome.b);
}

/// Runs one in-process similarity session with payload transcripts on and
/// returns "<server sent>/<client sent>" as hex (each side's recv digest is
/// the other's sent digest).
std::string similarity_transcript(const SchemeConfig& cfg) {
  const DataSpace space;
  const svm::SvmModel a(svm::Kernel::linear(), {{1.0, 0.2}}, {1.0}, 0.1);
  const svm::SvmModel b(svm::Kernel::linear(), {{0.8, 0.5}}, {1.0}, -0.2);
  const SimilarityServer server(a, space, cfg);
  const SimilarityClient client(b, space, cfg);
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        ch.enable_transcript(true);
        Rng rng(31);
        serve_similarity_session(server, svm::Kernel::linear(), space, cfg,
                                 ch, rng);
        return ch.sent_transcript();
      },
      [&](net::Endpoint& ch) {
        ch.enable_transcript(true);
        Rng rng(32);
        const double t = evaluate_similarity_session(
            client, svm::Kernel::linear(), space, cfg, ch, rng);
        EXPECT_NEAR(t, ordinary_similarity(a, b, space), 1e-6 + 1e-3 * t);
        return ch.sent_transcript();
      });
  char out[40];
  std::snprintf(out, sizeof(out), "%016llx/%016llx",
                static_cast<unsigned long long>(outcome.a),
                static_cast<unsigned long long>(outcome.b));
  return out;
}

TEST(SimilaritySession, TranscriptPinnedOnPrecomputedAndSilent) {
  // Golden payload digests of a whole similarity session (handshake, the
  // offline OT phase, the norms, two stage-1 rounds and the degree-4 stage
  // 2) on the DH-batch and the silent offline phase. A changed value means
  // the similarity wire bytes changed.
  SchemeConfig precomputed = SchemeConfig::fast_simulation();
  precomputed.ot_engine = OtEngine::kPrecomputed;
  EXPECT_EQ(similarity_transcript(precomputed),
            "1aab6cd8f173737a/5aed21d0ce5825bd");
  EXPECT_EQ(similarity_transcript(SchemeConfig::silent()),
            "90386a04c914373f/c8bb75a467478175");
}

TEST(SimilaritySession, DataSpaceMismatchDenied) {
  const DataSpace space_a;
  DataSpace space_b;
  space_b.l0 = 1e-2;  // drifted public constant
  const auto cfg = SchemeConfig::fast_simulation();
  const svm::SvmModel a(svm::Kernel::linear(), {{1.0, 0.2}}, {1.0}, 0.1);
  const svm::SvmModel b(svm::Kernel::linear(), {{0.8, 0.5}}, {1.0}, -0.2);
  SimilarityServer server(a, space_a, cfg);
  SimilarityClient client(b, space_b, cfg);
  EXPECT_THROW(
      net::run_two_party(
          [&](net::Endpoint& ch) {
            Rng rng(1);
            serve_similarity_session(server, svm::Kernel::linear(), space_a,
                                     cfg, ch, rng);
            return 0;
          },
          [&](net::Endpoint& ch) {
            Rng rng(2);
            try {
              evaluate_similarity_session(client, svm::Kernel::linear(),
                                          space_b, cfg, ch, rng);
            } catch (const ProtocolError&) {
            }
            return 0.0;
          }),
      ProtocolError);
}

TEST(SimilaritySession, DigestSeparatedFromClassification) {
  // Same config must hash differently for the two protocols (domain tag).
  const auto cfg = SchemeConfig::fast_simulation();
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const DataSpace space;
  EXPECT_NE(protocol_digest(profile, cfg),
            similarity_digest(svm::Kernel::linear(), space, cfg));
}

}  // namespace
}  // namespace ppds::core
