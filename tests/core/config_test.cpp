#include "ppds/core/config.hpp"

#include <gtest/gtest.h>

#include "ppds/core/session.hpp"
#include "ppds/crypto/reservoir.hpp"
#include "ppds/net/party.hpp"

namespace ppds::core {
namespace {

TEST(SchemeConfig, DefaultsAreSecure) {
  const SchemeConfig cfg = SchemeConfig::secure_default();
  EXPECT_EQ(cfg.ot_engine, OtEngine::kPrecomputed);
  EXPECT_FALSE(cfg.silent_precompute);
  EXPECT_EQ(cfg.group, crypto::GroupId::kModp1536);
  EXPECT_EQ(cfg.ompe.backend, ompe::Backend::kReal);
  EXPECT_EQ(cfg.ompe.q, 8u);
  EXPECT_EQ(cfg.ompe.k, 3u);
}

TEST(SchemeConfig, FastSimulationUsesLoopback) {
  const SchemeConfig cfg = SchemeConfig::fast_simulation();
  EXPECT_EQ(cfg.ot_engine, OtEngine::kLoopback);
  EXPECT_LT(cfg.ompe.q, SchemeConfig::secure_default().ompe.q);
}

TEST(OmpeParams, CostModel) {
  ompe::OmpeParams params;
  params.q = 8;
  params.k = 3;
  EXPECT_EQ(params.m(1), 9u);    // pq + 1
  EXPECT_EQ(params.m(3), 25u);
  EXPECT_EQ(params.big_m(1), 27u);  // m * k
  EXPECT_EQ(params.big_m(3), 75u);
}

TEST(OtSlots, FormulaMatchesOtConstruction) {
  // Past the direct bound, a k-out-of-n transfer runs k 1-out-of-n rounds of
  // index_bits(n) arity-2 key transfers each.
  EXPECT_EQ(crypto::index_bits(27), 5u);
  EXPECT_EQ(crypto::index_bits(264), 9u);
  ompe::OmpeParams params;
  params.q = 32;
  params.k = 8;
  // degree 1: m = 33, M = 264, ceil(log2 264) = 9 bits -> 297 slots.
  auto d = ot_demand_per_query(params, 1);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].count, 33u * 9u);
  // degree 2: m = 65, M = 520, 10 bits -> 650 slots.
  d = ot_demand_per_query(params, 2);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].count, 65u * 10u);
}

TEST(OtDemand, DirectSlotsWhenArityFits) {
  ompe::OmpeParams params;
  params.q = 4;
  params.k = 2;
  // degree 1: m = 5, M = 10 <= 256 -> 5 direct 1-of-10 slots, i.e. 5
  // offline exponentiations per query instead of 20.
  const auto d = ot_demand_per_query(params, 1);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].arity, 10u);
  EXPECT_EQ(d[0].count, 5u);
}

TEST(OtDemand, FallsBackToBitDecompositionWhenArityTooLarge) {
  ompe::OmpeParams params;
  params.q = 32;
  params.k = 8;
  // degree 1: m = 33, M = 264 > 256 -> arity-2 bit-decomposition demand.
  const auto d = ot_demand_per_query(params, 1);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].arity, 2u);
  EXPECT_EQ(d[0].count, 33u * crypto::index_bits(264));
}

TEST(OtBundle, LoopbackReadyImmediately) {
  Rng rng(1);
  OtBundle bundle(SchemeConfig::fast_simulation(), rng);
  EXPECT_NO_THROW(bundle.sender());
  EXPECT_NO_THROW(bundle.receiver());
}

TEST(OtBundle, PrecomputedReadyImmediately) {
  // The batched engines auto-refill their pools, so the bundle is usable
  // even before prepare_sender()/prepare_receiver().
  Rng rng(2);
  SchemeConfig cfg;
  cfg.ot_engine = OtEngine::kPrecomputed;
  OtBundle bundle(cfg, rng);
  EXPECT_NO_THROW(bundle.sender());
  EXPECT_NO_THROW(bundle.receiver());
}

TEST(OtBundle, PrecomputedTransfersWithoutPrepare) {
  SchemeConfig cfg;
  cfg.ot_engine = OtEngine::kPrecomputed;
  cfg.group = crypto::GroupId::kModp1024;
  std::vector<Bytes> msgs{{7, 7}, {8, 8}};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(20);
        OtBundle bundle(cfg, rng);
        bundle.sender().send(ch, msgs, 1);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(21);
        OtBundle bundle(cfg, rng);
        const std::vector<std::size_t> want{1};
        return bundle.receiver().receive(ch, want, 2, 2);
      });
  ASSERT_EQ(outcome.b.size(), 1u);
  EXPECT_EQ(outcome.b[0], (Bytes{8, 8}));
}

TEST(OtBundle, PrepareIsNoOpForOtherEngines) {
  Rng rng(3);
  OtBundle bundle(SchemeConfig::fast_simulation(), rng);
  auto [a, b] = net::make_channel();
  const std::vector<OtDemand> demand{{/*arity=*/2, /*count=*/100}};
  EXPECT_NO_THROW(bundle.prepare_sender(a, demand));
  // No offline traffic was exchanged.
  EXPECT_EQ(a.stats().messages, 0u);
}

TEST(OtBundle, PreparedPairTransfers) {
  SchemeConfig cfg;
  cfg.ot_engine = OtEngine::kPrecomputed;
  cfg.group = crypto::GroupId::kModp1024;
  std::vector<Bytes> msgs{{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  const std::vector<OtDemand> demand{{/*arity=*/4, /*count=*/1}};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(4);
        OtBundle bundle(cfg, rng);
        bundle.prepare_sender(ch, demand);
        bundle.sender().send(ch, msgs, 1);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(5);
        OtBundle bundle(cfg, rng);
        bundle.prepare_receiver(ch, demand);
        const std::vector<std::size_t> want{2};
        return bundle.receiver().receive(ch, want, 4, 2);
      });
  ASSERT_EQ(outcome.b.size(), 1u);
  EXPECT_EQ(outcome.b[0], (Bytes{3, 3}));
}

TEST(OtBundle, ForConnectionKeepsBundlesForSilentConfigsOnly) {
  Rng rng(6);
  EXPECT_EQ(OtBundle::for_connection(SchemeConfig::fast_simulation(), rng),
            nullptr);
  SchemeConfig precomputed = SchemeConfig::fast_simulation();
  precomputed.ot_engine = OtEngine::kPrecomputed;
  EXPECT_EQ(OtBundle::for_connection(precomputed, rng), nullptr);
  SchemeConfig silent = SchemeConfig::silent();
  silent.reservoir = true;  // the bundle owns its refill thread
  EXPECT_NE(OtBundle::for_connection(silent, rng), nullptr);
}

TEST(OtBundle, BuildsOneEnginePerRoleItIsUsedAs) {
  // One served silent session on connection bundles sharing a reservoir:
  // each bundle builds (and attaches) only the engine of its own role, and
  // aborting one counts one abort.
  const svm::SvmModel model(svm::Kernel::linear(), {{0.8, -0.6}}, {1.0}, 0.1);
  const auto profile = ClassificationProfile::make(2, model.kernel());
  const SchemeConfig cfg = SchemeConfig::silent();
  const ClassificationServer server(model, profile, cfg);
  const ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples{{0.5, 0.1}, {-0.4, 0.9}};

  crypto::PadReservoir reservoir(1);
  Rng server_rng(7);
  Rng client_rng(8);
  const auto server_ot = OtBundle::for_connection(cfg, server_rng, &reservoir);
  const auto client_ot = OtBundle::for_connection(cfg, client_rng, &reservoir);
  ASSERT_NE(server_ot, nullptr);
  ASSERT_NE(client_ot, nullptr);
  EXPECT_EQ(reservoir.attached(), 0u);  // nothing is built before first use

  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        serve_session(server, profile, cfg, ch, server_rng, 1 << 20,
                      server_ot.get());
        return 0;
      },
      [&](net::Endpoint& ch) {
        return classify_session(client, profile, cfg, ch, samples, client_rng,
                                client_ot.get());
      });
  ASSERT_EQ(outcome.b.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i]));
  }
  EXPECT_EQ(reservoir.attached(), 2u);

  auto& audit = crypto::ot_abort_audit();
  const std::uint64_t aborts_before = audit.aborts.load();
  const std::uint64_t wiped_before = audit.wiped.load();
  server_ot->abort();
  EXPECT_EQ(audit.aborts.load() - aborts_before, 1u);
  EXPECT_EQ(audit.wiped.load() - wiped_before, 1u);
}

}  // namespace
}  // namespace ppds::core
