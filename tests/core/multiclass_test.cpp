#include "ppds/core/multiclass.hpp"

#include <gtest/gtest.h>

#include "ppds/net/party.hpp"

namespace ppds::core {
namespace {

svm::MulticlassDataset three_blobs(Rng& rng, std::size_t per_class) {
  const struct {
    double cx, cy;
    int label;
  } centers[] = {{-0.6, -0.6, 0}, {0.7, -0.5, 1}, {0.0, 0.7, 2}};
  svm::MulticlassDataset d;
  for (const auto& c : centers) {
    for (std::size_t i = 0; i < per_class; ++i) {
      d.push({c.cx + rng.normal(0, 0.1), c.cy + rng.normal(0, 0.1)}, c.label);
    }
  }
  return d;
}

TEST(PrivateMulticlass, MatchesPlainPredictions) {
  Rng rng(1);
  const auto train = three_blobs(rng, 50);
  const auto model =
      svm::MulticlassModel::train(train, svm::Kernel::linear());
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const auto cfg = SchemeConfig::fast_simulation();
  MulticlassServer server(model, profile, cfg);
  MulticlassClient client(model, profile, cfg);
  EXPECT_EQ(server.num_pairs(), 3u);

  Rng sample_rng(2);
  std::vector<math::Vec> samples;
  for (int i = 0; i < 15; ++i) {
    samples.push_back({sample_rng.uniform(-1, 1), sample_rng.uniform(-1, 1)});
  }
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(3);
        server.serve(ch, samples.size(), r);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(4);
        std::vector<int> labels;
        for (const auto& s : samples) {
          labels.push_back(client.classify(ch, s, r));
        }
        return labels;
      });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i])) << i;
  }
}

TEST(PrivateMulticlass, NoncontiguousLabelsRoundTrip) {
  Rng rng(5);
  svm::MulticlassDataset train;
  for (int i = 0; i < 240; ++i) {
    math::Vec x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const int label = x[0] > 0.2 ? 7 : (x[1] > 0 ? -3 : 42);
    train.push(std::move(x), label);
  }
  const auto model =
      svm::MulticlassModel::train(train, svm::Kernel::linear());
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const auto cfg = SchemeConfig::fast_simulation();
  MulticlassServer server(model, profile, cfg);
  MulticlassClient client(model, profile, cfg);
  const std::vector<math::Vec> samples{{0.8, 0.0}, {-0.5, 0.8}, {-0.5, -0.8}};
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(6);
        server.serve(ch, samples.size(), r);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(7);
        std::vector<int> labels;
        for (const auto& s : samples) {
          labels.push_back(client.classify(ch, s, r));
        }
        return labels;
      });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i]));
  }
}

TEST(PrivateMulticlass, SecureDefaultMatchesPlainPredictions) {
  // The default private engine (a fresh DH batch per pairwise session):
  // each pairwise round reserves the same demand on both sides.
  Rng rng(8);
  const auto train = three_blobs(rng, 20);
  const auto model =
      svm::MulticlassModel::train(train, svm::Kernel::linear());
  const auto profile = ClassificationProfile::make(2, svm::Kernel::linear());
  const SchemeConfig cfg;
  ASSERT_EQ(cfg.ot_engine, OtEngine::kPrecomputed);
  MulticlassServer server(model, profile, cfg);
  MulticlassClient client(model, profile, cfg);

  Rng sample_rng(9);
  std::vector<math::Vec> samples;
  for (int i = 0; i < 6; ++i) {
    samples.push_back({sample_rng.uniform(-1, 1), sample_rng.uniform(-1, 1)});
  }
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng r(10);
        server.serve(ch, samples.size(), r);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng r(11);
        std::vector<int> labels;
        for (const auto& s : samples) {
          labels.push_back(client.classify(ch, s, r));
        }
        return labels;
      });
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(outcome.b[i], model.predict(samples[i])) << i;
  }
}

}  // namespace
}  // namespace ppds::core
