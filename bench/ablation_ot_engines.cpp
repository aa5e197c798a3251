/// ABLATION — OT engine choice. The paper treats the oblivious transfer as
/// a black box; this bench quantifies what the choice costs for one private
/// linear classification query (m-out-of-M OT of 8-byte values):
///   * loopback            — trusted simulation lower bound,
///   * DH batch 1024       — real public-key OT (a fresh per-session DH
///                           batch, as `:secure` runs it), benchmark-friendly
///                           group,
///   * DH batch 1536       — the same on the default group,
///   * precomputed         — the DH batch split into its offline pool and
///                           the online XOR-only transfers.
/// It also reports wire bytes per query for each engine.

#include <cstdio>
#include <latch>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/core/classification.hpp"
#include "ppds/net/party.hpp"

namespace {

using namespace ppds;

struct Result {
  double ms_per_query;
  std::uint64_t wire_bytes;
};

Result run(const core::SchemeConfig& cfg, std::size_t queries) {
  const svm::SvmModel model(svm::Kernel::linear(),
                            {{0.3, -0.8, 0.5, 0.1, -0.2, 0.7, 0.4, -0.6}},
                            {1.0}, 0.05);
  const auto profile = core::ClassificationProfile::make(8, model.kernel());
  core::ClassificationServer server(model, profile, cfg);
  core::ClassificationClient client(profile, cfg);
  const std::vector<std::vector<double>> samples(
      queries, {0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8});
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        server.serve(ch, queries, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        Stopwatch watch;
        client.classify_batch(ch, samples, rng);
        return watch.millis() / static_cast<double>(queries);
      });
  return {outcome.b,
          (outcome.a_sent.bytes + outcome.b_sent.bytes) / queries};
}

/// Precomputed engine, reporting offline and online separately. Both halves
/// are driven by hand: the offline clock runs until BOTH have finished
/// preparing (the sender derives its pads after the receiver's bundle
/// arrives), and only the frames sent after that count as online bytes.
void run_precomputed(std::size_t queries) {
  auto cfg = core::SchemeConfig::fast_simulation();
  cfg.ot_engine = core::OtEngine::kPrecomputed;
  cfg.group = crypto::GroupId::kModp1024;
  const svm::SvmModel model(svm::Kernel::linear(),
                            {{0.3, -0.8, 0.5, 0.1, -0.2, 0.7, 0.4, -0.6}},
                            {1.0}, 0.05);
  const auto profile = core::ClassificationProfile::make(8, model.kernel());
  const math::MultiPoly decision =
      core::expand_decision_function(model, profile);
  const std::vector<std::vector<double>> samples(
      queries, {0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8});
  const auto demand =
      core::ot_demand_per_query(cfg.ompe, profile.declared_degree);
  std::latch prepared(2);
  struct Split {
    double offline_ms;
    double online_ms_per_query;
    std::uint64_t online_bytes;
  };
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        return core::run_ot_session(
            cfg, core::OtRole::kSender, ch, rng, nullptr, demand, queries,
            [&](core::OtBundle& ot) {
              prepared.arrive_and_wait();
              const std::uint64_t offline_bytes = ch.stats().bytes;
              for (std::size_t i = 0; i < queries; ++i) {
                // The fresh amplifier ClassificationServer::serve draws.
                math::MultiPoly amplified = decision;
                amplified.scale(rng.log_uniform_positive(-8.0, 8.0));
                ompe::run_sender(ch, amplified, cfg.ompe, ot.sender(), rng,
                                 profile.declared_degree);
              }
              return ch.stats().bytes - offline_bytes;
            });
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        Stopwatch offline;
        return core::run_ot_session(
            cfg, core::OtRole::kReceiver, ch, rng, nullptr, demand, queries,
            [&](core::OtBundle& ot) {
              prepared.arrive_and_wait();
              Split split{};
              split.offline_ms = offline.millis();
              const std::uint64_t offline_bytes = ch.stats().bytes;
              Stopwatch online;
              for (const auto& sample : samples) {
                ompe::run_receiver(ch, profile.transform(sample),
                                   profile.declared_degree, profile.poly_arity,
                                   cfg.ompe, ot.receiver(), rng);
              }
              split.online_ms_per_query =
                  online.millis() / static_cast<double>(queries);
              split.online_bytes = ch.stats().bytes - offline_bytes;
              return split;
            });
      });
  std::printf("%-22s | %12.3f | %12llu  (+ %.0f ms offline pool for %zu "
              "queries, amortizable)\n",
              "precomputed (online)", outcome.b.online_ms_per_query,
              static_cast<unsigned long long>(
                  (outcome.a + outcome.b.online_bytes) / queries),
              outcome.b.offline_ms, queries);
}

}  // namespace

int main() {
  bench::banner("ABLATION: OT engine cost for one private classification");
  bench::note("q=4, k=2 (fast profile); 8-feature linear model");
  std::printf("%-22s | %12s | %12s\n", "engine", "ms/query", "bytes/query");
  bench::rule(52);

  {
    auto cfg = core::SchemeConfig::fast_simulation();
    const Result r = run(cfg, 100);
    std::printf("%-22s | %12.3f | %12llu\n", "loopback (simulated)",
                r.ms_per_query, static_cast<unsigned long long>(r.wire_bytes));
  }
  {
    auto cfg = core::SchemeConfig::fast_simulation();
    cfg.ot_engine = core::OtEngine::kPrecomputed;
    cfg.group = crypto::GroupId::kModp1024;
    const Result r = run(cfg, 24);
    std::printf("%-22s | %12.3f | %12llu\n", "dh batch MODP-1024",
                r.ms_per_query, static_cast<unsigned long long>(r.wire_bytes));
  }
  {
    auto cfg = core::SchemeConfig::fast_simulation();
    cfg.ot_engine = core::OtEngine::kPrecomputed;
    cfg.group = crypto::GroupId::kModp1536;
    const Result r = run(cfg, 24);
    std::printf("%-22s | %12.3f | %12llu\n", "dh batch MODP-1536",
                r.ms_per_query, static_cast<unsigned long long>(r.wire_bytes));
  }
  run_precomputed(24);
  std::printf(
      "\nThe paper's remark that precomputing randomness reduces online cost\n"
      "holds for OT too: after the offline pool is exchanged, the online\n"
      "phase contains no public-key operations (see also micro_crypto's\n"
      "BM_OtPrecomputedOnline: ~15 us per online transfer).\n");
  return 0;
}
