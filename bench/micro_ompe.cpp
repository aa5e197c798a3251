/// Micro-benchmarks of the OMPE protocol: scaling in the input arity, the
/// security parameter q, the cover blow-up k, and the two numeric backends
/// (google-benchmark section), plus a hot-path engine sweep that brackets
/// each configuration with the ompe::stage_counters() and emits
/// BENCH_ompe.json (schema: docs/PERFORMANCE.md). Loopback OT throughout —
/// the public-key OT cost is characterized in micro_crypto and
/// ablation_ot_engines.
///
/// Flags: --quick runs only a trimmed sweep and skips the google-benchmark
/// section (CI smoke); the JSON records which mode produced it.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "ppds/common/stopwatch.hpp"
#include "ppds/common/thread_pool.hpp"
#include "ppds/math/multipoly.hpp"
#include "ppds/math/vec.hpp"
#include "ppds/net/party.hpp"
#include "ppds/ompe/ompe.hpp"

namespace {

using namespace ppds;

double one_round(const math::MultiPoly& secret,
                 const std::vector<double>& alpha,
                 const ompe::OmpeParams& params, std::uint64_t seed) {
  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(seed);
        crypto::LoopbackSender ot;
        ompe::run_sender(ch, secret, params, ot, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(seed + 1);
        crypto::LoopbackReceiver ot;
        return ompe::run_receiver(ch, alpha, 1, secret.arity(), params, ot,
                                  rng);
      });
  return outcome.b;
}

math::MultiPoly random_affine(std::size_t arity, Rng& rng) {
  math::Vec w(arity);
  for (auto& v : w) v = rng.uniform(-1, 1);
  return math::MultiPoly::affine(w, rng.uniform(-1, 1));
}

void BM_OmpeArity(benchmark::State& state) {
  Rng rng(1);
  const std::size_t arity = static_cast<std::size_t>(state.range(0));
  const auto secret = random_affine(arity, rng);
  std::vector<double> alpha(arity);
  for (auto& v : alpha) v = rng.uniform(-1, 1);
  ompe::OmpeParams params;
  std::uint64_t seed = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_round(secret, alpha, params, seed++));
  }
}
BENCHMARK(BM_OmpeArity)->Arg(2)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_OmpeSecurityQ(benchmark::State& state) {
  Rng rng(2);
  const auto secret = random_affine(16, rng);
  std::vector<double> alpha(16);
  for (auto& v : alpha) v = rng.uniform(-1, 1);
  ompe::OmpeParams params;
  params.q = static_cast<unsigned>(state.range(0));
  std::uint64_t seed = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_round(secret, alpha, params, seed++));
  }
}
BENCHMARK(BM_OmpeSecurityQ)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_OmpeCoverK(benchmark::State& state) {
  Rng rng(3);
  const auto secret = random_affine(16, rng);
  std::vector<double> alpha(16);
  for (auto& v : alpha) v = rng.uniform(-1, 1);
  ompe::OmpeParams params;
  params.k = static_cast<unsigned>(state.range(0));
  std::uint64_t seed = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_round(secret, alpha, params, seed++));
  }
}
BENCHMARK(BM_OmpeCoverK)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_OmpeBackend(benchmark::State& state) {
  Rng rng(4);
  const auto secret = random_affine(16, rng);
  std::vector<double> alpha(16);
  for (auto& v : alpha) v = rng.uniform(-1, 1);
  ompe::OmpeParams params;
  params.backend = state.range(0) == 0 ? ompe::Backend::kReal
                                       : ompe::Backend::kField;
  std::uint64_t seed = 3000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_round(secret, alpha, params, seed++));
  }
  state.SetLabel(state.range(0) == 0 ? "real(long double)"
                                     : "field(Mersenne-61)");
}
BENCHMARK(BM_OmpeBackend)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Hot-path engine sweep -> BENCH_ompe.json

struct SweepResult {
  double round_ms = 0.0;
  ompe::StageCounters stages;
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// One timed linear-path round (the nonlinear serving pattern: a secret
/// linear in `arity` variates, declared degree `degree`) averaged over
/// \p reps, stage counters bracketing the runs.
SweepResult linear_round(std::size_t arity, unsigned degree,
                         unsigned eval_threads, std::size_t reps) {
  Rng rng(11 + arity + degree);
  std::vector<double> w(arity);
  for (auto& v : w) v = rng.uniform(-1.0, 1.0);
  const double b = rng.uniform(-1.0, 1.0);
  std::vector<double> alpha(arity);
  for (auto& v : alpha) v = rng.uniform(-1.0, 1.0);

  ompe::OmpeParams params;
  params.q = 1;  // the nonlinear fig9 configuration: wide vectors dominate
  params.eval_threads = eval_threads;

  ompe::reset_stage_counters();
  Stopwatch watch;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto outcome = net::run_two_party(
        [&](net::Endpoint& ch) {
          Rng srng(100 + rep);
          crypto::LoopbackSender ot;
          ompe::run_sender_linear(ch, w, b, params, ot, srng, degree);
          return 0;
        },
        [&](net::Endpoint& ch) {
          Rng rrng(200 + rep);
          crypto::LoopbackReceiver ot;
          return ompe::run_receiver(ch, alpha, degree, arity, params, ot,
                                    rrng);
        });
    benchmark::DoNotOptimize(outcome.b);
  }
  SweepResult result;
  result.round_ms = watch.millis() / static_cast<double>(reps);
  result.stages = ompe::stage_counters();
  return result;
}

void run_engine_sweep(bool quick, bench::Json& report) {
  const std::size_t reps = quick ? 1 : 3;

  bench::banner("OMPE engine sweep: wide linear path (nonlinear pattern)");
  bench::note("loopback OT; q=1; stage times from ompe::stage_counters()");
  std::printf("%8s %3s %8s | %9s | %9s %9s %7s %7s\n", "arity", "deg",
              "threads", "round ms", "mask ms", "cover ms", "ot ms",
              "intp ms");
  bench::rule(74);

  auto linear_rows = bench::Json::array();
  const std::vector<std::size_t> arities =
      quick ? std::vector<std::size_t>{1024, 16384}
            : std::vector<std::size_t>{1024, 16384, 131072, 325499};
  const std::vector<unsigned> degrees = quick ? std::vector<unsigned>{3}
                                              : std::vector<unsigned>{1, 3};
  const unsigned hw =
      static_cast<unsigned>(ThreadPool::default_concurrency());
  for (std::size_t arity : arities) {
    for (unsigned degree : degrees) {
      for (unsigned threads : {1u, 0u}) {
        const SweepResult r = linear_round(arity, degree, threads, reps);
        const unsigned effective = threads == 0 ? hw : threads;
        const double div = static_cast<double>(reps);
        const double mask_ms = ms(r.stages.mask_eval_ns) / div;
        const double cover_ms = ms(r.stages.cover_eval_ns) / div;
        const double ot_ms = ms(r.stages.ot_ns) / div;
        const double interp_ms = ms(r.stages.interp_ns) / div;
        std::printf("%8zu %3u %8u | %9.2f | %9.2f %9.2f %7.2f %7.2f\n", arity,
                    degree, effective, r.round_ms, mask_ms, cover_ms, ot_ms,
                    interp_ms);
        auto row = bench::Json::object();
        row.set("arity", static_cast<std::uint64_t>(arity));
        row.set("degree", static_cast<int>(degree));
        row.set("eval_threads", static_cast<std::uint64_t>(effective));
        row.set("round_ms", r.round_ms);
        row.set("mask_eval_ms", mask_ms);
        row.set("cover_eval_ms", cover_ms);
        row.set("ot_ms", ot_ms);
        row.set("interp_ms", interp_ms);
        linear_rows.push(std::move(row));
      }
    }
  }
  report.set("linear_sweep", std::move(linear_rows));
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::has_flag(argc, argv, "--quick");

  auto report = bench::Json::object();
  report.set("figure", "micro_ompe");
  report.set("quick", quick);
  report.set("hardware_threads",
             static_cast<std::uint64_t>(ThreadPool::default_concurrency()));
  run_engine_sweep(quick, report);
  report.write_file("BENCH_ompe.json");

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
