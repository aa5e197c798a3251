#include "ppds/core/session_pool.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "ppds/net/party.hpp"
#include "ppds/net/socket.hpp"

namespace ppds::core {

std::uint64_t chunk_seed(std::uint64_t seed, std::uint64_t stream) {
  // Shared SplitMix64 derivation (see common/rng.hpp): adjacent
  // (seed, stream) pairs land in decorrelated RNG streams.
  return splitmix64(seed, stream);
}

std::uint64_t retry_attempt_seed(std::uint64_t base, std::size_t attempt) {
  return attempt == 0 ? base : splitmix64(base, attempt);
}

std::chrono::milliseconds retry_backoff(const RetryPolicy& retry,
                                        std::size_t attempt,
                                        std::uint64_t jitter_stream) {
  if (retry.backoff.count() <= 0) return std::chrono::milliseconds{0};
  double ms = static_cast<double>(retry.backoff.count()) *
              std::pow(retry.backoff_multiplier,
                       static_cast<double>(attempt) - 1.0);
  if (retry.jitter > 0.0) {
    const double u =
        static_cast<double>(splitmix64(jitter_stream, attempt) >> 11) *
        0x1.0p-53;  // [0, 1)
    ms *= 1.0 + retry.jitter * (2.0 * u - 1.0);
  }
  return std::chrono::milliseconds{
      static_cast<std::chrono::milliseconds::rep>(std::fmax(0.0, ms))};
}

namespace {

/// Runs \p body(attempt) under the retry policy: ProtocolError (timeouts,
/// fault-corrupted frames, closed channels, backpressure) triggers a
/// backed-off re-run with the next attempt index; anything else — and the
/// final attempt's error — propagates. InvalidArgument is deliberately NOT
/// retried: bad inputs fail identically every time.
template <typename Body>
auto run_with_retry(const RetryPolicy& retry, std::uint64_t jitter_stream,
                    const Body& body) -> decltype(body(std::size_t{0})) {
  const std::size_t attempts = std::max<std::size_t>(1, retry.max_attempts);
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return body(attempt);
    } catch (const ProtocolError&) {
      if (attempt + 1 >= attempts) throw;
      const auto delay = retry_backoff(retry, attempt + 1, jitter_stream);
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
    }
  }
}

/// One session attempt's transport: a connected endpoint pair with
/// deadlines installed and (optionally) deterministic fault injection. The
/// in-process flavor decorates clean endpoints with FaultyEndpoint; the
/// socket flavor hands the same (FaultSpec, seed) to the fault shim built
/// into SocketEndpoint — both run the identical FaultEngine decision
/// stream, so a chaos seed perturbs the same frames on either wire. The
/// clean endpoints live here so the decorators' moved-from sources stay
/// alive.
struct AttemptTransport {
  std::optional<net::Endpoint> end_a;
  std::optional<net::Endpoint> end_b;
  std::optional<net::FaultyEndpoint> faulty_a;
  std::optional<net::FaultyEndpoint> faulty_b;
  std::unique_ptr<net::SocketEndpoint> sock_a;
  std::unique_ptr<net::SocketEndpoint> sock_b;
  net::Endpoint* a = nullptr;
  net::Endpoint* b = nullptr;

  AttemptTransport(const TransportOptions& transport,
                   std::uint64_t fault_stream, std::size_t attempt) {
    const std::uint64_t seed_a = splitmix64(fault_stream, 2 * attempt);
    const std::uint64_t seed_b = splitmix64(fault_stream, 2 * attempt + 1);
    if (transport.kind == TransportKind::kSocketPair) {
      net::SocketOptions options_a;
      options_a.fault = transport.fault_a;
      options_a.fault_seed = seed_a;
      net::SocketOptions options_b;
      options_b.fault = transport.fault_b;
      options_b.fault_seed = seed_b;
      auto pair = net::make_socket_pair(options_a, options_b);
      sock_a = std::move(pair.first);
      sock_b = std::move(pair.second);
      a = sock_a.get();
      b = sock_b.get();
    } else {
      auto [clean_a, clean_b] = net::make_channel(transport.channel);
      end_a.emplace(std::move(clean_a));
      end_b.emplace(std::move(clean_b));
      a = &*end_a;
      b = &*end_b;
      if (transport.fault_a.any()) {
        faulty_a.emplace(std::move(*end_a), transport.fault_a, seed_a);
        a = &*faulty_a;
      }
      if (transport.fault_b.any()) {
        faulty_b.emplace(std::move(*end_b), transport.fault_b, seed_b);
        b = &*faulty_b;
      }
    }
    if (transport.recv_timeout.count() > 0) {
      const net::Deadline deadline =
          net::Deadline::after(transport.recv_timeout);
      a->set_recv_deadline(deadline);
      b->set_recv_deadline(deadline);
    }
  }
};

}  // namespace

SessionPool::SessionPool(const ClassificationServer& server,
                         const ClassificationClient& client,
                         ClassificationProfile profile, SchemeConfig config,
                         std::size_t threads)
    : server_(&server),
      client_(&client),
      profile_(std::move(profile)),
      config_(std::move(config)),
      pool_(threads) {}

std::vector<int> SessionPool::classify_batch(
    const std::vector<std::vector<double>>& samples, std::uint64_t seed,
    std::size_t chunk_size) {
  return classify_batch(samples, seed, chunk_size, TransportOptions{});
}

std::vector<int> SessionPool::classify_batch(
    const std::vector<std::vector<double>>& samples, std::uint64_t seed,
    std::size_t chunk_size, const TransportOptions& transport) {
  detail::require(!samples.empty(), "SessionPool: no samples");
  detail::require(chunk_size >= 1, "SessionPool: chunk_size must be >= 1");
  const std::size_t chunks = (samples.size() + chunk_size - 1) / chunk_size;

  // Each task is a complete two-party session; run_two_party_on supplies
  // the second thread, so even a single-worker pool cannot deadlock.
  std::vector<std::future<std::vector<int>>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(
        pool_.submit([this, &samples, seed, chunk_size, c, &transport] {
          const std::size_t begin = c * chunk_size;
          const std::size_t end = std::min(begin + chunk_size, samples.size());
          const std::vector<std::vector<double>> chunk(
              samples.begin() + static_cast<std::ptrdiff_t>(begin),
              samples.begin() + static_cast<std::ptrdiff_t>(end));
          const std::uint64_t fault_stream =
              splitmix64(transport.fault_seed, c);
          return run_with_retry(
              transport.retry, chunk_seed(seed, 2 * c),
              [&](std::size_t attempt) {
                AttemptTransport wires(transport, fault_stream, attempt);
                auto outcome = net::run_two_party_on(
                    *wires.a, *wires.b,
                    [&](net::Endpoint& channel) {
                      Rng rng(retry_attempt_seed(chunk_seed(seed, 2 * c),
                                                 attempt));
                      serve_session(*server_, profile_, config_, channel, rng);
                      return 0;
                    },
                    [&](net::Endpoint& channel) {
                      Rng rng(retry_attempt_seed(chunk_seed(seed, 2 * c + 1),
                                                 attempt));
                      return classify_session(*client_, profile_, config_,
                                              channel, chunk, rng);
                    });
                return std::move(outcome.b);
              });
        }));
  }

  std::vector<int> labels;
  labels.reserve(samples.size());
  for (auto& future : futures) {
    const std::vector<int> part = future.get();
    labels.insert(labels.end(), part.begin(), part.end());
  }
  return labels;
}

SimilaritySessionPool::SimilaritySessionPool(
    const SimilarityServer& server, const SimilarityClient& client,
    svm::Kernel kernel, DataSpace space, SchemeConfig config,
    std::size_t threads)
    : server_(&server),
      client_(&client),
      kernel_(std::move(kernel)),
      space_(space),
      config_(std::move(config)),
      pool_(threads) {}

std::vector<double> SimilaritySessionPool::evaluate_batch(std::size_t count,
                                                          std::uint64_t seed) {
  return evaluate_batch(count, seed, TransportOptions{});
}

std::vector<double> SimilaritySessionPool::evaluate_batch(
    std::size_t count, std::uint64_t seed, const TransportOptions& transport) {
  detail::require(count >= 1, "SimilaritySessionPool: count must be >= 1");
  std::vector<std::future<double>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool_.submit([this, seed, i, &transport] {
      const std::uint64_t fault_stream = splitmix64(transport.fault_seed, i);
      return run_with_retry(
          transport.retry, chunk_seed(seed, 2 * i), [&](std::size_t attempt) {
            AttemptTransport wires(transport, fault_stream, attempt);
            auto outcome = net::run_two_party_on(
                *wires.a, *wires.b,
                [&](net::Endpoint& channel) {
                  Rng rng(
                      retry_attempt_seed(chunk_seed(seed, 2 * i), attempt));
                  serve_similarity_session(*server_, kernel_, space_, config_,
                                           channel, rng);
                  return 0;
                },
                [&](net::Endpoint& channel) {
                  Rng rng(retry_attempt_seed(chunk_seed(seed, 2 * i + 1),
                                             attempt));
                  return evaluate_similarity_session(*client_, kernel_, space_,
                                                     config_, channel, rng);
                });
            return outcome.b;
          });
    }));
  }
  std::vector<double> values;
  values.reserve(count);
  for (auto& future : futures) values.push_back(future.get());
  return values;
}

}  // namespace ppds::core
