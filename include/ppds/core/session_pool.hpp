#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "ppds/common/thread_pool.hpp"
#include "ppds/core/session.hpp"
#include "ppds/net/fault.hpp"

/// \file session_pool.hpp
/// Parallel session layer: runs many independent two-party sessions
/// concurrently on a ThreadPool.
///
/// One session is inherently sequential (its messages form a chain), so
/// multi-query throughput comes from running whole SESSIONS in parallel:
/// classify_batch() partitions the samples into fixed-size chunks and runs
/// one complete session (handshake + queries) per chunk. Chunk boundaries
/// and per-chunk RNG seeds depend only on (seed, chunk_size) — never on the
/// thread count — so results are bit-identical across pool sizes, which the
/// determinism tests pin down.
///
/// The crypto layer is shared safely: DhGroup is logically immutable (its
/// lazy fixed-base table is built under std::call_once), and every session
/// gets its own Rng, OtBundle and channel.

namespace ppds::core {

/// SplitMix64-mixed per-chunk seed: decorrelates chunk RNG streams even for
/// adjacent (seed, stream) inputs.
std::uint64_t chunk_seed(std::uint64_t seed, std::uint64_t stream);

/// Whole-session retry policy. A failed session (any ProtocolError:
/// timeout, fault-corrupted frame, closed channel, backpressure) is
/// discarded entirely — its channels, its OT precompute, its randomness —
/// and re-run from the handshake with FRESH per-attempt randomness. This is
/// safe because every OMPE evaluation draws fresh amplifiers, masks and
/// covers: a retried query reveals nothing beyond what one clean run
/// reveals (docs/PROTOCOL.md §7; resuming a half-consumed session would
/// not be). Attempt 0 uses exactly the original per-chunk seeds, so a
/// policy with max_attempts == 1 is bit-identical to no retry layer at all.
struct RetryPolicy {
  std::size_t max_attempts = 1;  ///< 1 = fail on first error
  std::chrono::milliseconds backoff{0};  ///< sleep before attempt n >= 1
  double backoff_multiplier = 2.0;       ///< exponential growth per attempt
  /// Deterministic jitter: the backoff is scaled by a factor in
  /// [1 - jitter, 1 + jitter] drawn from a SplitMix64 stream over the
  /// session seed (reproducible, unlike wall-clock-seeded jitter).
  double jitter = 0.0;
};

/// Per-attempt RNG seed: attempt 0 uses \p base EXACTLY (a fault-free run
/// is bit-identical to no retry layer at all, which the determinism tests
/// pin); attempts n >= 1 derive fresh decorrelated streams — a retried
/// session re-randomizes everything, because resuming or replaying
/// half-consumed OT randomness would be a privacy hole, not a retry.
std::uint64_t retry_attempt_seed(std::uint64_t base, std::size_t attempt);

/// Exponential backoff with deterministic SplitMix64 jitter for attempt
/// n >= 1: a PURE function of (policy, attempt, jitter_stream), so a
/// failover client's backoff schedule is reproducible from its seed —
/// unlike wall-clock-seeded jitter, a chaos run replays its exact delays.
std::chrono::milliseconds retry_backoff(const RetryPolicy& retry,
                                        std::size_t attempt,
                                        std::uint64_t jitter_stream);

/// Which wire a pool's per-session channels run over.
enum class TransportKind {
  kInProcess,   ///< simulated duplex queues (net::make_channel)
  kSocketPair,  ///< real AF_UNIX stream sockets (net::make_socket_pair)
};

/// Transport configuration of the per-session channels a pool creates:
/// queue bounds, a receive deadline, optional deterministic fault injection
/// (chaos tests), and the retry policy.
struct TransportOptions {
  /// kSocketPair moves every frame through the kernel instead of the
  /// in-process queues — same framing, same validation, same fault-decision
  /// streams (net::FaultEngine), so the whole chaos matrix reruns over real
  /// file descriptors by flipping this one knob. `channel` queue bounds then
  /// do not apply (the kernel socket buffer is the queue).
  TransportKind kind = TransportKind::kInProcess;
  net::ChannelOptions channel;
  /// recv() deadline measured from session-attempt start; zero blocks
  /// forever. A silent peer (e.g. its frame was dropped) then surfaces as
  /// TimeoutError instead of a hang.
  std::chrono::milliseconds recv_timeout{0};
  /// Faults injected into party A's (server's) / party B's (client's)
  /// outgoing frames. Default: none.
  net::FaultSpec fault_a;
  net::FaultSpec fault_b;
  /// Seed of the fault-decision streams; every (chunk, attempt, direction)
  /// derives its own SplitMix64 stream from it, so runs reproduce exactly.
  std::uint64_t fault_seed = 0;
  RetryPolicy retry;
};

/// Runs classification sessions (one server + one client pair per chunk)
/// over an owned ThreadPool.
class SessionPool {
 public:
  /// \p server and \p client must outlive the pool and agree on
  /// (\p profile, \p config) — sessions fail their handshake otherwise.
  SessionPool(const ClassificationServer& server,
              const ClassificationClient& client,
              ClassificationProfile profile, SchemeConfig config,
              std::size_t threads = ThreadPool::default_concurrency());

  /// Classifies all samples, \p chunk_size queries per session. Returns
  /// labels in input order; deterministic given \p seed (thread-count
  /// independent).
  std::vector<int> classify_batch(
      const std::vector<std::vector<double>>& samples, std::uint64_t seed,
      std::size_t chunk_size = 8);

  /// As above, over explicitly configured transport: bounded channels,
  /// receive deadlines, deterministic fault injection, and whole-session
  /// retry (see TransportOptions). With the default options this is
  /// identical to the plain overload.
  std::vector<int> classify_batch(
      const std::vector<std::vector<double>>& samples, std::uint64_t seed,
      std::size_t chunk_size, const TransportOptions& transport);

  std::size_t threads() const { return pool_.size(); }

 private:
  const ClassificationServer* server_;
  const ClassificationClient* client_;
  ClassificationProfile profile_;
  SchemeConfig config_;
  ThreadPool pool_;
};

/// Runs independent similarity evaluations (one full session each) in
/// parallel. Each evaluation compares the same two models, so this measures
/// repeated-evaluation throughput (and exercises concurrency); results are
/// deterministic in input order given \p seed.
class SimilaritySessionPool {
 public:
  SimilaritySessionPool(const SimilarityServer& server,
                        const SimilarityClient& client, svm::Kernel kernel,
                        DataSpace space, SchemeConfig config,
                        std::size_t threads = ThreadPool::default_concurrency());

  std::vector<double> evaluate_batch(std::size_t count, std::uint64_t seed);

  /// As above over explicitly configured transport (see TransportOptions).
  std::vector<double> evaluate_batch(std::size_t count, std::uint64_t seed,
                                     const TransportOptions& transport);

  std::size_t threads() const { return pool_.size(); }

 private:
  const SimilarityServer* server_;
  const SimilarityClient* client_;
  svm::Kernel kernel_;
  DataSpace space_;
  SchemeConfig config_;
  ThreadPool pool_;
};

}  // namespace ppds::core
