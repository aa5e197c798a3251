#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ppds/crypto/group.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/ompe/ompe.hpp"

/// \file config.hpp
/// Shared configuration of the two privacy-preserving schemes: which OMPE
/// backend, which OT engine, which security parameters. Both parties agree
/// on a SchemeConfig out of band (it contains only public parameters).

namespace ppds::core {

/// Which OT instantiation carries the k-out-of-M transfer. The values are
/// explicit because the protocol digests (core/session.hpp) hash the
/// ordinal: 0 belonged to the retired per-transfer Naor-Pinkas engine.
enum class OtEngine {
  kPrecomputed = 1,  ///< Naor-Pinkas amortized offline (DH batch or silent
                     ///< seed agreement); online transfers are hash+XOR
                     ///< only (the paper's precomputation remark)
  kLoopback = 2,     ///< trusted simulation, benchmark-only (no privacy!)
};

struct SchemeConfig {
  ompe::OmpeParams ompe;
  OtEngine ot_engine = OtEngine::kPrecomputed;
  crypto::GroupId group = crypto::GroupId::kModp1536;

  /// Silent-OT offline phase for OtEngine::kPrecomputed: one PPRF seed
  /// agreement replaces the per-batch DH exponentiations, and slot refills
  /// become 16-byte correction rows instead of group elements. CHANGES the
  /// wire format, so both parties must agree — it is hashed into the
  /// protocol digest (core/session.hpp).
  bool silent_precompute = false;

  /// Background pad-refill service (crypto/reservoir.hpp): expand silent-OT
  /// pads off the protocol thread. Purely local scheduling — never touches
  /// the wire (transcripts are bit-identical either way), so it is EXCLUDED
  /// from the protocol digest, like ompe.eval_threads.
  bool reservoir = false;

  /// Convenience presets. The default is private: the precomputed engine
  /// on a fresh per-session DH batch over MODP-1536, q=8, k=3.
  static SchemeConfig secure_default() { return SchemeConfig{}; }

  /// Fast preset for throughput experiments: loopback OT, smaller q/k.
  static SchemeConfig fast_simulation() {
    SchemeConfig cfg;
    cfg.ot_engine = OtEngine::kLoopback;
    cfg.ompe.q = 4;
    cfg.ompe.k = 2;
    return cfg;
  }

  /// Silent-precompute preset: fast_simulation's OMPE shape with the
  /// precomputed engine running the PPRF offline phase.
  static SchemeConfig silent() {
    SchemeConfig cfg = fast_simulation();
    cfg.ot_engine = OtEngine::kPrecomputed;
    cfg.silent_precompute = true;
    return cfg;
  }
};

/// One homogeneous block of precomputed-OT demand: \p count direct
/// 1-of-\p arity slots (arity 2 doubles as the bit-decomposition slot
/// type). See ot_demand_per_query().
struct OtDemand {
  std::size_t arity = 2;
  std::size_t count = 0;
};

/// Which side of the transfers a protocol role plays.
enum class OtRole { kSender, kReceiver };

/// The one owner of a party's OT state. A bundle builds only the engine of
/// the role it is used as (sender() or receiver(), on first call), so a
/// server's bundle never holds, attaches or aborts a receiver it has no use
/// for. Precomputed engines run over the process-wide shared_group(), so
/// the fixed-base generator table is built once and stays warm across
/// sessions.
///
/// For OtEngine::kPrecomputed the engines refill their slot pools on
/// demand; calling prepare_sender() on the sender side while the receiver
/// concurrently calls prepare_receiver() (same demand, see
/// ot_demand_per_query()) front-loads a whole session's offline phase into
/// one batched round trip per distinct slot arity.
///
/// Scope: a session builds its own bundle (run_ot_session()) unless the
/// caller lends one; for_connection() decides which connections keep one.
class OtBundle {
 public:
  /// \p rng must outlive the bundle: the engines draw from it whenever they
  /// run (seed agreements, refills, transfers).
  OtBundle(const SchemeConfig& cfg, Rng& rng);
  ~OtBundle();

  /// The connection-scope rule, for every keep-alive client and server:
  /// silent configs keep one bundle per connection, so the base-OT seed
  /// agreement runs on the connection's first session and later sessions
  /// draw from the persistent pad ledger; every other config returns
  /// nullptr and its sessions build their own bundles. The bundle attaches
  /// to \p shared when given, else to a one-worker PadReservoir it owns
  /// when cfg.reservoir is set. Nothing is built until first use, so a
  /// server can call this at accept. \p rng as in the constructor.
  static std::unique_ptr<OtBundle> for_connection(
      const SchemeConfig& cfg, Rng& rng,
      crypto::PadReservoir* shared = nullptr);

  /// Offline phase (no-op unless engine == kPrecomputed): reserves every
  /// (arity, count) block, merging duplicate arities, with \p repeat scaling
  /// a per-query demand to a whole batch. Both sides must pass the same
  /// demands in the same order.
  void prepare_sender(net::Endpoint& channel,
                      std::span<const OtDemand> demands,
                      std::size_t repeat = 1);
  void prepare_receiver(net::Endpoint& channel,
                        std::span<const OtDemand> demands,
                        std::size_t repeat = 1);

  /// Fails the bundle closed after a mid-protocol error: wipes and poisons
  /// the precomputed OT slot pools of every engine built so far (see
  /// BatchedOtSender::abort — a half-consumed batch must never be resumed).
  /// Safe to call for every engine; the loopback engine has nothing to
  /// discard.
  void abort() noexcept;

  /// Hooks the silent engine of every role, built now or later (if
  /// cfg.silent_precompute), to a background refill reservoir that must
  /// outlive the bundle. The engines detach when destroyed.
  void attach_reservoir(crypto::PadReservoir& reservoir);

  crypto::OtSender& sender();
  crypto::OtReceiver& receiver();

 private:
  SchemeConfig cfg_;
  Rng& rng_;
  /// Set by for_connection() only; declared before the engines so it stops
  /// after they have detached.
  std::unique_ptr<crypto::PadReservoir> owned_reservoir_;
  crypto::PadReservoir* reservoir_ = nullptr;
  std::unique_ptr<crypto::OtSender> sender_;
  std::unique_ptr<crypto::OtReceiver> receiver_;
  /// Non-owning views into sender_/receiver_ when engine == kPrecomputed.
  crypto::BatchedOtSender* batched_sender_ = nullptr;
  crypto::BatchedOtReceiver* batched_receiver_ = nullptr;
};

/// The fail-closed OT lifecycle of one protocol session, shared by every
/// role: borrows \p external (a connection's bundle) or builds a bundle for
/// this session, enters Stage::kOtSetup, reserves \p demands x \p repeat
/// for \p role, and runs \p body(bundle). Any throw aborts the bundle
/// before it propagates: the two sides may disagree on how much correlated
/// randomness was consumed, so none of it may be resumed.
template <typename Body>
decltype(auto) run_ot_session(const SchemeConfig& cfg, OtRole role,
                              net::Endpoint& channel, Rng& rng,
                              OtBundle* external,
                              std::span<const OtDemand> demands,
                              std::size_t repeat, Body&& body) {
  std::optional<OtBundle> local;
  OtBundle& ot = external != nullptr ? *external : local.emplace(cfg, rng);
  channel.set_stage(net::Stage::kOtSetup);
  try {
    if (role == OtRole::kSender) {
      ot.prepare_sender(channel, demands, repeat);
    } else {
      ot.prepare_receiver(channel, demands, repeat);
    }
    return body(ot);
  } catch (...) {
    ot.abort();
    throw;
  }
}

/// Demand one OMPE evaluation places on the precomputed-OT pools: m direct
/// 1-of-M slots when M fits the direct bound (one offline exponentiation
/// per transfer), else the bit-decomposition fallback, where the m-out-of-M
/// transfer runs m 1-out-of-M rounds of crypto::index_bits(M) arity-2 key
/// transfers each.
std::vector<OtDemand> ot_demand_per_query(const ompe::OmpeParams& params,
                                          unsigned degree);

}  // namespace ppds::core
