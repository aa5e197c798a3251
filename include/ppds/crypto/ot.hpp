#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "ppds/common/bytes.hpp"
#include "ppds/common/error.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/common/secret_taint.hpp"
#include "ppds/crypto/group.hpp"
#include "ppds/net/channel.hpp"

/// \file ot.hpp
/// The oblivious-transfer stack of Section III-B, bottom-up:
///
///   offline     — Naor-Pinkas over a DH group (semi-honest), amortized:
///                 one round trip fills a batch of random-pad 1-out-of-n
///                 slots (precompute_ot_*), or seeds the silent PPRF
///                 engine (crypto/silent_ot.hpp).
///   1-out-of-n  — one direct slot per transfer up to kMaxDirectArity;
///                 past it, the bit-decomposition key construction: the
///                 sender draws 2*ceil(log2 n) pad keys, encrypts message
///                 i under the hash of the keys selected by i's bits, and
///                 each key moves over one arity-2 slot.
///   k-out-of-n  — k parallel 1-out-of-n instances (sufficient for the
///                 honest-but-curious model the paper assumes).
///
/// All protocols speak over a net::Endpoint so every run has an exact,
/// countable wire footprint. Two engines implement the same interface:
///
///   BatchedOt*  — the real cryptographic instantiation: precomputed slots
///                 from the DH batch or the silent engine, online hash/XOR.
///   Loopback*   — a trusted-simulation engine that transfers the selected
///                 messages directly. It provides NO privacy and exists so
///                 large benches can isolate the algebraic OMPE cost from
///                 public-key OT cost (the paper does not specify its OT
///                 implementation; we report both regimes).

namespace ppds::crypto {

/// Sender half of a k-out-of-n OT engine.
class OtSender {
 public:
  virtual ~OtSender() = default;

  /// Transfers k of the n = messages.size() byte strings; which k is the
  /// receiver's secret. All messages must have equal length.
  virtual void send(net::Endpoint& channel,
                    std::span<const Bytes> messages, std::size_t k) = 0;
};

/// Receiver half of a k-out-of-n OT engine.
class OtReceiver {
 public:
  virtual ~OtReceiver() = default;

  /// Retrieves messages at the (strictly increasing) \p indices out of n.
  virtual std::vector<Bytes> receive(net::Endpoint& channel,
                                     std::span<const std::size_t> indices,
                                     std::size_t n,
                                     std::size_t message_len) = 0;
};

/// --- Loopback (trusted simulation) engine ----------------------------------

/// Benchmark-only sender: ships all n messages; the receiver-side object
/// picks locally. Wire cost equals n * len (an upper bound on any real OT),
/// privacy is NOT provided. Never use outside performance studies.
class LoopbackSender : public OtSender {
 public:
  void send(net::Endpoint& channel, std::span<const Bytes> messages,
            std::size_t k) override;
};

class LoopbackReceiver : public OtReceiver {
 public:
  std::vector<Bytes> receive(net::Endpoint& channel,
                             std::span<const std::size_t> indices,
                             std::size_t n, std::size_t message_len) override;
};

/// --- OT precomputation (Beaver) ---------------------------------------------
///
/// Runs the expensive public-key OTs offline on random pads with random
/// choice bits; the online phase per 1-out-of-2 OT is two XORs and one bit
/// of correction. This implements the paper's remark that the cost "can be
/// further reduced by generating random polynomials before the scheme" in
/// its OT analogue, and feeds the ablation bench.
///
/// The offline phase is BATCHED and AMORTIZED (Naor-Pinkas SODA'01 style):
/// the sender reuses one (C_1..C_{n-1}, r) tuple across all N slots of a
/// batch, ships `C_1 || ... || C_{n-1} || g^r` once, the receiver answers
/// with all N blinded public keys in one bundle, and both sides derive the
/// random pads from hashed DH shared secrets with a per-slot domain-
/// separation tag — one round trip and one full exponentiation per slot
/// instead of the 3 messages and ~6 exponentiations of a per-transfer
/// Naor-Pinkas 1-out-of-2 OT. Fixed-base tables
/// (group.hpp) serve every g^x, the sender's inverse shares run through one
/// Montgomery batch inversion, and the receiver builds a per-batch table
/// for g^r.
///
/// Slots are 1-out-of-ARITY: a direct 1-of-n slot holds n pads of which the
/// receiver knows exactly one, so one n-message transfer consumes ONE slot
/// (one offline exponentiation) instead of the ceil(log2 n) arity-2 slots
/// the bit-decomposition construction needs. Arity 2 is the legacy Beaver
/// 1-out-of-2 slot.

/// Offline artifact held by the sender: one random pad per possible choice
/// index (Beaver correlated randomness — taint roots for the analyzer).
/// The slot's arity is pads.size().
struct PrecomputedSendSlot {
  PPDS_SECRET std::vector<Bytes> pads;
};

/// Offline artifact held by the receiver: its random choice in [0, arity)
/// and the matching pad. The arity itself is public protocol shape.
struct PrecomputedRecvSlot {
  PPDS_SECRET std::uint32_t choice = 0;
  PPDS_SECRET Bytes pad;
  std::uint32_t arity = 2;
};

/// Zeroes a slot's pads (and the receiver's choice) in place.
void wipe_slot(PrecomputedSendSlot& slot);
void wipe_slot(PrecomputedRecvSlot& slot);

/// Abort-audit scan: true when every pad byte of \p slot is zero.
bool slot_clean(const PrecomputedSendSlot& slot);
bool slot_clean(const PrecomputedRecvSlot& slot);

/// Largest arity served by direct 1-of-n precomputed slots (the online
/// correction shift must fit one byte). Larger transfers fall back to bit
/// decomposition over arity-2 slots.
inline constexpr std::size_t kMaxDirectArity = 256;

/// Number of 1-out-of-2 key transfers a 1-out-of-n OT needs: ceil(log2 n)
/// (0 when n == 1, where the single message is sent directly).
std::size_t index_bits(std::size_t n);

// Silent-OT machinery (crypto/silent_ot.hpp, crypto/reservoir.hpp) — kept
// behind forward declarations so the base OT header stays cycle-free.
class SilentPadSender;
class SilentPadReceiver;
class PadReservoir;

/// Runs \p count offline 1-out-of-\p arity OTs of \p pad_len-byte random
/// pads in ONE channel round trip (amortized base phase, pads derived from
/// hashed DH secrets; pad_len <= 32, 2 <= arity <= kMaxDirectArity).
/// Returns the sender-side slots; receiver-side slots come out of the
/// matching call on the other thread.
std::vector<PrecomputedSendSlot> precompute_ot_sender(
    net::Endpoint& channel, const DhGroup& group, std::size_t count,
    std::size_t pad_len, Rng& rng, std::size_t arity = 2);

std::vector<PrecomputedRecvSlot> precompute_ot_receiver(
    net::Endpoint& channel, const DhGroup& group, std::size_t count,
    std::size_t pad_len, Rng& rng, std::size_t arity = 2);

/// Process-wide abort-and-wipe audit. Every BatchedOt{Sender,Receiver}::
/// abort() increments `aborts` and — when the post-wipe pool_wiped() scan
/// comes back clean — `wiped`. A supervisor (the daemon tests, an operator
/// reading ppdsd's shutdown stats) asserts wiped == aborts to PROVE that
/// every mid-protocol failure in the process zeroed its pad pools, without
/// reaching into engines owned by other threads' dead sessions.
///
/// Silent engines additionally report their GGM state from their own
/// abort(): `frontier_wipes` counts aborts whose post-wipe frontier scan
/// (every tree root seed zeroed, the column-choice mask zeroed) came back
/// clean, and `reservoir_wipes` counts aborts whose staged correction
/// bytes, pre-expanded row material and unconsumed pads all scanned zero —
/// with the background refill thread racing the abort. Disconnect tests
/// assert both equal the number of silent-engine aborts.
struct OtAbortAudit {
  std::atomic<std::uint64_t> aborts{0};
  std::atomic<std::uint64_t> wiped{0};
  std::atomic<std::uint64_t> frontier_wipes{0};
  std::atomic<std::uint64_t> reservoir_wipes{0};
};

OtAbortAudit& ot_abort_audit();

/// --- Slot sources ------------------------------------------------------------
///
/// The seam between the batched facade below and its offline phase. A
/// source hands out precomputed slots of any arity and tops its per-arity
/// pools up over the channel. Two sources exist: the amortized DH batches
/// above (precompute_ot_*) and the silent PPRF engine
/// (crypto/silent_ot.hpp). Every count a source reports is protocol-
/// deterministic: both parties see the same level after the same calls.

/// Which offline phase fills a BatchedOt{Sender,Receiver}'s slots.
enum class OtOffline {
  kDhBatch,  ///< one amortized Naor-Pinkas round trip per top-up
  kSilent,   ///< one PPRF seed agreement, then 16-byte correction rows
};

/// Smallest DH-batch auto top-up, in slots. A protocol constant: both
/// parties derive every top-up size from it and the transfer shape.
inline constexpr std::size_t kDhTopUpSlots = 128;

template <typename Slot>
class SlotSource {
 public:
  virtual ~SlotSource() = default;

  /// One-time setup on first use (the silent seed agreement); no-op once
  /// run, and always for the DH batch.
  virtual void ensure_ready(net::Endpoint& channel) = 0;

  /// Ensures at least \p count unconsumed arity-\p arity slots; the peer's
  /// source mirrors the call.
  virtual void stage_to(net::Endpoint& channel, std::size_t arity,
                        std::size_t count) = 0;

  /// Auto top-up before a transfer that consumes \p need arity-\p arity
  /// slots. Each source keeps its own rule (part of its wire format).
  virtual void top_up(net::Endpoint& channel, std::size_t arity,
                      std::size_t need) = 0;

  /// Pops one staged slot. The caller wipes it after use.
  virtual Slot take(std::size_t arity) = 0;

  /// Unconsumed slots of one arity / of every arity, read under the
  /// source's lock (coherent against a background refill).
  virtual std::size_t available(std::size_t arity) const = 0;
  virtual std::size_t available_total() const = 0;

  /// Wipes every unconsumed pad in place; nothing staged is left to take.
  virtual void abort() noexcept = 0;

  /// Abort-audit scan: true when no live pad byte is left.
  virtual bool pads_clean() const = 0;

  /// Hooks a background refill reservoir (the DH batch has no background
  /// work and ignores it).
  virtual void attach_reservoir(PadReservoir* /*reservoir*/) {}
  virtual void detach_reservoir() noexcept {}
};

/// --- Batched session facade --------------------------------------------------
///
/// OtSender/OtReceiver implementation over exactly one slot source, chosen
/// at construction: reserve() tops a pool up for a whole classification
/// session in one round trip, and send()/receive() top up symmetrically
/// (both sides derive the same need from the transfer shape) if a session
/// outruns its reservation. An n-message transfer with n <=
/// kMaxDirectArity consumes one direct arity-n slot; larger transfers fall
/// back to bit decomposition over arity-2 slots.

/// The half both roles share: the source and its bookkeeping.
template <typename Slot>
class BatchedOt {
 public:
  /// Ensures at least \p count unconsumed arity-\p arity slots, topping up
  /// in one round trip (the peer must mirror with its own reserve()).
  void reserve(net::Endpoint& channel, std::size_t arity, std::size_t count) {
    check_live();
    source_->ensure_ready(channel);
    source_->stage_to(channel, arity, count);
  }

  /// Poisons the engine after a failed round trip: wipes every precomputed
  /// pad IN PLACE and refuses all further use (ProtocolError). Correlated
  /// randomness must never be resumed once the two sides may disagree on
  /// how much of it was consumed — a retried query runs on a FRESH engine.
  void abort() noexcept {
    source_->abort();
    aborted_ = true;
    ot_abort_audit().aborts.fetch_add(1);
    if (pool_wiped()) ot_abort_audit().wiped.fetch_add(1);
  }

  bool aborted() const { return aborted_; }

  /// Abort-audit hook: true when every pad byte in every pool is zero (the
  /// post-abort hygiene check of the chaos tests reads this instead of
  /// poking freed memory).
  bool pool_wiped() const { return source_->pads_clean(); }

  /// Unconsumed slots of every arity / of one arity: one snapshot under
  /// the source's lock, never a lock-free sum racing a background refill.
  /// The silent engine reports its staged/consumed LEDGER (the protocol-
  /// deterministic quantity), not the locally-timed expansion level.
  std::size_t available_slots() const { return source_->available_total(); }
  std::size_t available_slots(std::size_t arity) const {
    return source_->available(arity);
  }

  /// Hooks the silent engine to a background reservoir (no-op for the DH
  /// batch). detach_reservoir() blocks until the reservoir's workers have
  /// left the engine; the destructor detaches automatically.
  void attach_reservoir(PadReservoir& reservoir) {
    source_->attach_reservoir(&reservoir);
  }
  void detach_reservoir() noexcept { source_->detach_reservoir(); }

 protected:
  BatchedOt(Rng& rng, std::unique_ptr<SlotSource<Slot>> source)
      : rng_(rng), source_(std::move(source)) {}

  void check_live() const {
    if (aborted_) throw ProtocolError("ot: aborted engine cannot be resumed");
  }

  Rng& rng_;
  std::unique_ptr<SlotSource<Slot>> source_;

 private:
  bool aborted_ = false;
};

class BatchedOtSender : public OtSender,
                        public BatchedOt<PrecomputedSendSlot> {
 public:
  BatchedOtSender(const DhGroup& group, Rng& rng,
                  OtOffline offline = OtOffline::kDhBatch);

  void send(net::Endpoint& channel, std::span<const Bytes> messages,
            std::size_t k) override;

  /// The silent engine behind an OtOffline::kSilent facade (nullptr for
  /// the DH batch): its frontier scan and expansion counters.
  SilentPadSender* silent_engine();
};

class BatchedOtReceiver : public OtReceiver,
                          public BatchedOt<PrecomputedRecvSlot> {
 public:
  BatchedOtReceiver(const DhGroup& group, Rng& rng,
                    OtOffline offline = OtOffline::kDhBatch);

  std::vector<Bytes> receive(net::Endpoint& channel,
                             std::span<const std::size_t> indices,
                             std::size_t n, std::size_t message_len) override;

  /// See BatchedOtSender::silent_engine().
  SilentPadReceiver* silent_engine();
};

/// Online phase: consumes one precomputed slot per transfer. The receiver
/// announces the public shift s = (index - choice) mod n, the sender
/// answers with all n messages each XORed with the pad the shift aligns to
/// the receiver's one known pad — 1 byte up, n * len bytes down, no
/// public-key operations.
void precomputed_send_1ofn(net::Endpoint& channel,
                           const PrecomputedSendSlot& slot,
                           std::span<const Bytes> messages);

Bytes precomputed_receive_1ofn(net::Endpoint& channel,
                               const PrecomputedRecvSlot& slot,
                               std::size_t index, std::size_t message_len);

/// Arity-2 wrappers (byte-compatible with the legacy Beaver online phase).
void precomputed_send_1of2(net::Endpoint& channel,
                           const PrecomputedSendSlot& slot, const Bytes& m0,
                           const Bytes& m1);

Bytes precomputed_receive_1of2(net::Endpoint& channel,
                               const PrecomputedRecvSlot& slot,
                               PPDS_SECRET bool choice);

}  // namespace ppds::crypto
