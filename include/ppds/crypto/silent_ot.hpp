#pragma once

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "ppds/common/bytes.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/common/secret_taint.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/crypto/pprf.hpp"
#include "ppds/crypto/prg.hpp"

/// \file silent_ot.hpp
/// Silent OT precompute: a KK13-style OT extension that replaces the
/// batched DH offline phase (one full exponentiation and one group element
/// of bandwidth PER SLOT) with PPRF-expanded correlated keystreams.
///
/// One-round-trip seed agreement: the pad-SENDER plays base-OT *receiver*
/// for kSilentColumns 1-of-2 transfers of 32-byte seeds (role flip), so it
/// ends up with one GGM root per column j plus the secret choice bit
/// Delta_j; the pad-RECEIVER plays base-OT sender and keeps BOTH roots
/// (k0_j, k1_j). That single amortized handshake — O(columns) = O(log
/// domain) seeds, since the 2^depth-leaf trees cover kSilentRowsPerLeaf *
/// 2^depth pad slots — is the only public-key work for the engine's entire
/// lifetime.
///
/// Per pad slot (row r, arity n):
///   receiver: draws secret alpha_r in [0, n), sends the 16-byte correction
///             u_r = t0_r XOR t1_r XOR C(alpha_r); its pad is
///             H(r, t0_r).
///   sender:   Q_r = t^{Delta}_r XOR (Delta AND u_r) = t0_r XOR
///             (C(alpha_r) AND Delta); pad v is H(r, Q_r XOR (C(v) AND
///             Delta)), which matches the receiver's at v = alpha_r and
///             costs 2^64 guesses of Delta elsewhere (the RM(1,7) code has
///             distance 64; see docs/PROTOCOL.md).
///
/// The column streams t^b_j are the leaves of per-column GgmTrees expanded
/// frontier-style in blocks, so refills are PRG+hash work a background
/// PadReservoir performs off the protocol thread; the wire carries only the
/// deterministic correction blocks, sized by the shared staged/consumed
/// ledger — never by locally-timed pool levels — so transcripts are
/// independent of reservoir scheduling.

namespace ppds::crypto {

/// Number of base OTs / keystream columns. 128 columns with the RM(1,7)
/// codeword set (256 codewords, minimum distance 64) serve every direct
/// slot arity in [2, kMaxDirectArity].
inline constexpr std::size_t kSilentColumns = 128;
inline constexpr std::size_t kSilentRowBytes = kSilentColumns / 8;

/// One 32-byte GGM leaf carries 256 rows of one column's keystream.
inline constexpr std::size_t kSilentRowsPerLeaf = 256;

/// Tree depth: 2^16 leaves * 256 rows = ~16.7M pad slots per engine
/// lifetime; exhausting the domain fails closed (ProtocolError).
inline constexpr unsigned kSilentTreeDepth = 16;

/// Correction blocks are staged in multiples of this many rows — a
/// PROTOCOL constant: both sides derive identical block sizes from the
/// ledger.
inline constexpr std::size_t kSilentStageQuantum = 128;

/// Ledger lead maintained ahead of consumption so the background expander
/// has runway; also a protocol constant for the same reason.
inline constexpr std::size_t kSilentLeadSlots = 16;

/// Per-arity pool level the background reservoir refills against. Local
/// scheduling only: it never changes the wire.
inline constexpr std::size_t kSilentLowWater = 16;

using SilentRow = std::array<std::uint8_t, kSilentRowBytes>;

/// RM(1,7) codeword of \p v: bit j = parity((v & 127) & j) XOR (v >> 7).
/// Branch-free and table-free, so safe to evaluate on a SECRET index (the
/// receiver's choice alpha) without a data-dependent memory access.
SilentRow silent_codeword_ct(std::uint32_t v);

/// Cached codeword table — PUBLIC indices only (the sender's pads loop).
const std::array<SilentRow, kMaxDirectArity>& silent_codewords();

class PadReservoir;

/// One unit of background work the PadReservoir can drive. Implementations
/// are internally synchronized; refill_step() never touches a channel.
class RefillTarget {
 public:
  virtual ~RefillTarget() = default;

  /// Performs one block of expansion work. Returns false when nothing was
  /// pending (the reservoir then sleeps until kicked).
  virtual bool refill_step() = 0;

  /// Cheap (locking) check whether refill_step() has work.
  virtual bool needs_refill() = 0;
};

/// --- Shared half -------------------------------------------------------------

/// What both silent halves share: the engine lock, the per-arity
/// staged/consumed ledger, the finished-slot pools and the reservoir hook.
/// Instantiated for PrecomputedSendSlot and PrecomputedRecvSlot only.
template <typename Slot>
class SilentEngine : public RefillTarget, public SlotSource<Slot> {
 public:
  SilentEngine(const SilentEngine&) = delete;
  SilentEngine& operator=(const SilentEngine&) = delete;

  /// Short of \p need + kSilentLeadSlots: stage to exactly that. Keyed on
  /// the shared ledger and protocol constants, never on pool levels, so
  /// both sides stage identically whatever the reservoir's timing.
  void top_up(net::Endpoint& channel, std::size_t arity,
              std::size_t need) override;

  /// Slots staged on the wire ledger and not yet consumed (the
  /// protocol-deterministic quantity reserve() sizes from).
  std::size_t available(std::size_t arity) const override;
  std::size_t available_total() const override;

  /// Slots fully expanded and ready for take() without any work.
  std::size_t expanded_available(std::size_t arity) const;

  void attach_reservoir(PadReservoir* reservoir) override;
  void detach_reservoir() noexcept override;

  /// Wipes every live secret (GGM frontiers, the sender's column-choice
  /// mask, staged corrections or pre-expanded rows, unconsumed pads) and
  /// poisons the engine. Feeds the audit's frontier_wipes /
  /// reservoir_wipes from the post-wipe scans.
  void abort() noexcept override;

  /// Post-abort hygiene scan (audit hook): every GGM root seed zeroed.
  virtual bool frontier_clean() const = 0;

  /// Times the protocol thread had to expand synchronously (cold path);
  /// zero when a warm reservoir keeps up.
  std::uint64_t sync_expansions() const;

 protected:
  SilentEngine(const DhGroup& group, Rng& rng) : group_(group), rng_(rng) {}

  struct Ledger {
    std::size_t arity = 2;
    std::size_t staged = 0;
    std::size_t consumed = 0;
  };
  struct Pool {
    std::size_t arity = 2;
    std::deque<Slot> slots;
  };

  Ledger& ledger_for(std::size_t arity);
  Pool& pool_for(std::size_t arity);
  /// Pops the oldest finished slot; the caller's ledger check guarantees
  /// one is there. mu_ held.
  static Slot pop_slot(Pool& pool);
  void kick_reservoir();
  /// The role's share of abort() and of destruction; mu_ held, no
  /// expansion in flight.
  virtual void wipe_secrets_locked() = 0;
  /// Destructor body of both roles: detach, then wipe.
  void shut_down() noexcept;
  /// Zeroes every unconsumed slot and leaves nothing staged to consume;
  /// mu_ held.
  void wipe_pools_locked();
  /// True when every pooled pad is zero; mu_ held.
  bool pools_clean_locked() const;

  const DhGroup& group_;
  Rng& rng_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool busy_ = false;
  bool ready_ = false;
  bool aborted_ = false;
  PadReservoir* reservoir_ = nullptr;

  std::uint64_t next_row_ = 0;
  std::vector<Ledger> ledgers_;
  std::vector<Pool> pools_;

  std::uint64_t sync_expansions_ = 0;
};

/// --- Sender half -------------------------------------------------------------

class SilentPadSender : public SilentEngine<PrecomputedSendSlot> {
 public:
  SilentPadSender(const DhGroup& group, Rng& rng);
  ~SilentPadSender() override;

  /// One-round-trip seed agreement (lazy; protocol thread). No-op once run.
  void ensure_ready(net::Endpoint& channel) override;

  /// Protocol thread: receives correction blocks until the ledger covers
  /// \p count unconsumed arity-\p arity slots. Pure bookkeeping + recv —
  /// the expansion happens in refill_step() (or lazily in take()).
  void stage_to(net::Endpoint& channel, std::size_t arity,
                std::size_t count) override;

  /// Protocol thread: pops one finished slot (ledger must cover it). Waits
  /// for the reservoir when attached, expands inline otherwise.
  PrecomputedSendSlot take(std::size_t arity) override;

  // RefillTarget:
  bool refill_step() override;
  bool needs_refill() override;

  bool frontier_clean() const override;
  /// Every staged correction byte and unconsumed pad zeroed.
  bool pads_clean() const override;

  /// Times take() had to sleep for the background expander.
  std::uint64_t take_waits() const;

 private:
  struct PendingBlock {
    std::size_t arity = 2;
    std::uint64_t first_row = 0;
    std::size_t count = 0;
    PPDS_SECRET Bytes u;  ///< count * kSilentRowBytes correction bytes
  };

  /// Expands \p block into finished slots (pure PRG+hash; call UNLOCKED —
  /// reads only the immutable-after-setup trees).
  std::vector<PrecomputedSendSlot> expand_block(const PendingBlock& block) const;
  /// Pops + expands the oldest pending block; \p lk held on entry and exit.
  void expand_front_locked(std::unique_lock<std::mutex>& lk);
  void wipe_secrets_locked() override;

  /// Per-column keystream trees t^{Delta_j}_j and the secret column choice
  /// mask Delta (the sender's correlation secret).
  std::vector<GgmTree> trees_;
  PPDS_SECRET SilentRow delta_{};

  std::deque<PendingBlock> pending_;
  std::uint64_t take_waits_ = 0;
};

/// --- Receiver half -----------------------------------------------------------

class SilentPadReceiver : public SilentEngine<PrecomputedRecvSlot> {
 public:
  SilentPadReceiver(const DhGroup& group, Rng& rng);
  ~SilentPadReceiver() override;

  void ensure_ready(net::Endpoint& channel) override;

  /// Protocol thread: draws choices, builds + SENDS correction blocks until
  /// the ledger covers \p count unconsumed arity-\p arity slots, and pushes
  /// the matching finished recv slots. Consumes pre-expanded row material;
  /// a cold engine expands it inline (counted in sync_expansions()).
  void stage_to(net::Endpoint& channel, std::size_t arity,
                std::size_t count) override;

  /// Protocol thread: pops one finished slot. Receiver slots are built at
  /// staging time, so this never blocks.
  PrecomputedRecvSlot take(std::size_t arity) override;

  // RefillTarget (pre-expands row material ahead of the staging cursor):
  bool refill_step() override;
  bool needs_refill() override;

  bool frontier_clean() const override;
  /// Every pre-expanded row and unconsumed pad zeroed.
  bool pads_clean() const override;

 private:
  /// Arity-independent per-row keystream material (row-major, after the
  /// column->row bit transpose): t0_r and t0_r XOR t1_r.
  struct RowMaterial {
    PPDS_SECRET SilentRow t0{};
    PPDS_SECRET SilentRow ubase{};
  };

  /// Expands GGM leaf chunk \p chunk (kSilentRowsPerLeaf rows) of both
  /// column trees into row material (pure; call UNLOCKED).
  std::vector<RowMaterial> expand_chunk(std::uint64_t chunk) const;
  /// Appends one chunk of row material; \p lk held on entry and exit.
  void expand_next_chunk_locked(std::unique_lock<std::mutex>& lk);
  std::uint64_t material_through() const;
  void wipe_secrets_locked() override;

  /// Both column keystream trees per column (the receiver ran the base OTs
  /// as sender, so it knows k0_j AND k1_j).
  std::vector<GgmTree> trees0_;
  std::vector<GgmTree> trees1_;
  /// Secret choice stream: alpha draws come from a dedicated PRG forked
  /// from the session rng at setup, so the background thread never touches
  /// the shared Rng.
  std::optional<Prg> choice_prg_;

  std::uint64_t material_from_ = 0;
  std::deque<RowMaterial> material_;
};

}  // namespace ppds::crypto
