#include "ppds/crypto/ot.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <type_traits>

#include "ppds/common/ct.hpp"
#include "ppds/common/error.hpp"
#include "ppds/crypto/prg.hpp"
#include "ppds/crypto/reservoir.hpp"
#include "ppds/crypto/silent_ot.hpp"

namespace ppds::crypto {

namespace {

std::size_t bits_for(std::size_t n) {
  // Callers handle n <= 1 before the bit decomposition; without this guard
  // `n - 1` underflows to SIZE_MAX for n == 0 and the answer silently
  // becomes 64.
  detail::require(n >= 2, "ot: bits_for requires n >= 2");
  std::size_t bits = 0;
  std::size_t v = n - 1;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return std::max<std::size_t>(bits, 1);
}

void wipe_key_pairs(std::vector<std::array<Bytes, 2>>& keys) {
  for (auto& pair : keys) {
    secure_wipe(std::span(pair[0]));
    secure_wipe(std::span(pair[1]));
  }
}

void wipe_all(std::vector<Bytes>& buffers) {
  for (Bytes& b : buffers) secure_wipe(std::span(b));
}

void check_equal_lengths(std::span<const Bytes> messages) {
  detail::require(!messages.empty(), "ot: no messages");
  const std::size_t len = messages.front().size();
  for (const Bytes& m : messages) {
    detail::require(m.size() == len, "ot: unequal message lengths");
  }
}

/// 1-out-of-n sender body past kMaxDirectArity (bit-decomposition
/// construction): sender draws pad keys K_{j,0}, K_{j,1} for each index
/// bit j, encrypts message i under SHA256(K_{1,i_1} || ... || K_{l,i_l} ||
/// i) and ships all n ciphertexts; \p transfer_keys then moves each key
/// pair over one arity-2 slot, called once per index bit with (key0, key1).
template <typename TransferKeys>
void send_1ofn_impl(net::Endpoint& channel, std::span<const Bytes> messages,
                    Rng& rng, TransferKeys&& transfer_keys) {
  const std::size_t n = messages.size();
  const std::size_t nbits = bits_for(n);

  PPDS_SECRET std::vector<std::array<Bytes, 2>> keys(nbits);
  for (auto& pair : keys) {
    for (int side = 0; side < 2; ++side) {
      Bytes& key = pair[side];
      key.resize(32);
      rng.fill_bytes(std::span(key));
    }
  }

  ByteWriter w;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Bytes> parts;
    parts.reserve(nbits + 1);
    for (std::size_t j = 0; j < nbits; ++j) {
      parts.push_back(keys[j][(i >> j) & 1]);
    }
    Bytes idx(8);
    for (int b = 0; b < 8; ++b) idx[b] = static_cast<std::uint8_t>(i >> (8 * b));
    parts.push_back(idx);
    w.raw(xor_pad(sha256_tagged(parts), messages[i]));
  }
  channel.send(w.take());

  for (std::size_t j = 0; j < nbits; ++j) {
    transfer_keys(keys[j][0], keys[j][1]);
  }
  wipe_key_pairs(keys);
}

/// 1-out-of-n receiver body past kMaxDirectArity. \p transfer_key is
/// called once per index bit with the wanted choice bit and must return
/// the 32-byte key.
template <typename TransferKey>
Bytes receive_1ofn_impl(net::Endpoint& channel, std::size_t index,
                        std::size_t n, std::size_t message_len,
                        TransferKey&& transfer_key) {
  const std::size_t nbits = bits_for(n);

  const Bytes ciphertexts = channel.recv();
  detail::require(ciphertexts.size() == n * message_len,
                  "ot_1ofn: bad ciphertext bundle");

  std::vector<Bytes> parts;
  parts.reserve(nbits + 1);
  for (std::size_t j = 0; j < nbits; ++j) {
    parts.push_back(transfer_key(((index >> j) & 1) != 0));
  }
  Bytes idx(8);
  for (int b = 0; b < 8; ++b) idx[b] = static_cast<std::uint8_t>(index >> (8 * b));
  parts.push_back(idx);

  Bytes cipher(ciphertexts.begin() + static_cast<std::ptrdiff_t>(index * message_len),
               ciphertexts.begin() + static_cast<std::ptrdiff_t>((index + 1) * message_len));
  PPDS_SECRET Digest pad_key = sha256_tagged(parts);
  wipe_all(parts);
  Bytes plain = xor_pad(pad_key, cipher);
  secure_wipe(std::span(pad_key));
  return plain;
}

}  // namespace

/// --- Loopback engine ----------------------------------------------------------

void LoopbackSender::send(net::Endpoint& channel,
                          std::span<const Bytes> messages, std::size_t k) {
  check_equal_lengths(messages);
  detail::require(k >= 1 && k <= messages.size(), "ot: bad k");
  ByteWriter w;
  for (const Bytes& m : messages) w.raw(m);
  channel.send(w.take());
}

std::vector<Bytes> LoopbackReceiver::receive(
    net::Endpoint& channel, std::span<const std::size_t> indices,
    std::size_t n, std::size_t message_len) {
  const Bytes bundle = channel.recv();
  detail::require(bundle.size() == n * message_len,
                  "loopback ot: bad bundle size");
  std::vector<Bytes> out;
  out.reserve(indices.size());
  for (std::size_t index : indices) {
    detail::require(index < n, "loopback ot: index out of range");
    out.emplace_back(
        bundle.begin() + static_cast<std::ptrdiff_t>(index * message_len),
        bundle.begin() + static_cast<std::ptrdiff_t>((index + 1) * message_len));
  }
  return out;
}

std::size_t index_bits(std::size_t n) {
  return n <= 1 ? 0 : bits_for(n);
}

/// --- Batched amortized precomputation -------------------------------------------
///
/// One round trip fills N slots (Naor-Pinkas amortization): the sender
/// reuses a single (C_1..C_{n-1} = g^{a_j}, g^r) tuple for the whole batch,
/// the receiver answers with all N blinded keys in one bundle, and the
/// random pads are DERIVED as H(shared_secret, n*i + j) rather than chosen
/// and encrypted — there is no third message. Per slot the sender pays one
/// full exponentiation (u = PK_0^r; pad j > 0 falls out as C_j^r * u^{-1}
/// with the u^{-1} batch-inverted across the whole bundle) and the receiver
/// two table-served ones (g^x and (g^r)^x via a per-batch window table for
/// g^r). Semi-honest security follows from the original construction: the
/// receiver cannot compute two H inputs without solving CDH for (C_j, g^r),
/// and the per-slot tag keeps pads independent. Arity 2 reproduces the
/// legacy 1-out-of-2 batch byte for byte.

std::vector<PrecomputedSendSlot> precompute_ot_sender(
    net::Endpoint& channel, const DhGroup& group, std::size_t count,
    std::size_t pad_len, Rng& rng, std::size_t arity) {
  detail::require(pad_len >= 1 && pad_len <= 32,
                  "precompute ot: pad_len must be in [1, 32]");
  detail::require(arity >= 2 && arity <= kMaxDirectArity,
                  "precompute ot: arity must be in [2, kMaxDirectArity]");
  std::vector<PrecomputedSendSlot> slots(count);
  for (PrecomputedSendSlot& slot : slots) slot.pads.resize(arity);
  if (count == 0) return slots;

  // a_1..a_{n-1} before r: arity 2 draws (a, r) in the legacy order, so
  // seeded offline transcripts are unchanged.
  std::vector<mpz_class> a(arity - 1);
  for (mpz_class& aj : a) aj = group.random_exponent(rng);
  const mpz_class r = group.random_exponent(rng);

  ByteWriter announce;
  for (const mpz_class& aj : a) announce.raw(group.serialize(group.pow_g(aj)));
  const mpz_class gr = group.pow_g(r);
  announce.raw(group.serialize(gr));
  channel.send(PPDS_DECLASSIFY(
      announce.take(),
      "announce = (C_1..C_{n-1}, g^r): Naor-Pinkas public keys; the "
      "exponents never leave the sender and recovering them is DLOG"));

  // C_j^r = g^{a_j * r mod q}: the sender knows both exponents, so even
  // these stay on the fixed-base path.
  std::vector<mpz_class> c_r(arity - 1);
  for (std::size_t j = 0; j + 1 < arity; ++j) {
    c_r[j] = group.pow_g(a[j] * r % group.q());
  }

  const Bytes bundle = channel.recv();
  ByteReader rd(bundle);
  std::vector<mpz_class> u(count);
  for (std::size_t i = 0; i < count; ++i) {
    const mpz_class pk0 = group.deserialize(rd.raw(group.element_bytes()));
    u[i] = group.pow(pk0, r);  // the one full exp per slot
  }
  rd.expect_end();
  // One Montgomery batch inversion replaces count per-slot inversions.
  std::vector<mpz_class> u_inv = u;
  group.batch_invert(u_inv);

  for (std::size_t i = 0; i < count; ++i) {
    PPDS_SECRET Digest k0 = group.hash_to_key(u[i], arity * i);
    slots[i].pads[0].assign(k0.begin(),
                            k0.begin() + static_cast<std::ptrdiff_t>(pad_len));
    secure_wipe(std::span(k0));
    for (std::size_t j = 1; j < arity; ++j) {
      PPDS_SECRET Digest kj =
          group.hash_to_key(group.mul(c_r[j - 1], u_inv[i]), arity * i + j);
      slots[i].pads[j].assign(
          kj.begin(), kj.begin() + static_cast<std::ptrdiff_t>(pad_len));
      secure_wipe(std::span(kj));
    }
  }
  return slots;
}

std::vector<PrecomputedRecvSlot> precompute_ot_receiver(
    net::Endpoint& channel, const DhGroup& group, std::size_t count,
    std::size_t pad_len, Rng& rng, std::size_t arity) {
  detail::require(pad_len >= 1 && pad_len <= 32,
                  "precompute ot: pad_len must be in [1, 32]");
  detail::require(arity >= 2 && arity <= kMaxDirectArity,
                  "precompute ot: arity must be in [2, kMaxDirectArity]");
  std::vector<PrecomputedRecvSlot> slots(count);
  for (PrecomputedRecvSlot& slot : slots) {
    slot.arity = static_cast<std::uint32_t>(arity);
  }
  if (count == 0) return slots;
  const std::size_t eb = group.element_bytes();

  const Bytes announce = channel.recv();
  detail::require(announce.size() == arity * eb,
                  "precompute ot: bad announce");
  // Flat view of C_1..C_{n-1}; g^r is the trailing element.
  const std::span<const std::uint8_t> c_flat(announce.data(),
                                             (arity - 1) * eb);
  const mpz_class gr =
      group.deserialize(std::span(announce).subspan((arity - 1) * eb, eb));

  // Window table for the batch-constant base g^r; the build costs a few
  // full exponentiations' worth of multiplies, so only bother for batches
  // that amortize it.
  std::unique_ptr<FixedBaseTable> gr_table;
  if (count >= 16) gr_table = group.make_table(gr);

  ByteWriter w;
  for (std::size_t i = 0; i < count; ++i) {
    PrecomputedRecvSlot& slot = slots[i];
    // One rng() word per slot whatever the arity. Arity 2 keeps the legacy
    // low-bit draw (seeded offline transcripts unchanged); larger arities
    // map the word to [0, arity) with a multiply-shift.
    const std::uint64_t word = rng();
    if (arity == 2) {
      slot.choice = static_cast<std::uint32_t>(word & 1);
    } else {
      __extension__ using u128 = unsigned __int128;
      slot.choice =
          static_cast<std::uint32_t>((static_cast<u128>(word) * arity) >> 64);
    }
    const mpz_class x = group.random_exponent(rng);
    const mpz_class gx = group.pow_g(x);
    const Bytes gx_bytes = group.serialize(gx);

    // Constant-time gather of C_idx over the whole announce. idx == choice
    // except for choice == 0, where idx = 1 is a dummy (the gathered
    // element is discarded by the select below) — every slot scans all
    // n - 1 elements and performs the same multiply/invert either way.
    const std::uint32_t idx =
        slot.choice + static_cast<std::uint32_t>(slot.choice == 0);
    Bytes sel(eb, 0);
    for (std::size_t j = 1; j < arity; ++j) {
      const std::uint8_t mask = static_cast<std::uint8_t>(
          0u - static_cast<unsigned>(j == idx));
      const std::size_t base = (j - 1) * eb;
      for (std::size_t b = 0; b < eb; ++b) sel[b] |= c_flat[base + b] & mask;
    }
    const Bytes blinded_bytes =
        group.serialize(group.mul(group.deserialize(sel), group.invert(gx)));

    // Byte-level constant-time select: announce g^x when choice == 0, the
    // blinded C_choice * g^{-x} otherwise.
    const std::uint8_t keep_gx = static_cast<std::uint8_t>(
        0u - static_cast<unsigned>(slot.choice == 0));
    Bytes pk(eb, 0);
    for (std::size_t b = 0; b < eb; ++b) {
      pk[b] = static_cast<std::uint8_t>((gx_bytes[b] & keep_gx) |
                                        (blinded_bytes[b] & ~keep_gx));
    }
    w.raw(PPDS_DECLASSIFY(
        pk,
        "blinded key: the announced PK_0 is g^x or C_choice * g^-x, either "
        "way uniform; recovering the choice index needs CDH"));

    const mpz_class shared = group.pow_with(gr_table.get(), gr, x);
    PPDS_SECRET Digest key = group.hash_to_key(shared, arity * i + slot.choice);
    slot.pad.assign(key.begin(),
                    key.begin() + static_cast<std::ptrdiff_t>(pad_len));
    secure_wipe(std::span(key));
  }
  channel.send(w.take());
  return slots;
}

void precomputed_send_1ofn(net::Endpoint& channel,
                           const PrecomputedSendSlot& slot,
                           std::span<const Bytes> messages) {
  const std::size_t n = slot.pads.size();
  detail::require(n >= 2, "precomputed ot: malformed slot");
  detail::require(messages.size() == n, "precomputed ot: arity mismatch");
  check_equal_lengths(messages);
  const std::size_t len = messages.front().size();
  detail::require(len >= 1 && len <= slot.pads.front().size(),
                  "precomputed ot: message longer than pad");

  // Receiver first announces the public correction shift
  // s = (index - choice) mod n.
  const Bytes shift_msg = channel.recv();
  detail::require(shift_msg.size() == 1, "precomputed ot: bad shift message");
  const std::size_t s = shift_msg[0];
  detail::require(s < n, "precomputed ot: shift out of range");

  ByteWriter w;
  for (std::size_t j = 0; j < n; ++j) {
    Bytes e = messages[j];
    // s is public (already declassified by the receiver): % is fine here.
    const Bytes& pad = slot.pads[(j + n - s) % n];
    for (std::size_t b = 0; b < len; ++b) e[b] ^= pad[b];
    w.raw(e);
  }
  channel.send(PPDS_DECLASSIFY(
      w.take(), "one-time-pad ciphertexts: each message is XORed with a "
                "fresh precomputed pad the receiver knows at most one of"));
}

Bytes precomputed_receive_1ofn(net::Endpoint& channel,
                               const PrecomputedRecvSlot& slot,
                               std::size_t index, std::size_t message_len) {
  const std::size_t n = slot.arity;
  detail::require(n >= 2, "precomputed ot: malformed slot");
  detail::require(index < n, "ot_1ofn: index out of range");
  detail::require(message_len >= 1 && message_len <= slot.pad.size(),
                  "precomputed ot: message longer than pad");

  // s = (index - choice) mod n without a secret modulo: choice < n, so a
  // single conditional subtraction folds the sum back into range.
  const std::size_t s_raw = index + n - slot.choice;
  const std::size_t s = s_raw - n * static_cast<std::size_t>(s_raw >= n);
  channel.send(PPDS_DECLASSIFY(
      Bytes{static_cast<std::uint8_t>(s)},
      "correction shift: s = index - choice mod n with a uniform "
      "precomputed choice is uniform and independent of the real index"));

  const Bytes reply = channel.recv();
  detail::require(reply.size() == n * message_len, "precomputed ot: bad reply");
  const std::size_t off = index * message_len;
  Bytes out(reply.begin() + static_cast<std::ptrdiff_t>(off),
            reply.begin() + static_cast<std::ptrdiff_t>(off + message_len));
  for (std::size_t i = 0; i < message_len; ++i) out[i] ^= slot.pad[i];
  return out;
}

void precomputed_send_1of2(net::Endpoint& channel,
                           const PrecomputedSendSlot& slot, const Bytes& m0,
                           const Bytes& m1) {
  const std::array<Bytes, 2> messages{m0, m1};
  precomputed_send_1ofn(channel, slot, messages);
}

Bytes precomputed_receive_1of2(net::Endpoint& channel,
                               const PrecomputedRecvSlot& slot,
                               PPDS_SECRET bool choice) {
  return precomputed_receive_1ofn(channel, slot,
                                  static_cast<std::size_t>(choice),
                                  slot.pad.size());
}

OtAbortAudit& ot_abort_audit() {
  static OtAbortAudit audit;
  return audit;
}

void wipe_slot(PrecomputedSendSlot& slot) {
  for (Bytes& pad : slot.pads) secure_wipe(std::span(pad));
}

void wipe_slot(PrecomputedRecvSlot& slot) {
  secure_wipe(std::span(slot.pad));
  slot.choice = 0;
}

bool slot_clean(const PrecomputedSendSlot& slot) {
  for (const Bytes& pad : slot.pads) {
    for (std::uint8_t b : pad) {
      // abort-audit hook: only ever runs on pools that abort() zeroed,
      // so this scans dead key material. taint: allow(secret-branch)
      if (b != 0) return false;
    }
  }
  return true;
}

bool slot_clean(const PrecomputedRecvSlot& slot) {
  for (std::uint8_t b : slot.pad) {
    // abort-audit hook: only ever runs on pools that abort() zeroed,
    // so this scans dead key material. taint: allow(secret-branch)
    if (b != 0) return false;
  }
  return true;
}

/// --- DH-batch slot source --------------------------------------------------

namespace {

/// Per-arity pools filled by amortized DH batches (precompute_ot_*). The
/// mutex lets available() observers on other threads see a coherent
/// snapshot; the protocol thread is the only mutator.
template <typename Slot>
class DhBatchSource final : public SlotSource<Slot> {
 public:
  static constexpr bool kSender = std::is_same_v<Slot, PrecomputedSendSlot>;

  DhBatchSource(const DhGroup& group, Rng& rng) : group_(group), rng_(rng) {}

  ~DhBatchSource() override {
    for (Pool& pool : pools_) {
      for (Slot& slot : pool.slots) wipe_slot(slot);
    }
  }

  void ensure_ready(net::Endpoint& /*channel*/) override {}

  void stage_to(net::Endpoint& channel, std::size_t arity,
                std::size_t count) override {
    Pool& pool = pool_for(arity);
    const std::size_t have = pool.slots.size() - pool.next;
    if (have >= count) return;
    std::vector<Slot> fresh;
    if constexpr (kSender) {
      fresh = precompute_ot_sender(channel, group_, count - have, 32, rng_,
                                   arity);
    } else {
      fresh = precompute_ot_receiver(channel, group_, count - have, 32, rng_,
                                     arity);
    }
    std::lock_guard lk(mu_);
    // Drop the consumed prefix (take() already moved its pads out).
    const auto consumed = static_cast<std::ptrdiff_t>(pool.next);
    pool.slots.erase(pool.slots.begin(), pool.slots.begin() + consumed);
    pool.next = 0;
    pool.slots.insert(pool.slots.end(), std::make_move_iterator(fresh.begin()),
                      std::make_move_iterator(fresh.end()));
  }

  /// Short of \p need: one batch of max(need, kDhTopUpSlots) slots.
  void top_up(net::Endpoint& channel, std::size_t arity,
              std::size_t need) override {
    if (available(arity) < need) {
      stage_to(channel, arity, std::max(need, kDhTopUpSlots));
    }
  }

  Slot take(std::size_t arity) override {
    Pool& pool = pool_for(arity);
    std::lock_guard lk(mu_);
    detail::require(pool.next < pool.slots.size(),
                    "ot: take outruns the reserved pool");
    Slot& at = pool.slots[pool.next++];
    Slot slot = std::move(at);
    wipe_slot(at);
    return slot;
  }

  std::size_t available(std::size_t arity) const override {
    std::lock_guard lk(mu_);
    for (const Pool& pool : pools_) {
      if (pool.arity == arity) return pool.slots.size() - pool.next;
    }
    return 0;
  }

  std::size_t available_total() const override {
    std::lock_guard lk(mu_);
    std::size_t total = 0;
    for (const Pool& pool : pools_) total += pool.slots.size() - pool.next;
    return total;
  }

  void abort() noexcept override {
    std::lock_guard lk(mu_);
    for (Pool& pool : pools_) {
      for (Slot& slot : pool.slots) wipe_slot(slot);
      pool.next = pool.slots.size();  // nothing left to consume
    }
  }

  bool pads_clean() const override {
    std::lock_guard lk(mu_);
    for (const Pool& pool : pools_) {
      for (const Slot& slot : pool.slots) {
        if (!slot_clean(slot)) return false;
      }
    }
    return true;
  }

 private:
  // Pool bookkeeping (arity, counts, cursor) is public protocol metadata;
  // the secrets live in the slots' annotated fields.
  struct Pool {
    std::size_t arity = 2;
    std::vector<Slot> slots;
    std::size_t next = 0;
  };

  Pool& pool_for(std::size_t arity) {
    for (Pool& pool : pools_) {
      if (pool.arity == arity) return pool;
    }
    std::lock_guard lk(mu_);
    pools_.push_back(Pool{arity, {}, 0});
    return pools_.back();
  }

  const DhGroup& group_;
  Rng& rng_;
  mutable std::mutex mu_;
  std::vector<Pool> pools_;
};

template <typename Slot, typename Silent>
std::unique_ptr<SlotSource<Slot>> make_source(const DhGroup& group, Rng& rng,
                                              OtOffline offline) {
  if (offline == OtOffline::kSilent) {
    return std::make_unique<Silent>(group, rng);
  }
  return std::make_unique<DhBatchSource<Slot>>(group, rng);
}

}  // namespace

/// --- Batched session facade -----------------------------------------------------

BatchedOtSender::BatchedOtSender(const DhGroup& group, Rng& rng,
                                 OtOffline offline)
    : BatchedOt(rng, make_source<PrecomputedSendSlot, SilentPadSender>(
                         group, rng, offline)) {}

SilentPadSender* BatchedOtSender::silent_engine() {
  return dynamic_cast<SilentPadSender*>(source_.get());
}

void BatchedOtSender::send(net::Endpoint& channel,
                           std::span<const Bytes> messages, std::size_t k) {
  check_live();
  check_equal_lengths(messages);
  detail::require(k >= 1 && k <= messages.size(), "ot: bad k");
  const std::size_t n = messages.size();
  if (n == 1) {
    for (std::size_t i = 0; i < k; ++i) channel.send(messages.front());
    return;
  }
  source_->ensure_ready(channel);
  // Symmetric auto top-up: both parties derive the same need from the
  // transfer shape and the same level from identical consumption.
  if (n <= kMaxDirectArity) {
    // Direct 1-of-n slots: one slot per transfer instead of ceil(log2 n)
    // bit-decomposition slots.
    source_->top_up(channel, n, k);
    for (std::size_t i = 0; i < k; ++i) {
      PrecomputedSendSlot slot = source_->take(n);
      precomputed_send_1ofn(channel, slot, messages);
      wipe_slot(slot);
    }
    return;
  }
  source_->top_up(channel, 2, k * index_bits(n));
  for (std::size_t i = 0; i < k; ++i) {
    send_1ofn_impl(channel, messages, rng_,
                   [&](const Bytes& k0, const Bytes& k1) {
                     PrecomputedSendSlot slot = source_->take(2);
                     precomputed_send_1of2(channel, slot, k0, k1);
                     wipe_slot(slot);
                   });
  }
}

BatchedOtReceiver::BatchedOtReceiver(const DhGroup& group, Rng& rng,
                                     OtOffline offline)
    : BatchedOt(rng, make_source<PrecomputedRecvSlot, SilentPadReceiver>(
                         group, rng, offline)) {}

SilentPadReceiver* BatchedOtReceiver::silent_engine() {
  return dynamic_cast<SilentPadReceiver*>(source_.get());
}

std::vector<Bytes> BatchedOtReceiver::receive(
    net::Endpoint& channel, std::span<const std::size_t> indices,
    std::size_t n, std::size_t message_len) {
  check_live();
  detail::require(!indices.empty() && indices.size() <= n, "ot: bad indices");
  for (std::size_t index : indices) {
    detail::require(index < n, "ot_1ofn: index out of range");
  }
  std::vector<Bytes> out;
  out.reserve(indices.size());
  if (n == 1) {
    for (std::size_t i = 0; i < indices.size(); ++i) {
      out.push_back(channel.recv());
    }
    return out;
  }
  source_->ensure_ready(channel);
  if (n <= kMaxDirectArity) {
    source_->top_up(channel, n, indices.size());
    for (std::size_t index : indices) {
      PrecomputedRecvSlot slot = source_->take(n);
      out.push_back(
          precomputed_receive_1ofn(channel, slot, index, message_len));
      wipe_slot(slot);
    }
    return out;
  }
  source_->top_up(channel, 2, indices.size() * index_bits(n));
  for (std::size_t index : indices) {
    out.push_back(
        receive_1ofn_impl(channel, index, n, message_len, [&](bool choice) {
          PrecomputedRecvSlot slot = source_->take(2);
          Bytes key = precomputed_receive_1of2(channel, slot, choice);
          wipe_slot(slot);
          return key;
        }));
  }
  return out;
}

}  // namespace ppds::crypto
