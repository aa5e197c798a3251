// Golden transcripts of the precomputed-OT engine: SHA-256 of every payload
// each party sends, length-prefixed and in order. They pin the wire bytes of
// both offline phases (the DH batch and the silent PPRF engine, the latter
// with and without a background PadReservoir) through refactors of the
// engine; a digest that changes means the protocol transcript changed.

#include <gtest/gtest.h>

#include <optional>

#include "ppds/common/hex.hpp"
#include "ppds/core/session.hpp"
#include "ppds/crypto/ot.hpp"
#include "ppds/crypto/reservoir.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/net/party.hpp"

namespace ppds::crypto {
namespace {

/// Endpoint decorator that hashes every payload it sends.
class DigestingEndpoint final : public net::Endpoint {
 public:
  explicit DigestingEndpoint(net::Endpoint&& clean)
      : net::Endpoint(std::move(clean)) {}

  std::string digest() { return to_hex(hash_.finish()); }

 protected:
  void deliver(net::detail::Frame&& frame) override {
    ByteWriter len;
    len.u64(frame.payload.size());
    hash_.update(len.data());
    hash_.update(frame.payload);
    net::Endpoint::deliver(std::move(frame));
  }

 private:
  Sha256 hash_;
};

/// Hex SHA-256 of what each party sent.
struct Digests {
  std::string sender;
  std::string receiver;
};

/// The three ways to run the precomputed engine. The silent transcript
/// must not depend on whether a reservoir expands in the background.
enum class Offline { kDhBatch, kSilent, kSilentReservoir };

const char* mode_name(Offline mode) {
  switch (mode) {
    case Offline::kDhBatch: return "dh-batch";
    case Offline::kSilent: return "silent";
    case Offline::kSilentReservoir: return "silent+reservoir";
  }
  return "?";
}

/// Runs \p sender_party / \p receiver_party (each given its endpoint, an
/// Rng seeded \p seed / \p seed + 1, and an optional reservoir) in every
/// mode and checks the digests: \p dh for the DH batch, \p silent for
/// the silent engine with and without a reservoir.
template <typename SenderParty, typename ReceiverParty>
void expect_transcripts(std::uint64_t seed, SenderParty&& sender_party,
                        ReceiverParty&& receiver_party, const Digests& dh,
                        const Digests& silent) {
  for (Offline mode :
       {Offline::kDhBatch, Offline::kSilent, Offline::kSilentReservoir}) {
    const auto party = [&](auto&& fn, std::uint64_t party_seed) {
      return [&, party_seed](net::Endpoint& ch) {
        Rng rng(party_seed);
        std::optional<PadReservoir> pool;
        if (mode == Offline::kSilentReservoir) pool.emplace(1);
        fn(ch, rng, mode != Offline::kDhBatch, pool ? &*pool : nullptr);
        return 0;
      };
    };
    auto [a, b] = net::make_channel();
    DigestingEndpoint end_a(std::move(a));
    DigestingEndpoint end_b(std::move(b));
    net::run_two_party_on(end_a, end_b, party(sender_party, seed),
                          party(receiver_party, seed + 1));
    const Digests& want = mode == Offline::kDhBatch ? dh : silent;
    EXPECT_EQ(end_a.digest(), want.sender) << mode_name(mode);
    EXPECT_EQ(end_b.digest(), want.receiver) << mode_name(mode);
  }
}

const DhGroup& test_group() {
  static const DhGroup g(GroupId::kModp1024);
  return g;
}

std::vector<Bytes> make_messages(std::size_t n, std::size_t len) {
  std::vector<Bytes> msgs;
  for (std::size_t i = 0; i < n; ++i) {
    Bytes m(len);
    for (std::size_t j = 0; j < len; ++j) {
      m[j] = static_cast<std::uint8_t>(i * 37 + j * 11 + 3);
    }
    msgs.push_back(std::move(m));
  }
  return msgs;
}

/// One engine pair at the default knobs: \p send_script(channel, sender)
/// and \p recv_script(channel, receiver) drive the transfers, and the
/// receiver must end up with \p expected.
template <typename SendScript, typename RecvScript>
void expect_engine_transcripts(SendScript&& send_script,
                               RecvScript&& recv_script,
                               const std::vector<Bytes>& expected,
                               const Digests& dh, const Digests& silent) {
  const auto offline = [](bool silent_mode) {
    return silent_mode ? OtOffline::kSilent : OtOffline::kDhBatch;
  };
  expect_transcripts(
      9101,
      [&](net::Endpoint& ch, Rng& rng, bool silent_mode, PadReservoir* pool) {
        BatchedOtSender s(test_group(), rng, offline(silent_mode));
        if (pool != nullptr) s.attach_reservoir(*pool);
        send_script(ch, s);
      },
      [&](net::Endpoint& ch, Rng& rng, bool silent_mode, PadReservoir* pool) {
        BatchedOtReceiver r(test_group(), rng, offline(silent_mode));
        if (pool != nullptr) r.attach_reservoir(*pool);
        EXPECT_EQ(recv_script(ch, r), expected);
      },
      dh, silent);
}

TEST(OtTranscriptDigest, DirectArityTransfer) {
  // n = 8 <= kMaxDirectArity: one direct 1-of-8 slot per transfer.
  const auto msgs = make_messages(8, 16);
  expect_engine_transcripts(
      [&](net::Endpoint& ch, BatchedOtSender& s) {
        for (int round = 0; round < 3; ++round) s.send(ch, msgs, 2);
      },
      [&](net::Endpoint& ch, BatchedOtReceiver& r) {
        std::vector<Bytes> all;
        for (std::size_t round = 0; round < 3; ++round) {
          const std::vector<std::size_t> want{round, round + 4};
          auto part = r.receive(ch, want, 8, 16);
          all.insert(all.end(), part.begin(), part.end());
        }
        return all;
      },
      {msgs[0], msgs[4], msgs[1], msgs[5], msgs[2], msgs[6]},
      {"c13762b30284d31cb4aebf0e2aaa9785c758971cf85587cbec75d9074f22b631",
       "be08ae6ae3cc53d5fc0b2f44c86c043e63023ce995771ea56857bd93df3a1481"},
      {"f384a2cfea4d672335da52098f1d719b2afb39cd5741d5be8a501dab31799aa3",
       "b9e6621554fa7c50df94179d829afac5d79314f7ad2a4840d53cb18b2d87e0c0"});
}

TEST(OtTranscriptDigest, BitDecompositionTransfer) {
  // n = 300 > kMaxDirectArity: ceil(log2 300) = 9 arity-2 slots per
  // transfer.
  const auto msgs = make_messages(300, 8);
  expect_engine_transcripts(
      [&](net::Endpoint& ch, BatchedOtSender& s) { s.send(ch, msgs, 2); },
      [&](net::Endpoint& ch, BatchedOtReceiver& r) {
        const std::vector<std::size_t> want{17, 271};
        return r.receive(ch, want, 300, 8);
      },
      {msgs[17], msgs[271]},
      {"3f48f614bf0a5bb7e42c17c4915d72baa03cb03f6261ad11694e49250c218a04",
       "6ac1f3bceb38201db47bf8aaf59f4ac08b4b38b4558b78bea588b6fb5d6ade87"},
      {"15ca3ffa568cb3b8f7dc758199e0be37807b9a28042f007de59b2543631803bd",
       "9b4f812da51db513844a9d8a44316e5bf4656afddfa215effc5ed69ea5bbaa0a"});
}

TEST(OtTranscriptDigest, ExplicitReserveThenTransfers) {
  const auto direct = make_messages(8, 16);
  const auto wide = make_messages(300, 8);
  expect_engine_transcripts(
      [&](net::Endpoint& ch, BatchedOtSender& s) {
        s.reserve(ch, 8, 40);
        s.reserve(ch, 2, 20);
        s.send(ch, direct, 2);
        s.send(ch, wide, 1);
      },
      [&](net::Endpoint& ch, BatchedOtReceiver& r) {
        r.reserve(ch, 8, 40);
        r.reserve(ch, 2, 20);
        const std::vector<std::size_t> want{1, 6};
        std::vector<Bytes> all = r.receive(ch, want, 8, 16);
        const std::vector<std::size_t> one{42};
        all.push_back(r.receive(ch, one, 300, 8).front());
        return all;
      },
      {direct[1], direct[6], wide[42]},
      {"63de5b706c326a3da492c7e9d8a7b38720acc55dc3a2ae0d4787b814c70afbdc",
       "2d2e7486b5980157852584b10976c5d12d356970b94052c0647eca4827acf6e2"},
      {"53334ab78909b9e890aba16482a877d20292620a428e37b590bf48b7a6633ee3",
       "345296d0ebde3f489f0affa04a9a5b5f093984a938b76ce18d6cd7bf2b64de95"});
}

TEST(OtTranscriptDigest, AutoRefillCrossesTopUp) {
  // 50 transfers of 3 direct 1-of-4 slots = 150 slots: more than one
  // kDhTopUpSlots batch, and more than one silent staging quantum.
  const auto msgs = make_messages(4, 8);
  std::vector<Bytes> expected;
  for (std::size_t round = 0; round < 50; ++round) {
    for (std::size_t idx = 0; idx < 4; ++idx) {
      if (idx != (round + 3) % 4) expected.push_back(msgs[idx]);
    }
  }
  expect_engine_transcripts(
      [&](net::Endpoint& ch, BatchedOtSender& s) {
        for (int round = 0; round < 50; ++round) s.send(ch, msgs, 3);
      },
      [&](net::Endpoint& ch, BatchedOtReceiver& r) {
        std::vector<Bytes> all;
        for (std::size_t round = 0; round < 50; ++round) {
          std::vector<std::size_t> want;
          for (std::size_t idx = 0; idx < 4; ++idx) {
            if (idx != (round + 3) % 4) want.push_back(idx);
          }
          auto part = r.receive(ch, want, 4, 8);
          all.insert(all.end(), part.begin(), part.end());
        }
        return all;
      },
      expected,
      {"8e3a02cb660e94ffc6be2a9972a298fb98dc1b870483d4a9d8579610b2d0b9f9",
       "b921d3e2d34550481cc5ac953b33362e06db41a3374ce0dbbe4c502ca594c49c"},
      {"f3abf38b99d084ea5f9e0bc38db329eabc7a1bea50d4fea7bf210d28cc4e7f38",
       "153de13357bf305158cd99d01188ab6df90e63496069c9bce8a90c665f1abf56"});
}

TEST(OtTranscriptDigest, ClassificationSession) {
  // One whole session (handshake, offline phase, three queries) on the
  // field backend, so the OMPE bytes come from exact integer arithmetic.
  const svm::SvmModel model(svm::Kernel::linear(), {{0.8, -0.6}}, {1.0}, 0.1);
  const auto profile = core::ClassificationProfile::make(2, model.kernel());
  const std::vector<std::vector<double>> samples{
      {0.5, 0.1}, {-0.4, 0.9}, {0.2, -0.7}};
  const auto config = [](bool silent_mode) {
    core::SchemeConfig cfg = core::SchemeConfig::fast_simulation();
    cfg.ot_engine = core::OtEngine::kPrecomputed;
    cfg.silent_precompute = silent_mode;
    cfg.ompe.backend = ompe::Backend::kField;
    return cfg;
  };
  // A reservoir needs a caller-owned bundle; without one the session
  // builds its own, as ppdsd does for non-silent scenarios.
  const auto bundle = [&](std::optional<core::OtBundle>& ot, bool silent_mode,
                          Rng& rng, PadReservoir* pool) -> core::OtBundle* {
    if (pool == nullptr) return nullptr;
    ot.emplace(config(silent_mode), rng);
    ot->attach_reservoir(*pool);
    return &*ot;
  };
  expect_transcripts(
      9201,
      [&](net::Endpoint& ch, Rng& rng, bool silent_mode, PadReservoir* pool) {
        const core::SchemeConfig cfg = config(silent_mode);
        const core::ClassificationServer server(model, profile, cfg);
        std::optional<core::OtBundle> ot;
        core::serve_session(server, profile, cfg, ch, rng, 1 << 20,
                            bundle(ot, silent_mode, rng, pool));
      },
      [&](net::Endpoint& ch, Rng& rng, bool silent_mode, PadReservoir* pool) {
        const core::SchemeConfig cfg = config(silent_mode);
        const core::ClassificationClient client(profile, cfg);
        std::optional<core::OtBundle> ot;
        const std::vector<int> labels =
            core::classify_session(client, profile, cfg, ch, samples, rng,
                                   bundle(ot, silent_mode, rng, pool));
        for (std::size_t i = 0; i < samples.size(); ++i) {
          EXPECT_EQ(labels.at(i), model.predict(samples[i]));
        }
      },
      {"95fb4ec17bfbe76749a7679a540d4fe40f9b376751d4ffc49655cb59d76d1893",
       "3a1dcd52c1a9e5e5ee2651be4e352c864887d2bb9cedd9825194d27732509f7b"},
      {"42ec63b0f1b53d918cfdc38345d38edb31d98007fa2f6dc5dbdefcbab9813f0e",
       "d079a18f74a26e6f85000545193514bea553dc1552149012392c763a741ef531"});
}

}  // namespace
}  // namespace ppds::crypto
