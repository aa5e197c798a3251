#include "ppds/core/session.hpp"

#include <optional>

#include "ppds/common/hex.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/net/framing.hpp"

namespace ppds::core {

namespace {

// Version 2: the hello carries a client-proposed u64 session id; both
// endpoints adopt it after a successful handshake, so every later frame is
// pinned to this session (net/framing.hpp).
constexpr std::uint32_t kProtocolVersion = 2;
constexpr std::uint8_t kMagic[4] = {'P', 'P', 'D', 'S'};

}  // namespace

crypto::Digest protocol_digest(const ClassificationProfile& profile,
                               const SchemeConfig& config) {
  ByteWriter w;
  w.u32(kProtocolVersion);
  w.u64(profile.input_dim);
  w.u64(profile.poly_arity);
  w.u32(profile.declared_degree);
  profile.kernel.serialize(w);
  // The monomial basis must match exactly. make() hashed its DAG once;
  // bind that digest. An empty basis (linear kernel) writes the count only.
  w.u64(profile.monomials.size());
  if (!profile.monomials.empty()) {
    detail::require(profile.basis_digest.has_value(),
                    "protocol_digest: monomial basis without a basis digest");
    w.raw(*profile.basis_digest);
  }
  w.u8(static_cast<std::uint8_t>(config.ot_engine));
  w.u8(static_cast<std::uint8_t>(config.group));
  // The silent offline phase changes the precomputed-OT wire format (seed
  // agreement + correction blocks instead of DH batches), so it is part of
  // the protocol identity.
  w.u8(config.silent_precompute ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(config.ompe.backend));
  w.u32(config.ompe.q);
  w.u32(config.ompe.k);
  w.u32(config.ompe.frac_bits);
  w.f64(ompe::kRealNodeLo);
  w.f64(ompe::kRealNodeHi);
  // Local performance knobs (ompe.eval_threads, reservoir) are
  // deliberately NOT hashed: they never change wire bytes, so the parties
  // need not agree on them.
  return crypto::sha256(w.data());
}

namespace {

/// Server half of the hello/ack exchange. Classification hellos carry a
/// u64 query count after the session id, bounded by \p max_queries;
/// similarity hellos carry none (nullopt). Returns the count (0 without
/// one) only when both sides agreed; both endpoints have then adopted the
/// client-proposed session id.
std::uint64_t handshake_server(net::Endpoint& channel,
                               const crypto::Digest& mine,
                               std::optional<std::size_t> max_queries) {
  channel.set_stage(net::Stage::kHandshake);
  const Bytes hello = channel.recv();
  ByteReader r(hello);
  const Bytes magic = r.raw(4);
  if (!std::equal(magic.begin(), magic.end(), kMagic)) {
    throw ProtocolError("session: bad magic");
  }
  const std::uint32_t version = r.u32();
  const Bytes theirs = r.raw(mine.size());
  const std::uint64_t session_id = r.u64();
  const std::uint64_t count = max_queries ? r.u64() : 0;
  r.expect_end();

  const bool digests_match =
      std::equal(theirs.begin(), theirs.end(), mine.begin());
  const bool count_ok =
      !max_queries || (count >= 1 && count <= *max_queries);
  const bool acceptable =
      version == kProtocolVersion && digests_match && count_ok;

  ByteWriter ack;
  ack.u8(acceptable ? 1 : 0);
  ack.raw(std::span<const std::uint8_t>(mine.data(), mine.size()));
  channel.send(ack.take());

  if (!acceptable) {
    throw ProtocolError(
        version != kProtocolVersion ? "session: protocol version mismatch"
        : !digests_match            ? "session: parameter digest mismatch"
                                    : "session: unacceptable query count");
  }
  // Every post-handshake frame is pinned to the negotiated session id.
  channel.set_session_id(session_id);
  return count;
}

/// Client half: proposes a session id and, for classification, the query
/// \p count.
void handshake_client(net::Endpoint& channel, const crypto::Digest& mine,
                      Rng& rng, std::optional<std::uint64_t> count) {
  channel.set_stage(net::Stage::kHandshake);
  const std::uint64_t session_id = rng();
  ByteWriter hello;
  hello.raw(std::span<const std::uint8_t>(kMagic, 4));
  hello.u32(kProtocolVersion);
  hello.raw(std::span<const std::uint8_t>(mine.data(), mine.size()));
  hello.u64(session_id);
  if (count) hello.u64(*count);
  channel.send(hello.take());

  const Bytes ack = channel.recv();
  ByteReader r(ack);
  const std::uint8_t status = r.u8();
  const Bytes server_digest = r.raw(mine.size());
  r.expect_end();
  if (status != 1) {
    throw ProtocolError("session: server denied the parameters (digest " +
                        to_hex(server_digest).substr(0, 16) + "... vs ours " +
                        to_hex(mine).substr(0, 16) + "...)");
  }
  channel.set_session_id(session_id);
}

}  // namespace

void serve_session(const ClassificationServer& server,
                   const ClassificationProfile& profile,
                   const SchemeConfig& config, net::Endpoint& channel,
                   Rng& rng, std::size_t max_queries, OtBundle* external) {
  const std::uint64_t count = handshake_server(
      channel, protocol_digest(profile, config), max_queries);
  server.serve(channel, count, rng, external);
}

std::vector<int> classify_session(
    const ClassificationClient& client, const ClassificationProfile& profile,
    const SchemeConfig& config, net::Endpoint& channel,
    const std::vector<std::vector<double>>& samples, Rng& rng,
    OtBundle* external) {
  detail::require(!samples.empty(), "session: no samples");
  handshake_client(channel, protocol_digest(profile, config), rng,
                   samples.size());
  return client.classify_batch(channel, samples, rng, external);
}

crypto::Digest similarity_digest(const svm::Kernel& kernel,
                                 const DataSpace& space,
                                 const SchemeConfig& config) {
  ByteWriter w;
  w.u32(kProtocolVersion);
  w.u8('S');  // domain separation from the classification digest
  kernel.serialize(w);
  w.f64(space.lo);
  w.f64(space.hi);
  w.f64(space.l0);
  w.f64(space.theta0);
  w.u8(static_cast<std::uint8_t>(config.ot_engine));
  w.u8(static_cast<std::uint8_t>(config.group));
  w.u8(config.silent_precompute ? 1 : 0);  // wire-format change: hashed
  w.u32(config.ompe.q);
  w.u32(config.ompe.k);
  w.f64(ompe::kRealNodeLo);
  w.f64(ompe::kRealNodeHi);
  return crypto::sha256(w.data());
}

void serve_similarity_session(const SimilarityServer& server,
                              const svm::Kernel& kernel,
                              const DataSpace& space,
                              const SchemeConfig& config,
                              net::Endpoint& channel, Rng& rng) {
  handshake_server(channel, similarity_digest(kernel, space, config),
                   std::nullopt);
  server.serve(channel, rng);
}

double evaluate_similarity_session(const SimilarityClient& client,
                                   const svm::Kernel& kernel,
                                   const DataSpace& space,
                                   const SchemeConfig& config,
                                   net::Endpoint& channel, Rng& rng) {
  handshake_client(channel, similarity_digest(kernel, space, config), rng,
                   std::nullopt);
  return client.evaluate(channel, rng);
}

}  // namespace ppds::core
