#include "ppds/core/config.hpp"

#include "ppds/crypto/reservoir.hpp"

namespace ppds::core {

namespace {

/// Builds one role's engine for \p cfg. \p batched is pointed at the
/// precomputed facade (hooked to \p reservoir when given) if there is one.
template <typename Engine, typename Batched, typename Loopback>
std::unique_ptr<Engine> build_engine(const SchemeConfig& cfg, Rng& rng,
                                     crypto::PadReservoir* reservoir,
                                     Batched*& batched) {
  switch (cfg.ot_engine) {
    case OtEngine::kPrecomputed: {
      auto engine = std::make_unique<Batched>(
          crypto::shared_group(cfg.group), rng,
          cfg.silent_precompute ? crypto::OtOffline::kSilent
                                : crypto::OtOffline::kDhBatch);
      if (reservoir != nullptr) engine->attach_reservoir(*reservoir);
      batched = engine.get();
      return engine;
    }
    case OtEngine::kLoopback:
      return std::make_unique<Loopback>();
  }
  throw InvalidArgument("OtBundle: unknown OT engine");
}

/// Merges duplicate arities (reserve() has ensure-at-least semantics, so
/// two blocks of the same arity must be summed before reserving) and scales
/// by the batch size. Order of first appearance is preserved so both
/// parties issue their offline round trips in the same sequence.
std::vector<OtDemand> merge_demands(std::span<const OtDemand> demands,
                                    std::size_t repeat) {
  std::vector<OtDemand> merged;
  for (const OtDemand& d : demands) {
    if (d.count == 0) continue;
    bool found = false;
    for (OtDemand& m : merged) {
      if (m.arity == d.arity) {
        m.count += d.count * repeat;
        found = true;
        break;
      }
    }
    if (!found) merged.push_back(OtDemand{d.arity, d.count * repeat});
  }
  return merged;
}

}  // namespace

OtBundle::OtBundle(const SchemeConfig& cfg, Rng& rng) : cfg_(cfg), rng_(rng) {}

OtBundle::~OtBundle() = default;

std::unique_ptr<OtBundle> OtBundle::for_connection(
    const SchemeConfig& cfg, Rng& rng, crypto::PadReservoir* shared) {
  if (!cfg.silent_precompute) return nullptr;
  auto bundle = std::make_unique<OtBundle>(cfg, rng);
  if (shared == nullptr && cfg.reservoir) {
    bundle->owned_reservoir_ = std::make_unique<crypto::PadReservoir>(1);
    shared = bundle->owned_reservoir_.get();
  }
  if (shared != nullptr) bundle->attach_reservoir(*shared);
  return bundle;
}

void OtBundle::prepare_sender(net::Endpoint& channel,
                              std::span<const OtDemand> demands,
                              std::size_t repeat) {
  sender();
  if (batched_sender_ == nullptr) return;
  for (const OtDemand& d : merge_demands(demands, repeat)) {
    batched_sender_->reserve(channel, d.arity, d.count);
  }
}

void OtBundle::prepare_receiver(net::Endpoint& channel,
                                std::span<const OtDemand> demands,
                                std::size_t repeat) {
  receiver();
  if (batched_receiver_ == nullptr) return;
  for (const OtDemand& d : merge_demands(demands, repeat)) {
    batched_receiver_->reserve(channel, d.arity, d.count);
  }
}

void OtBundle::abort() noexcept {
  if (batched_sender_ != nullptr) batched_sender_->abort();
  if (batched_receiver_ != nullptr) batched_receiver_->abort();
}

void OtBundle::attach_reservoir(crypto::PadReservoir& reservoir) {
  reservoir_ = &reservoir;
  if (batched_sender_ != nullptr) batched_sender_->attach_reservoir(reservoir);
  if (batched_receiver_ != nullptr) {
    batched_receiver_->attach_reservoir(reservoir);
  }
}

crypto::OtSender& OtBundle::sender() {
  if (sender_ == nullptr) {
    sender_ = build_engine<crypto::OtSender, crypto::BatchedOtSender,
                           crypto::LoopbackSender>(cfg_, rng_, reservoir_,
                                                   batched_sender_);
  }
  return *sender_;
}

crypto::OtReceiver& OtBundle::receiver() {
  if (receiver_ == nullptr) {
    receiver_ = build_engine<crypto::OtReceiver, crypto::BatchedOtReceiver,
                             crypto::LoopbackReceiver>(cfg_, rng_, reservoir_,
                                                       batched_receiver_);
  }
  return *receiver_;
}

std::vector<OtDemand> ot_demand_per_query(const ompe::OmpeParams& params,
                                          unsigned degree) {
  const std::size_t m = params.m(degree);
  const std::size_t big_m = params.big_m(degree);
  if (big_m <= crypto::kMaxDirectArity) return {OtDemand{big_m, m}};
  return {OtDemand{2, m * crypto::index_bits(big_m)}};
}

}  // namespace ppds::core
