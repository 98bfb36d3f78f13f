// Replays of single lower layers, driven through their public APIs with
// the counts a traced run measured.  Host time inside one Engine::run
// cannot be split from outside, so a traced round replays each lower layer
// alone and charges the replay's cost to that layer; what is left of the
// run is the upper layer's estimated self time.
#include <algorithm>
#include <cstdint>
#include <span>

#include "e2e.hpp"
#include "polaris/des/engine.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/msg/tag_matcher.hpp"
#include "polaris/support/check.hpp"

namespace e2e {
namespace {

std::uint64_t lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

// -- des ---------------------------------------------------------------------

/// Delays span both engine tiers: under 8192 ticks lands in the timer
/// wheel, the rest in the far-future heap.
constexpr std::uint64_t kDesDelaySpread = 16384;

struct DesCtx {
  des::Engine* engine = nullptr;
  std::uint64_t remaining = 0;  ///< events still to schedule
  std::uint64_t state = 1;
};

void des_cb(void* ctx) {
  auto* c = static_cast<DesCtx*>(ctx);
  if (c->remaining == 0) return;
  --c->remaining;
  const auto dt =
      static_cast<des::SimTime>(1 + lcg(c->state) % kDesDelaySpread);
  c->engine->schedule_raw_after(dt, des_cb, c);
}

// -- fabric ------------------------------------------------------------------

struct FabricCtx {
  fabric::SimNetwork* net = nullptr;
  std::span<const fabric::NodeId> endpoints;
  std::uint64_t remaining = 0;
  std::uint64_t bytes = 0;
};

/// One endpoint's closed loop: each completion sends the next message,
/// cycling through every other endpoint as destination.
struct Sender {
  FabricCtx* f = nullptr;
  std::size_t index = 0;
  std::size_t hop = 0;
};

void send_next(Sender& s);

void fabric_done_cb(void* ctx, fabric::XferStatus /*status*/) {
  send_next(*static_cast<Sender*>(ctx));
}

void send_next(Sender& s) {
  FabricCtx& f = *s.f;
  if (f.remaining == 0) return;
  --f.remaining;
  const std::size_t n = f.endpoints.size();
  s.hop = s.hop % (n - 1) + 1;
  f.net->transfer_raw(f.endpoints[s.index], f.endpoints[(s.index + s.hop) % n],
                      f.bytes, fabric_done_cb, &s);
}

}  // namespace

Replay replay_des(std::uint64_t events, std::size_t depth) {
  Replay r;
  if (events == 0) return r;
  depth = std::clamp<std::size_t>(depth, 1, events);
  des::Engine engine;
  DesCtx ctx{&engine, events - depth, 0x9E3779B97F4A7C15ull};
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < depth; ++i) {
    const auto t =
        static_cast<des::SimTime>(1 + lcg(ctx.state) % kDesDelaySpread);
    engine.schedule_raw_at(t, des_cb, &ctx);
  }
  engine.run();
  r.seconds = seconds_since(t0);
  r.events = engine.stats().executed;
  r.ns_per_op = r.seconds * 1e9 / static_cast<double>(r.events);
  return r;
}

Replay replay_fabric(const fabric::Topology& topology,
                     const fabric::FabricParams& params,
                     std::span<const fabric::NodeId> endpoints,
                     std::uint64_t messages, std::uint64_t bytes) {
  Replay r;
  if (messages == 0 || endpoints.size() < 2) return r;
  des::Engine engine;
  fabric::SimNetwork net(engine, params, topology);
  FabricCtx ctx{&net, endpoints, messages, bytes};
  std::vector<Sender> senders(endpoints.size());
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < senders.size(); ++i) {
    senders[i] = Sender{&ctx, i, 0};
    send_next(senders[i]);
  }
  engine.run();
  r.seconds = seconds_since(t0);
  r.events = engine.stats().executed;
  r.ns_per_op = r.seconds * 1e9 / static_cast<double>(messages);
  r.bypass_rate = net.stats().bypass_rate();
  return r;
}

Replay replay_msg(std::uint64_t posts, double unexpected_share,
                  std::size_t depth) {
  Replay r;
  if (posts == 0) return r;
  depth = std::max<std::size_t>(depth, 1);
  const auto threshold =
      static_cast<std::uint64_t>(unexpected_share * 2147483648.0);  // 2^31
  msg::TagMatcher<std::uint64_t> matcher;
  std::vector<bool> early(depth);
  std::uint64_t state = 0x2545F4914F6CDD1Dull;
  std::uint64_t matched = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t done = 0; done < posts;) {
    const auto batch =
        static_cast<std::size_t>(std::min<std::uint64_t>(depth, posts - done));
    // Within a batch every (src, tag) pair is distinct, so receive j
    // matches exactly message j whichever side comes first.
    const auto env = [](std::size_t j) {
      return msg::Envelope<std::uint64_t>{static_cast<int>(j % 64),
                                          static_cast<int>(j / 64), 8, j};
    };
    for (std::size_t j = 0; j < batch; ++j) {
      early[j] = lcg(state) < threshold;
      if (early[j]) matcher.arrive(env(j));
    }
    for (std::size_t j = 0; j < batch; ++j) {
      if (matcher.post_recv(done + j, static_cast<int>(j % 64),
                            static_cast<int>(j / 64))) {
        ++matched;
      }
    }
    for (std::size_t j = 0; j < batch; ++j) {
      if (!early[j] && matcher.arrive(env(j))) ++matched;
    }
    done += batch;
  }
  r.seconds = seconds_since(t0);
  POLARIS_CHECK(matched == posts);
  r.ns_per_op = r.seconds * 1e9 / static_cast<double>(2 * posts);
  return r;
}

}  // namespace e2e
