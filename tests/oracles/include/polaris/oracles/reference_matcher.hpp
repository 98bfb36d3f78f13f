// Reference tag matcher: the original linear-scan implementation, kept as
// the semantic oracle for the bucketed TagMatcher
// (polaris/msg/tag_matcher.hpp).  It lives in the polaris_oracles test
// library, outside polaris_msg.
//
// Every operation scans a deque — O(posted) per arrival, O(unexpected) per
// posted receive — which is the textbook-correct statement of MPI matching
// semantics: an arriving message matches the OLDEST matching posted
// receive; a newly posted receive matches the OLDEST matching unexpected
// message; receives may wildcard source and/or tag.  The randomized
// equivalence suite (tests/msg/matcher_equivalence_test.cpp) drives this
// and the production matcher through identical traffic and requires
// identical decisions, depths and stats.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "polaris/msg/tag_matcher.hpp"
#include "polaris/support/check.hpp"

namespace polaris::msg {

template <typename Cookie>
class ReferenceTagMatcher {
 public:
  using EnvelopeT = Envelope<Cookie>;

  /// Posts a receive for (src, tag); src/tag may be wildcards.
  /// If an unexpected message already matches, returns its envelope and the
  /// receive completes immediately; otherwise the receive is queued under
  /// `id` and std::nullopt is returned.
  std::optional<EnvelopeT> post_recv(RecvId id, int src, int tag) {
    ++stats_.posted;
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (matches(src, tag, it->src, it->tag)) {
        EnvelopeT env = std::move(*it);
        unexpected_.erase(it);
        ++stats_.matched_unexpected;
        return env;
      }
    }
    posted_.push_back(PostedRecv{id, src, tag});
    stats_.max_posted_depth = std::max(stats_.max_posted_depth,
                                       posted_.size());
    return std::nullopt;
  }

  /// Delivers an arriving message.  If a posted receive matches, returns
  /// its RecvId (the receive completes); otherwise the envelope joins the
  /// unexpected queue and std::nullopt is returned.
  std::optional<RecvId> arrive(EnvelopeT env) {
    ++stats_.arrived;
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (matches(it->src, it->tag, env.src, env.tag)) {
        const RecvId id = it->id;
        posted_.erase(it);
        ++stats_.matched_posted;
        matched_envelope_ = std::move(env);
        return id;
      }
    }
    unexpected_.push_back(std::move(env));
    stats_.max_unexpected_depth =
        std::max(stats_.max_unexpected_depth, unexpected_.size());
    return std::nullopt;
  }

  /// The envelope consumed by the most recent successful arrive() match.
  /// Valid until the next arrive().
  const EnvelopeT& last_matched() const { return matched_envelope_; }

  /// Removes a queued posted receive; false if it already matched.
  bool cancel_recv(RecvId id) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (it->id == id) {
        posted_.erase(it);
        ++stats_.cancelled;
        return true;
      }
    }
    return false;
  }

  /// Non-destructive probe: the oldest unexpected message matching
  /// (src, tag), or nullptr.  The view is valid until the next mutation.
  const EnvelopeT* probe(int src, int tag) const {
    for (const auto& env : unexpected_) {
      if (matches(src, tag, env.src, env.tag)) return &env;
    }
    return nullptr;
  }

  std::size_t posted_depth() const { return posted_.size(); }
  std::size_t unexpected_depth() const { return unexpected_.size(); }
  const MatchStats& stats() const { return stats_; }

 private:
  struct PostedRecv {
    RecvId id;
    int src;
    int tag;
  };

  /// Receive-side wildcard matching: recv (rs, rt) accepts message (ms, mt).
  static bool matches(int rs, int rt, int ms, int mt) {
    POLARIS_DCHECK(ms != kAnySource && mt != kAnyTag);
    return (rs == kAnySource || rs == ms) && (rt == kAnyTag || rt == mt);
  }

  std::deque<PostedRecv> posted_;
  std::deque<EnvelopeT> unexpected_;
  EnvelopeT matched_envelope_{};
  MatchStats stats_;
};

}  // namespace polaris::msg
