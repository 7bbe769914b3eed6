#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "numerics/rng.hpp"

namespace pfm::core {

/// The one seed mixer (splitmix64 finalizer) behind every seeded stream;
/// it lives in numerics next to the Rng it seeds.
using num::mix64;

/// Deterministic contiguous-block partition of a fleet into shards: shard
/// `s` owns the global node indices [begin(s), end(s)). Blocks differ in
/// size by at most one node and the mapping is a pure function of
/// (num_nodes, num_shards), so every component that needs to translate
/// between global and (shard, local) addressing — the runtime's shard
/// controllers, fault plans, telemetry labels — derives the same answer
/// without sharing state.
struct ShardLayout {
  std::size_t num_nodes = 0;
  std::size_t num_shards = 1;

  ShardLayout() = default;
  ShardLayout(std::size_t nodes, std::size_t shards)
      : num_nodes(nodes), num_shards(shards) {
    validate();
  }

  void validate() const {
    if (num_shards == 0) {
      throw std::invalid_argument("ShardLayout: num_shards must be >= 1");
    }
    if (num_nodes < num_shards) {
      throw std::invalid_argument(
          "ShardLayout: need at least one node per shard");
    }
  }

  /// First global node index of shard `s`.
  std::size_t begin(std::size_t s) const noexcept {
    return s * num_nodes / num_shards;
  }
  /// One past the last global node index of shard `s`.
  std::size_t end(std::size_t s) const noexcept {
    return (s + 1) * num_nodes / num_shards;
  }
  std::size_t size(std::size_t s) const noexcept {
    return end(s) - begin(s);
  }

  /// Global index of local node `local` of shard `s`. Throws
  /// std::out_of_range for an address outside the layout.
  std::size_t global_index(std::size_t s, std::size_t local) const {
    if (s >= num_shards || local >= size(s)) {
      throw std::out_of_range("ShardLayout: bad (shard, node) address");
    }
    return begin(s) + local;
  }

  /// Shard owning global node `node`. Throws std::out_of_range when the
  /// node is outside the layout.
  std::size_t shard_of(std::size_t node) const {
    if (node >= num_nodes) {
      throw std::out_of_range("ShardLayout: node outside the layout");
    }
    // begin() is monotone in s; the closed-form guess can be off by at
    // most one block with uneven sizes, so nudge it into place.
    std::size_t s = node * num_shards / num_nodes;
    if (s >= num_shards) s = num_shards - 1;
    while (node < begin(s)) --s;
    while (node >= end(s)) ++s;
    return s;
  }

  /// Local index of global node `node` inside its owning shard.
  std::size_t local_index(std::size_t node) const {
    return node - begin(shard_of(node));
  }
};

}  // namespace pfm::core
