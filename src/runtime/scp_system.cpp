#include "runtime/scp_system.hpp"

#include "core/sharding.hpp"

namespace pfm::runtime {

std::uint64_t derive_node_seed(std::uint64_t base_seed,
                               std::size_t node_index) noexcept {
  if (node_index == 0) return base_seed;
  return core::mix64(base_seed, static_cast<std::uint64_t>(node_index) - 1);
}

std::vector<std::unique_ptr<core::ManagedSystem>> make_scp_fleet(
    const telecom::SimConfig& base, std::size_t count) {
  std::vector<std::unique_ptr<core::ManagedSystem>> fleet;
  fleet.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    telecom::SimConfig cfg = base;
    cfg.seed = derive_node_seed(base.seed, i);
    fleet.push_back(std::make_unique<ScpManagedSystem>(cfg));
  }
  return fleet;
}

}  // namespace pfm::runtime
