#include "numerics/simd.hpp"

namespace pfm::num::simd {

const char* backend_name() noexcept {
#if defined(__x86_64__)
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2 ? "avx2" : "scalar";
#elif defined(__aarch64__)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace pfm::num::simd
