#pragma once

namespace pfm::num::simd {

/// The host's widest f64 vector ISA, as a short tag: "avx2" on x86-64
/// CPUs that support AVX2, "neon" on aarch64, otherwise "scalar". The
/// library computes nothing differently on any of them; the tag is part
/// of a benchmark record's host signature, so records from unlike hosts
/// are never compared.
const char* backend_name() noexcept;

}  // namespace pfm::num::simd
