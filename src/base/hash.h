/**
 * @file
 * FNV-1a 64-bit hash: the one non-cryptographic hash of the code base.
 * Trace-store file names key on it (sim/tracestore.cc) and reference
 * stream fingerprints fold every delivered record through it
 * (sim/streamdigest.h).
 */
#ifndef SPLASH2_BASE_HASH_H
#define SPLASH2_BASE_HASH_H

#include <cstddef>
#include <cstdint>

namespace splash {

/** FNV-1a 64-bit offset basis: the hash of the empty input. */
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;

/** Fold @p n bytes at @p data into the running FNV-1a hash @p h. */
inline std::uint64_t
fnv1a64(const void* data, std::size_t n, std::uint64_t h = kFnv1a64Basis)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace splash

#endif // SPLASH2_BASE_HASH_H
