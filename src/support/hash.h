/**
 * @file
 * FNV-1a 64-bit: the serve caches' content keys and the witness
 * digest over a trace stream (obs::DigestSink).
 */
#ifndef CHERISEM_SUPPORT_HASH_H
#define CHERISEM_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>

namespace cherisem {

/** The FNV-1a 64-bit offset basis: the hash of no bytes. */
constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/** FNV-1a 64-bit over @p data, continuing from @p h. */
inline uint64_t
fnv1a(const void *data, size_t n, uint64_t h = kFnv1aBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace cherisem

#endif // CHERISEM_SUPPORT_HASH_H
