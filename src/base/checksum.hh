#ifndef KCM_BASE_CHECKSUM_HH
#define KCM_BASE_CHECKSUM_HH

#include <cstddef>
#include <cstdint>
#include <string>

/**
 * FNV-1a-64 checksum helpers shared by the on-disk clause-store
 * journal and the content-hash keys in the tree (the image-template
 * cache key, the clause store's ArgKey hash). The snapshot container
 * does not use FNV-1a: its section checksum (core/snapshot.cc) reads
 * eight bytes per step, with this file's prime.
 *
 * Two offset bases are exposed:
 *
 *  - fnvOffsetBasis: the standard FNV-1a-64 offset basis. New formats
 *    and keys use this.
 *  - fnvLegacyBasis: the basis the clause store's ArgKey hash shipped
 *    with (a historical truncation of the standard constant). It is
 *    load-bearing: the ArgKey hash and skiplist heights, and so the
 *    store's scanned counts and simulated cycles, depend on it, so it
 *    is preserved verbatim and documented here instead of silently
 *    duplicated.
 */

namespace kcm
{

constexpr uint64_t fnvOffsetBasis = 14695981039346656037ull;
constexpr uint64_t fnvLegacyBasis = 1469598103934665603ull;
constexpr uint64_t fnvPrime = 1099511628211ull;

/** One-shot FNV-1a-64 over a byte range, from the given basis. */
uint64_t fnv1a64(const void *data, size_t size,
                 uint64_t basis = fnvOffsetBasis);

/** Incremental mix of raw bytes into a running hash. */
void fnvMix(uint64_t &h, const void *data, size_t size);

/** Mix a string plus a length separator (distinguishes ("ab","c")
 *  from ("a","bc") in multi-field keys). */
void fnvMixStr(uint64_t &h, const std::string &s);

/** Mix a trivially copyable value by its object representation. */
template <typename T>
void
fnvMixPod(uint64_t &h, const T &v)
{
    fnvMix(h, &v, sizeof v);
}

} // namespace kcm

#endif // KCM_BASE_CHECKSUM_HH
