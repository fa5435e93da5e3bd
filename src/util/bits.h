/**
 * @file
 * Small bit-mixing helpers shared across the library.
 */

#ifndef TALUS_UTIL_BITS_H
#define TALUS_UTIL_BITS_H

#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#include <immintrin.h>
/** Defined where hot loops carry AVX2 forms: functions compiled with
 *  target("avx2") inside a library built for the baseline ISA. */
#define TALUS_AVX2 1
#endif

namespace talus {

#if TALUS_AVX2
/** True once at startup iff the host executes AVX2. Every AVX2 form
 *  sits behind this one predictable branch, with its scalar loop as
 *  the fallback. */
inline const bool kHaveAvx2 = __builtin_cpu_supports("avx2");
#endif

/**
 * splitmix64-style 64-bit finalizer. Used wherever a cheap, high-
 * quality, stateless hash of an address is needed (set indexing,
 * leader-set selection, workload scrambling). Not used for Talus's
 * sampling function itself — that is H3Hash, as in the paper.
 */
inline uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

/** Number of set bits in @p x (C++17 stand-in for std::popcount). */
inline uint32_t
popcount64(uint64_t x)
{
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<uint32_t>(__builtin_popcountll(x));
#else
    uint32_t count = 0;
    while (x != 0) {
        x &= x - 1;
        ++count;
    }
    return count;
#endif
}

/** Low-@p n-bit mask; defined for the full n in [0, 64] range, where
 *  a plain `(1 << n) - 1` would shift out of range at n == 64. */
inline uint64_t
maskLow(uint32_t n)
{
    return n >= 64 ? ~0ull : (1ull << n) - 1;
}

/** Hints the CPU to start loading @p p; no-op where unsupported. Used
 *  on hot paths to overlap independent cold-memory fetches. */
inline void
prefetch(const void* p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
}

} // namespace talus

#endif // TALUS_UTIL_BITS_H
