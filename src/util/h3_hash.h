/**
 * @file
 * H3 universal hashing (Carter & Wegman, STOC'77).
 *
 * H3 is the hash family Talus specifies for its hardware sampling
 * function (Sec. VI-B of the paper): each output bit is the parity of
 * the input ANDed with a random mask. It is cheap in hardware (one XOR
 * tree per output bit) and gives pairwise-independent outputs, which is
 * what Assumption 3 (statistically self-similar sampled streams) needs.
 */

#ifndef TALUS_UTIL_H3_HASH_H
#define TALUS_UTIL_H3_HASH_H

#include <array>
#include <cstdint>

#include "util/types.h"

namespace talus {

/**
 * An H3 hash function from 64-bit inputs to up to 32 output bits.
 *
 * The function is fully determined by its seed, so reconfigurations
 * and repeated runs are reproducible.
 *
 * Evaluation is table-driven: the input is sliced into 8 bytes and
 * each byte indexes a precomputed 256-entry table of partial parities,
 * so a hash is 8 loads and 7 XORs instead of 32 mask-and-popcount
 * steps. The tables are built from the same seeded masks as the
 * bit-serial definition, so outputs are bit-exact for a given seed
 * (hashReference() keeps the definitional form for tests).
 */
class H3Hash
{
  public:
    /**
     * Builds an H3 function.
     *
     * @param out_bits Number of output bits (1..32).
     * @param seed Seed for the random bit masks.
     */
    explicit H3Hash(uint32_t out_bits = 8, uint64_t seed = 0x1905'CAFE);

    /**
     * Hashes a line address to out_bits bits.
     *
     * Zero bytes contribute table_[b][0] == 0, so small addresses take
     * 2 or 4 table loads instead of 8. The early-outs are branches on
     * the address: they predict well only while the stream stays in
     * one address range, and mispredict where address spaces
     * interleave (per-app spaces start at kAddrSpaceShift). Measured
     * on a 2.1 GHz x86-64 host over 4096-address loops, two 32-bit
     * hashes per address cost 3.2-4.1 ns on 20-bit addresses but
     * 4.3-5.3 ns on two interleaved spaces; one H3Pair lookup yields
     * both in 2.3 ns on either. Loops that hash every access with two
     * functions use H3Pair. Bit-exact with the full evaluation for
     * every input.
     */
    uint32_t hash(Addr addr) const
    {
        const uint32_t low = table_[0][addr & 0xFF] ^
                             table_[1][(addr >> 8) & 0xFF];
        if ((addr >> 16) == 0)
            return low;
        const uint32_t mid = table_[2][(addr >> 16) & 0xFF] ^
                             table_[3][(addr >> 24) & 0xFF];
        if ((addr >> 32) == 0)
            return low ^ mid;
        return low ^ mid ^
               table_[4][(addr >> 32) & 0xFF] ^
               table_[5][(addr >> 40) & 0xFF] ^
               table_[6][(addr >> 48) & 0xFF] ^
               table_[7][(addr >> 56) & 0xFF];
    }

    /** Hashes to a real number in [0, 1). */
    double hashUnit(Addr addr) const
    {
        return static_cast<double>(hash(addr)) /
               static_cast<double>(range());
    }

    /**
     * The definitional bit-serial evaluation (one parity per output
     * bit). Bit-exact with hash(); kept as the reference the golden
     * tests pin the tables against.
     */
    uint32_t hashReference(Addr addr) const;

    /** Number of output bits. */
    uint32_t outBits() const { return outBits_; }

    /** Largest hash value + 1 (i.e., 2^outBits). 64-bit so that
     *  outBits == 32 does not overflow. */
    uint64_t range() const { return 1ull << outBits_; }

  private:
    uint32_t outBits_;
    std::array<uint64_t, 32> masks_;
    // table_[b][v]: XOR-parity contribution of input byte b holding
    // value v, one bit per output bit; table_[b][0] == 0.
    std::array<std::array<uint32_t, 256>, 8> table_{};
};

/**
 * Two 32-bit H3 functions evaluated by one lookup.
 *
 * H3 is linear over GF(2) (hash(x ^ y) == hash(x) ^ hash(y)), so the
 * byte-slice tables hold table[b][v] == hash(v << 8b), and two
 * functions' tables can share one table of 64-bit entries: the low
 * half is H3Hash(32, low_seed)'s entry, the high half
 * H3Hash(32, high_seed)'s. hash() is then one branch-free 8-load,
 * 7-XOR lookup that yields both functions bit for bit. The table
 * (16 KB) has the size of the two 32-bit tables it stands in for.
 * CombinedUMon samples both of its monitors with one pair.
 */
class H3Pair
{
  public:
    H3Pair(uint64_t low_seed, uint64_t high_seed);

    /** H3Hash(32, low_seed).hash(addr) in the low 32 bits,
     *  H3Hash(32, high_seed).hash(addr) in the high 32 bits. */
    uint64_t hash(Addr addr) const
    {
        return table_[0][addr & 0xFF] ^ table_[1][(addr >> 8) & 0xFF] ^
               table_[2][(addr >> 16) & 0xFF] ^
               table_[3][(addr >> 24) & 0xFF] ^
               table_[4][(addr >> 32) & 0xFF] ^
               table_[5][(addr >> 40) & 0xFF] ^
               table_[6][(addr >> 48) & 0xFF] ^
               table_[7][(addr >> 56) & 0xFF];
    }

  private:
    std::array<std::array<uint64_t, 256>, 8> table_{};
};

} // namespace talus

#endif // TALUS_UTIL_H3_HASH_H
