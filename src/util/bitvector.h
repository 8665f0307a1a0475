/**
 * @file
 * Multi-word bit arrays, the data type that the Bitap/GenASM/BitAlign
 * status vectors (R[d]) are made of, and the per-window word
 * primitives of the BitAlign recurrence.
 *
 * Conventions follow the active-low Bitap family used throughout SeGraM:
 * a 0 bit means "match so far", a 1 bit means "no match". Shifting left
 * brings a 0 into the least-significant bit, which is exactly the
 * behaviour the recurrences in Algorithm 1 of the paper need. Arrays
 * are flat runs of 64-bit words, least-significant word first.
 *
 * Each primitive is defined once, here. Its word count is a parameter
 * type: a runtime `int`, or `Words<N>` (a std::integral_constant) for
 * the 1- and 2-word windows of the mapping path, where the word loop
 * fully unrolls and every carry lives in a register. Both instances
 * run the same body, so they agree word for word. The lane-batched
 * recurrence column (bitops::KernelOps, src/util/bitops_simd.h) is
 * the only vectorized kernel; every per-window op is scalar.
 *
 * Aliasing contract: dst == src (full overlap) is allowed for the
 * shifting ops (shiftLeftOneOr, shiftLeftOneOrAnd, andShiftAnd): each
 * word of src is read before the same word of dst is written, and the
 * carry is kept in a register. Partial overlap is not allowed.
 * fusedCell writes a fresh destination: dst must not overlap any
 * source.
 */

#ifndef SEGRAM_SRC_UTIL_BITVECTOR_H
#define SEGRAM_SRC_UTIL_BITVECTOR_H

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "src/util/check.h"

namespace segram::bitops
{

/** Payload bits per storage word. */
constexpr int kBitsPerWord = 64;

/** @return Words needed to hold @p width bits. */
inline int
wordsForWidth(int width)
{
    return (width + kBitsPerWord - 1) / kBitsPerWord;
}

/** @return Bit @p pos of the array. */
inline bool
testBit(const uint64_t *words, int pos)
{
    return (words[pos / kBitsPerWord] >> (pos % kBitsPerWord)) & 1;
}

/** Clears bit @p pos of the array. */
inline void
clearBit(uint64_t *words, int pos)
{
    words[pos / kBitsPerWord] &= ~(uint64_t{1} << (pos % kBitsPerWord));
}

/** A word count fixed at compile time. */
template <int N>
using Words = std::integral_constant<int, N>;

/** A word count: a runtime int, or Words<N>. */
template <class W>
concept WordCount =
    std::same_as<W, int> || std::same_as<W, Words<W::value>>;

/** dst = (src << 1) | mask (0 shifted into bit 0). */
template <WordCount W>
inline void
shiftLeftOneOr(uint64_t *dst, const uint64_t *src, const uint64_t *mask,
               W nwords)
{
    uint64_t carry = 0;
    for (int w = 0; w < nwords; ++w) {
        const uint64_t s = src[w];
        dst[w] = ((s << 1) | carry) | mask[w];
        carry = s >> 63;
    }
}

/**
 * Fused M term: dst &= ((src << 1) | mask). One sweep and no
 * temporary instead of a shiftLeftOneOr into scratch plus an AND.
 */
template <WordCount W>
inline void
shiftLeftOneOrAnd(uint64_t *dst, const uint64_t *src, const uint64_t *mask,
                  W nwords)
{
    uint64_t carry = 0;
    for (int w = 0; w < nwords; ++w) {
        const uint64_t s = src[w];
        dst[w] &= ((s << 1) | carry) | mask[w];
        carry = s >> 63;
    }
}

/**
 * Fused D & S terms: dst &= src & (src << 1). One sweep for the
 * deletion (unshifted) and substitution (shifted) vectors of a
 * successor, which always arrive as the same source.
 */
template <WordCount W>
inline void
andShiftAnd(uint64_t *dst, const uint64_t *src, W nwords)
{
    uint64_t carry = 0;
    for (int w = 0; w < nwords; ++w) {
        const uint64_t s = src[w];
        dst[w] &= s & ((s << 1) | carry);
        carry = s >> 63;
    }
}

/**
 * One whole single-successor recurrence cell in one sweep:
 *
 *   dst = (ins << 1) & ds & (ds << 1) & ((match << 1) | pm)
 *
 * i.e. I & D & S & M with ins = R[i][d-1], ds = R[j][d-1],
 * match = R[j][d]. This is the op the BitAlign PE array computes per
 * cycle: 4 loads and 1 store per word instead of ~6 read-modify-write
 * sweeps per (i, d) cell.
 */
template <WordCount W>
inline void
fusedCell(uint64_t *dst, const uint64_t *ins, const uint64_t *ds,
          const uint64_t *match, const uint64_t *pm, W nwords)
{
    uint64_t ci = 0, cd = 0, cm = 0;
    for (int w = 0; w < nwords; ++w) {
        const uint64_t iv = ins[w];
        const uint64_t dv = ds[w];
        const uint64_t mv = match[w];
        dst[w] = ((iv << 1) | ci) & dv & ((dv << 1) | cd) &
                 (((mv << 1) | cm) | pm[w]);
        ci = iv >> 63;
        cd = dv >> 63;
        cm = mv >> 63;
    }
}

/** Sets all words to all-ones. */
template <WordCount W>
inline void
fillOnes(uint64_t *dst, W nwords)
{
    for (int w = 0; w < nwords; ++w)
        dst[w] = ~uint64_t{0};
}

/**
 * A flat, reusable arena of 64-bit words: the software analogue of the
 * fixed on-chip bitvector scratchpad the BitAlign hardware reuses for
 * every window. Callers reset() it to the total word count they need,
 * then carve disjoint sub-arrays with take(). The backing store only
 * ever grows, so a warm slab serves every subsequent window of the
 * same (or smaller) size without touching the heap.
 *
 * Every carve starts on a 64-byte (cache-line / AVX2-friendly)
 * boundary: take() rounds its argument up to kAlignWords, so callers
 * sizing a reset() must sum padded() carve sizes, not raw ones.
 */
class WordSlab
{
  public:
    /** Alignment of every carve, in bytes (one cache line). */
    static constexpr size_t kAlignBytes = 64;

    /** Alignment of every carve, in words. */
    static constexpr size_t kAlignWords = kAlignBytes / sizeof(uint64_t);

    /** @return @p nwords rounded up to a whole number of carve units
     *          (what one take(nwords) actually consumes).
     *  @throws InputError when the rounding would overflow size_t (a
     *          carve-sizing bug upstream, e.g. a negative extent cast
     *          to size_t). */
    static constexpr size_t
    padded(size_t nwords)
    {
        SEGRAM_CHECK(
            nwords <=
                std::numeric_limits<size_t>::max() - (kAlignWords - 1),
            "WordSlab::padded size overflows");
        return (nwords + kAlignWords - 1) & ~(kAlignWords - 1);
    }

    /**
     * Ensures capacity for @p nwords words of carves (the sum of
     * padded() sizes over the intended takes) and rewinds the carve
     * point. Previously taken pointers are invalidated.
     */
    void
    reset(size_t nwords)
    {
        // One extra alignment unit pays for aligning the vector's base.
        const size_t need = padded(nwords) + kAlignWords;
        if (words_.size() < need)
            words_.resize(need);
        const auto addr = reinterpret_cast<uintptr_t>(words_.data());
        base_ = (kAlignBytes - addr % kAlignBytes) % kAlignBytes /
                sizeof(uint64_t);
        next_ = 0;
        cap_ = padded(nwords);
    }

    /**
     * Carves the next @p nwords words (uninitialized — callers fill
     * them, exactly like freshly selected scratchpad banks), starting
     * on a 64-byte boundary.
     *
     * @throws InputError when the carve exceeds the reset() capacity —
     *         an out-of-bounds bitvector write waiting to happen, so
     *         the exhaustion is always diagnosed, not just in debug
     *         builds (batched carves made sizing errors likelier).
     */
    uint64_t *
    take(size_t nwords)
    {
        // The bound is the *logical* reset() capacity, not the backing
        // vector: the alignment-slack unit must never hide a one-carve
        // overrun, or the error would surface only on unlucky base
        // addresses.
        SEGRAM_CHECK(nwords <= cap_ && next_ <= cap_ - padded(nwords),
                     "WordSlab::take exhausts the reset() capacity");
        uint64_t *out = words_.data() + base_ + next_;
        next_ += padded(nwords);
        return out;
    }

    /** @return Words currently backing the slab (capacity telemetry). */
    size_t capacityWords() const { return words_.size(); }

  private:
    std::vector<uint64_t> words_;
    size_t base_ = 0; ///< words skipped to 64-byte-align the first carve
    size_t next_ = 0; ///< aligned carve offset relative to base_
    size_t cap_ = 0;  ///< padded reset() capacity the carves may use
};

} // namespace segram::bitops

#endif // SEGRAM_SRC_UTIL_BITVECTOR_H
