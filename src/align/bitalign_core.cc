#include "src/align/bitalign_core.h"

#include <algorithm>

#include "src/align/bitalign_walk.h"
#include "src/util/bitvector.h"
#include "src/util/check.h"
#include "src/util/dna.h"

namespace segram::align
{

using bitops::clearBit;
using bitops::testBit;

PatternBitmasks
PatternBitmasks::build(std::string_view pattern)
{
    PatternBitmasks out;
    out.assign(pattern);
    return out;
}

void
PatternBitmasks::assign(std::string_view pattern)
{
    SEGRAM_CHECK(!pattern.empty(), "pattern must be non-empty");
    m = static_cast<int>(pattern.size());
    nwords = bitops::wordsForWidth(m);
    for (auto &mask : masks) {
        mask.assign(nwords, ~uint64_t{0});
    }
    for (int b = 0; b < m; ++b) {
        const char base = pattern[m - 1 - b];
        const uint8_t code = baseToCode(base);
        SEGRAM_CHECK(code != kInvalidBaseCode,
                     "pattern contains a non-ACGT character");
        clearBit(masks[code].data(), b);
    }
}

namespace
{

/**
 * Shared state of one window computation: the flat allR store plus the
 * virtual sink vectors of the recurrence, all carved 64-byte-aligned
 * from the caller's reusable word slab (zero heap traffic once the
 * slab is warm).
 */
class WindowComputation
{
  public:
    WindowComputation(const graph::LinearizedGraphView &text,
                      std::string_view pattern, int k,
                      AlignScratch &scratch)
        : text_(text), k_(k), n_(text.size())
    {
        scratch.pm.assign(pattern);
        pm_ = &scratch.pm;
        nwords_ = pm_->nwords;
        SEGRAM_CHECK(n_ > 0, "window text must be non-empty");
        SEGRAM_CHECK(k >= 0, "edit distance threshold must be >= 0");
        const size_t levels = static_cast<size_t>(k) + 1;
        using bitops::WordSlab;
        const size_t r_words =
            WordSlab::padded(static_cast<size_t>(n_) * levels * nwords_);
        const size_t v_words = WordSlab::padded(levels * nwords_);
        scratch.slab.reset(r_words + v_words);
        all_r_ = scratch.slab.take(static_cast<size_t>(n_) * levels *
                                   nwords_);
        virtual_r_ = scratch.slab.take(levels * nwords_);
        // The virtual successor of sink nodes: at edit level d, a
        // pattern suffix of length <= d can still be consumed past the
        // text end using insertions only, so bits [0, d) are clear.
        for (int d = 0; d <= k; ++d) {
            uint64_t *vec = virtualR(d);
            bitops::fillOnes(vec, nwords_);
            for (int b = 0; b < std::min(d, pm_->m); ++b)
                bitops::clearBit(vec, b);
        }
    }

    /** @return Pointer to R[i][d]. */
    uint64_t *
    r(int i, int d)
    {
        return all_r_ + (static_cast<size_t>(i) * (k_ + 1) + d) * nwords_;
    }

    const uint64_t *
    r(int i, int d) const
    {
        return all_r_ + (static_cast<size_t>(i) * (k_ + 1) + d) * nwords_;
    }

    /** @return The virtual sink-successor vector at level @p d. */
    uint64_t *
    virtualR(int d)
    {
        return virtual_r_ + static_cast<size_t>(d) * nwords_;
    }

    const uint64_t *
    virtualR(int d) const
    {
        return virtual_r_ + static_cast<size_t>(d) * nwords_;
    }

    /**
     * Fills allR for the whole window (Algorithm 1 lines 7-24). The
     * 1- and 2-word windows of the mapping path bind the recurrence to
     * a compile-time word count, so every primitive unrolls into
     * straight-line register code; wider patterns run the same
     * primitives with a runtime word count.
     */
    void
    computeBitvectors()
    {
        switch (nwords_) {
        case 1:
            computeBitvectorsWith(bitops::Words<1>{});
            break;
        case 2:
            computeBitvectorsWith(bitops::Words<2>{});
            break;
        default:
            computeBitvectorsWith(nwords_);
            break;
        }
    }

    /**
     * The recurrence proper. Per cell, the I/D/S/M term sequence is
     * collapsed into fused single-sweep ops (each term re-read and
     * re-wrote the destination before); the common single-successor
     * case — every position inside a linear run — takes a hoisted,
     * branch-free path whose d-levels are one fusedCell each, so the
     * word loop is the innermost loop and all lanes stay hot.
     */
    template <bitops::WordCount W>
    void
    computeBitvectorsWith(const W nw)
    {
        using bitops::andShiftAnd;
        using bitops::fusedCell;
        using bitops::shiftLeftOneOr;
        using bitops::shiftLeftOneOrAnd;
        for (int i = n_ - 1; i >= 0; --i) {
            const uint64_t *pm = pm_->masks[text_.code(i)].data();
            const auto succs = text_.successorDeltas(i);
            uint64_t *r0 = r(i, 0);

            if (succs.size() == 1) {
                // Single successor (linear run): the whole column is
                // one fused op per level, no merging.
                const uint64_t *succ_r = r(i + succs[0], 0);
                shiftLeftOneOr(r0, succ_r, pm, nw);
                for (int d = 1; d <= k_; ++d) {
                    // succ_r walks the successor's level rows
                    // (contiguous, stride nwords_).
                    fusedCell(r(i, d), r(i, d - 1), succ_r,
                              succ_r + nwords_, pm, nw);
                    succ_r += nwords_;
                }
            } else if (succs.empty()) {
                // Sink node: run the recurrence against the virtual
                // successor so alignments may run off the text end
                // (trailing read chars become insertions).
                shiftLeftOneOr(r0, virtualR(0), pm, nw);
                for (int d = 1; d <= k_; ++d) {
                    fusedCell(r(i, d), r(i, d - 1), virtualR(d - 1),
                              virtualR(d), pm, nw);
                }
            } else {
                // Hop fan-out: fold every successor into the column.
                // The first initializes it (no fillOnes pass), the
                // rest AND in via the fused combo ops.
                shiftLeftOneOr(r0, r(i + succs[0], 0), pm, nw);
                for (size_t s = 1; s < succs.size(); ++s)
                    shiftLeftOneOrAnd(r0, r(i + succs[s], 0), pm, nw);
                for (int d = 1; d <= k_; ++d) {
                    uint64_t *rd = r(i, d);
                    const int j0 = i + succs[0];
                    fusedCell(rd, r(i, d - 1), r(j0, d - 1), r(j0, d),
                              pm, nw);
                    for (size_t s = 1; s < succs.size(); ++s) {
                        const int j = i + succs[s];
                        andShiftAnd(rd, r(j, d - 1), nw); // D & S
                        shiftLeftOneOrAnd(rd, r(j, d), pm, nw); // M
                    }
                }
            }
        }
    }

    /**
     * Bit-probe accessor binding the shared find/traceback walks
     * (bitalign_walk.h) to this window's contiguous R storage. The
     * whole-read bit m-1 lives in one word of each vector; its word
     * index and mask are resolved once so the SemiGlobal scan is one
     * strided load per probe.
     */
    struct Accessor
    {
        const WindowComputation &wc;
        int msb_word;
        uint64_t msb_mask;

        bool
        msbClear(int i, int d) const
        {
            return !(wc.r(i, d)[msb_word] & msb_mask);
        }
        bool
        rBitClear(int i, int d, int b) const
        {
            return !testBit(wc.r(i, d), b);
        }
        bool
        virtualBitClear(int d, int b) const
        {
            return !testBit(wc.virtualR(d), b);
        }
    };

    Accessor
    accessor() const
    {
        const int msb = pm_->m - 1;
        return {*this, msb >> 6, uint64_t{1} << (msb & 63)};
    }

    /** Best-hit scan; see detail::findBestStart for the contract. */
    int
    findBest(AlignMode mode, int *best_start) const
    {
        return detail::findBestStart(accessor(), n_, k_, mode,
                                     best_start);
    }

    /** Traceback walk; see detail::tracebackWalk for the contract. */
    void
    traceback(int start, int d, WindowResult *result) const
    {
        detail::tracebackWalk(accessor(), text_, *pm_, start, d, result);
    }

  private:
    const graph::LinearizedGraphView text_;
    const int k_;
    const PatternBitmasks *pm_ = nullptr; ///< scratch-owned masks
    const int n_;
    int nwords_ = 0;
    // Raw sub-arrays of the caller's slab; valid until its next reset.
    uint64_t *all_r_ = nullptr;
    uint64_t *virtual_r_ = nullptr;
};

void
run(const graph::LinearizedGraphView &text, std::string_view pattern,
    int k, AlignMode mode, bool want_traceback, AlignScratch &scratch,
    WindowResult &result)
{
    result.clear();
    WindowComputation computation(text, pattern, k, scratch);
    computation.computeBitvectors();

    int start = 0;
    const int dist = computation.findBest(mode, &start);
    if (dist < 0)
        return;
    result.found = true;
    result.startPos = start;
    result.editDistance = dist;
    if (want_traceback) {
        computation.traceback(start, dist, &result);
        // The traceback alignment can only realize the minimal distance.
        SEGRAM_DCHECK(static_cast<int>(result.cigar.editDistance()) == dist,
                      "traceback must realize the minimal distance");
        result.editDistance =
            static_cast<int>(result.cigar.editDistance());
    }
}

} // namespace

WindowResult
alignWindow(const graph::LinearizedGraphView &text,
            std::string_view pattern, int k, AlignMode mode)
{
    AlignScratch scratch;
    WindowResult result;
    run(text, pattern, k, mode, true, scratch, result);
    return result;
}

void
alignWindow(const graph::LinearizedGraphView &text,
            std::string_view pattern, int k, AlignMode mode,
            AlignScratch &scratch, WindowResult &out)
{
    run(text, pattern, k, mode, true, scratch, out);
}

WindowResult
alignWindowDistanceOnly(const graph::LinearizedGraphView &text,
                        std::string_view pattern, int k, AlignMode mode)
{
    AlignScratch scratch;
    WindowResult result;
    run(text, pattern, k, mode, false, scratch, result);
    return result;
}

void
alignWindowDistanceOnly(const graph::LinearizedGraphView &text,
                        std::string_view pattern, int k, AlignMode mode,
                        AlignScratch &scratch, WindowResult &out)
{
    run(text, pattern, k, mode, false, scratch, out);
}

} // namespace segram::align
