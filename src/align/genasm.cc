#include "src/align/genasm.h"

#include <algorithm>
#include <vector>

#include "src/align/bitalign_core.h"
#include "src/util/bitvector.h"
#include "src/util/check.h"
#include "src/util/dna.h"

namespace segram::align
{

GenAsmResult
genAsmAlign(std::string_view text, std::string_view pattern, int k)
{
    AlignScratch scratch;
    return genAsmAlign(text, pattern, k, scratch);
}

GenAsmResult
genAsmAlign(std::string_view text, std::string_view pattern, int k,
            AlignScratch &scratch)
{
    SEGRAM_CHECK(!text.empty(), "text must be non-empty");
    SEGRAM_CHECK(k >= 0, "edit distance threshold must be >= 0");
    scratch.pm.assign(pattern);
    const PatternBitmasks &pm = scratch.pm;
    const int n = static_cast<int>(text.size());
    const int nwords = pm.nwords;
    const int msb = pm.m - 1;

    // Rolling columns: old = column i+1, cur = column i, both carved
    // from the shared word slab. The virtual column n encodes "past
    // the text end": at edit level d, a pattern suffix of length <= d
    // can still be consumed by insertions only, so bits [0, d) start
    // clear; everything else is 1.
    const size_t levels = static_cast<size_t>(k) + 1;
    const size_t column_words =
        bitops::WordSlab::padded(levels * nwords);
    scratch.slab.reset(2 * column_words);
    uint64_t *old_r = scratch.slab.take(levels * nwords);
    uint64_t *cur_r = scratch.slab.take(levels * nwords);
    bitops::fillOnes(old_r, static_cast<int>(levels) * nwords);
    for (int d = 1; d <= k; ++d) {
        uint64_t *vec = old_r + static_cast<size_t>(d) * nwords;
        for (int b = 0; b < std::min(d, pm.m); ++b)
            bitops::clearBit(vec, b);
    }

    GenAsmResult best;
    for (int i = n - 1; i >= 0; --i) {
        const uint8_t code = baseToCode(text[i]);
        SEGRAM_CHECK(code != kInvalidBaseCode,
                     "text contains a non-ACGT character");
        const uint64_t *mask = pm.masks[code].data();

        // R[0] = (oldR[0] << 1) | PM.
        bitops::shiftLeftOneOr(cur_r, old_r, mask, nwords);
        for (int d = 1; d <= k; ++d) {
            uint64_t *rd = cur_r + static_cast<size_t>(d) * nwords;
            const uint64_t *cur_prev =
                cur_r + static_cast<size_t>(d - 1) * nwords;
            const uint64_t *old_prev =
                old_r + static_cast<size_t>(d - 1) * nwords;
            const uint64_t *old_same =
                old_r + static_cast<size_t>(d) * nwords;
            // I & D & S & M in one fused sweep (I = curR[d-1] << 1,
            // D = oldR[d-1], S = oldR[d-1] << 1,
            // M = (oldR[d] << 1) | PM).
            bitops::fusedCell(rd, cur_prev, old_prev, old_same, mask,
                              nwords);
        }

        // A clear bit m-1 at level d means "pattern aligns starting at
        // text position i with <= d edits". Track the best (d, then
        // leftmost i — later iterations have smaller i).
        for (int d = 0; d <= k; ++d) {
            if (best.found && d > best.editDistance)
                break;
            const uint64_t *rd =
                cur_r + static_cast<size_t>(d) * nwords;
            if (!bitops::testBit(rd, msb)) {
                if (!best.found || d < best.editDistance ||
                    (d == best.editDistance && i < best.textStart)) {
                    best.found = true;
                    best.editDistance = d;
                    best.textStart = i;
                }
                break;
            }
        }
        std::swap(old_r, cur_r);
    }
    return best;
}

} // namespace segram::align
