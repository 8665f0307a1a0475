/**
 * @file
 * Lane-batched BitAlign: up to bitops::kBatchLanes *independent*
 * window alignments computed simultaneously, one per SIMD lane.
 *
 * Vectorizing across the *words* of one window's bitvectors would
 * leave most of each register idle on the mapping path's 1–2-word
 * windows. This layer fills the lanes instead: the R[i][d] state of
 * kBatchLanes windows is kept lane-major (word group j of lane w at
 * index j*kBatchLanes+w), so one batched sweep advances every
 * window's recurrence at once — the software image of GenASM's
 * multi-PE array and the SeGraM HGA's parallel compute rows, which
 * batch independent recurrences exactly this way.
 *
 * Because windows are independent, each lane steps through its *own*
 * column order: step t of lane w processes that window's position
 * n_w - 1 - t. Step 0 is uniformly the window's sink column (window
 * views clip out-of-range hops, so the last position never has a
 * successor) and runs against the virtual sink vectors; every later
 * step assumes the common single-successor chain (delta 1, i.e. the
 * previous step's column). Positions that break that assumption —
 * hop fan-outs, non-unit deltas, interior sinks — are recorded while
 * the pattern-mask stream is built and patched immediately after the
 * fast sweep of their step: the lane's column is re-computed with the
 * scalar per-window primitives (src/util/bitvector.h), in the same
 * op sequence as the per-window path, on densely gathered inputs and
 * scattered back. The patch runs before step t+1 reads column t, so
 * downstream state is always exact and the batched R bits equal the
 * per-window R bits everywhere — traceback (shared via
 * bitalign_walk.h) then reproduces per-window output bit for bit.
 *
 * Lanes whose window is shorter than the longest in the batch retire
 * early: their pattern-mask stream is padded with all-ones, the fast
 * sweep keeps computing harmless garbage in their lane (masked
 * retirement without masks — the garbage is simply never read; find
 * and traceback stop at the lane's own n_w), and no exception is ever
 * recorded past a lane's end.
 */

#ifndef SEGRAM_SRC_ALIGN_WINDOW_BATCH_H
#define SEGRAM_SRC_ALIGN_WINDOW_BATCH_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/align/bitalign.h"
#include "src/align/bitalign_core.h"
#include "src/util/bitops_simd.h"
#include "src/util/bitvector.h"

namespace segram::align
{

/**
 * Reusable scratch of one batched window computation: per-lane pattern
 * bitmasks, the lane-major slab every stream (R columns, pattern
 * masks, virtual sink vectors) is carved from, the per-lane exception
 * lists and the dense gather/compute temporaries of the fixup path.
 * One per MapWorkspace; warm reuse makes batches heap-silent like the
 * per-window scratch.
 */
struct WindowBatchScratch
{
    /**
     * A position that breaks the fast sweep's single-successor-chain
     * assumption, patched scalar right after its step.
     */
    struct Exception
    {
        int t;                            ///< lane-local step index
        std::span<const uint16_t> succs;  ///< clipped successor deltas
    };

    std::array<PatternBitmasks, bitops::kBatchLanes> pm;
    bitops::WordSlab slab;
    std::array<std::vector<Exception>, bitops::kBatchLanes> exceptions;
    std::vector<uint64_t> fixup; ///< dense columns of the patch path
};

/**
 * Aligns @p count (1..kBatchLanes) independent window requests at
 * once and writes each lane's WindowResult — bit-identical to calling
 * alignWindow on every request individually, on every backend.
 *
 * All requests must share the edit cap k; text lengths, pattern
 * lengths, and alignment modes may differ freely. The batch runs at
 * the widest lane's word count — narrower lanes ride padded with
 * all-ones (all-mismatch) pattern-mask words, which no probe of
 * theirs ever reads, so mixed-width batches stay bit-identical too.
 *
 * @throws InputError on empty patterns/windows, non-ACGT patterns,
 *         negative k, mismatched k, or count out of range.
 */
void alignWindowBatch(const WindowedAlignStream::Request *const requests[],
                      WindowResult *const results[], int count,
                      WindowBatchScratch &scratch);

} // namespace segram::align

#endif // SEGRAM_SRC_ALIGN_WINDOW_BATCH_H
