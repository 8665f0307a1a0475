/**
 * @file
 * The vectorized kernel of BitAlign: one lane-batched recurrence
 * column.
 *
 * In hardware every R[d] word of every PE updates in parallel; the
 * software image of that array is batchColumn, which advances all
 * k+1 levels of kBatchLanes independent windows in one call. It is
 * the only vector op in the tree. The per-window primitives
 * (shiftLeftOneOr, fusedCell, ...) are scalar and defined once, in
 * src/util/bitvector.h: BitAlign windows are 128 bp (2 words), where
 * straight-line scalar code beats any vector body.
 *
 *  - scalarKernels(): the portable reference batchColumn, always
 *    available, bit-identical to every other backend by construction
 *    (all ops are pure integer bit manipulation).
 *  - simdKernels(): the vector batchColumn this build + CPU supports
 *    (AVX2 on x86-64 via runtime CPUID, NEON on aarch64), or nullptr.
 *    Both keep the whole column in registers at 1 and 2 words and
 *    hand wider columns to the scalar definition.
 *  - kernels(): the active backend, selected once at startup. The
 *    SEGRAM_DISABLE_SIMD compile definition or a non-zero
 *    SEGRAM_DISABLE_SIMD environment variable forces the scalar
 *    backend.
 *
 * No other file under src/ includes a vector intrinsics header; the
 * simd-confined rule of tools/lint/segram_lint.py enforces it.
 */

#ifndef SEGRAM_SRC_UTIL_BITOPS_SIMD_H
#define SEGRAM_SRC_UTIL_BITOPS_SIMD_H

#include <cstdint>

namespace segram::bitops
{

/** Which implementation backs the dispatched batchColumn. */
enum class KernelBackend : uint8_t
{
    Scalar,
    Avx2,
    Neon,
};

/**
 * Windows per lane-batched kernel sweep. batchColumn runs this many
 * *independent* window recurrences at once in a lane-major
 * (struct-of-arrays) layout: word group j of lane w lives at index
 * j * kBatchLanes + w, so group j of all lanes is one contiguous
 * 256-bit block — exactly one AVX2 register (4 x 64-bit lanes). The
 * constant is the same for every backend (scalar and NEON included):
 * the layout, and therefore batched-vs-per-window bit-identity, never
 * depends on which backend executes the sweep.
 */
constexpr int kBatchLanes = 4;

/** The dispatched kernel of one backend. */
struct KernelOps
{
    /**
     * One whole lane-batched recurrence column. Level 0 is
     *
     *   col[0] = (prev[0] << 1) | pm
     *
     * and each level d = 1 .. levels-1 is the fused recurrence cell
     *
     *   col[d] = (col[d-1] << 1) & prev[d-1] & (prev[d-1] << 1)
     *            & ((prev[d] << 1) | pm)
     *
     * i.e. per lane, shiftLeftOneOr then one fusedCell per level
     * (src/util/bitvector.h) on the de-interleaved vectors. Each row
     * holds @p nwords word groups of kBatchLanes lanes; the shift
     * carry flows from group j-1 to group j within one lane, so lanes
     * never mix. @p col and @p prev are level-major stacks of
     * @p levels rows and must not overlap.
     *
     * The recurrence chains across levels, so the vector backends
     * keep pm, the previous level's output and the shifted previous
     * source in registers: one fresh load of prev per word group per
     * level instead of four, and one call per step.
     */
    void (*batchColumn)(uint64_t *col, const uint64_t *prev,
                        const uint64_t *pm, int nwords, int levels);
};

/** @return The portable scalar backend (always available). */
const KernelOps &scalarKernels();

/**
 * @return The vector backend this build and CPU support (AVX2
 *         checked via CPUID at first call, NEON unconditionally on
 *         aarch64), or nullptr when none is available or the build
 *         was configured with SEGRAM_DISABLE_SIMD.
 */
const KernelOps *simdKernels();

/** @return The backend simdKernels() would provide (Scalar if null). */
KernelBackend simdBackend();

/**
 * @return The active backend: simdKernels() unless unavailable or
 *         disabled (SEGRAM_DISABLE_SIMD build option or environment
 *         variable), else the scalar one. Selected once, on first
 *         call; the decision never changes within a process.
 */
const KernelOps &kernels();

/** @return The backend behind kernels(). */
KernelBackend activeBackend();

/** @return Lower-case backend name ("scalar", "avx2", "neon"),
 *          NUL-terminated for direct printf use. */
const char *backendName(KernelBackend backend);

/** @return backendName(activeBackend()). */
const char *activeBackendName();

} // namespace segram::bitops

#endif // SEGRAM_SRC_UTIL_BITOPS_SIMD_H
