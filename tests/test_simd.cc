/**
 * @file
 * Tests for the BitAlign word-kernel layer: the lane-batched
 * batchColumn on every backend, and the single scalar definition of
 * each per-window primitive.
 *
 * Every op is pure integer bit manipulation, so every backend must
 * agree bit-for-bit on every input — this is the property that lets
 * the mapper swap kernels without changing a single PAF byte. The
 * batched column is checked lane by lane against the per-window
 * primitives it is defined by; the primitives are checked against a
 * bit-by-bit reference, under the documented aliasing, and at
 * compile-time against runtime word counts. The suite runs under the
 * sanitizer CI job, so out-of-bounds vector tails or unaligned-load
 * UB fail loudly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/bitops_simd.h"
#include "src/util/bitvector.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace
{

using namespace segram;
using WordVec = std::vector<uint64_t>;

constexpr int kLanes = bitops::kBatchLanes;

/** Widths that exercise word boundaries. */
const std::vector<int> kEdgeWidths = {1,   2,   63,  64,  65,  127,
                                      128, 129, 191, 192, 255, 256,
                                      257, 319, 383, 447, 511, 512};

WordVec
randomWords(Rng &rng, int nwords)
{
    WordVec words(static_cast<size_t>(nwords));
    for (auto &word : words)
        word = rng.nextU64();
    return words;
}

struct Backend
{
    const bitops::KernelOps *ops;
    const char *name;
};

/** Scalar always; the SIMD backend when this build + CPU provide one. */
std::vector<Backend>
backends()
{
    std::vector<Backend> list = {{&bitops::scalarKernels(), "scalar"}};
    if (const bitops::KernelOps *simd = bitops::simdKernels())
        list.push_back(
            {simd, bitops::backendName(bitops::simdBackend())});
    return list;
}

// Bit-by-bit references for the per-window primitives.

WordVec
shiftedLeftOne(const WordVec &src)
{
    WordVec out(src.size(), 0);
    const int bits =
        static_cast<int>(src.size()) * bitops::kBitsPerWord;
    for (int b = bits - 1; b >= 1; --b)
        if (bitops::testBit(src.data(), b - 1))
            out[static_cast<size_t>(b / 64)] |= uint64_t{1}
                                                << (b % 64);
    return out;
}

WordVec
andOf(WordVec a, const WordVec &b)
{
    for (size_t i = 0; i < a.size(); ++i)
        a[i] &= b[i];
    return a;
}

WordVec
orOf(WordVec a, const WordVec &b)
{
    for (size_t i = 0; i < a.size(); ++i)
        a[i] |= b[i];
    return a;
}

TEST(SimdKernels, DispatchIsConsistent)
{
    // kernels() must hand back either the scalar backend or the SIMD
    // one, and activeBackend() must describe the same choice.
    const bitops::KernelOps &active = bitops::kernels();
    if (bitops::activeBackend() == bitops::KernelBackend::Scalar) {
        EXPECT_EQ(&active, &bitops::scalarKernels());
        EXPECT_STREQ(bitops::activeBackendName(), "scalar");
    } else {
        EXPECT_EQ(&active, bitops::simdKernels());
        EXPECT_EQ(bitops::activeBackend(), bitops::simdBackend());
    }
}

TEST(WordOps, FusedOpsMatchComposedDefinitions)
{
    // Each primitive against its definition, composed from a
    // bit-by-bit shift and plain word-wise AND/OR.
    Rng rng(0xf05ed);
    for (const int width : kEdgeWidths) {
        const int nwords = bitops::wordsForWidth(width);
        const WordVec src = randomWords(rng, nwords);
        const WordVec mask = randomWords(rng, nwords);
        const WordVec init = randomWords(rng, nwords);
        const WordVec ds = randomWords(rng, nwords);
        const WordVec match = randomWords(rng, nwords);

        WordVec got(static_cast<size_t>(nwords));
        bitops::shiftLeftOneOr(got.data(), src.data(), mask.data(),
                               nwords);
        EXPECT_EQ(orOf(shiftedLeftOne(src), mask), got)
            << "shiftLeftOneOr, width " << width;

        got = init;
        bitops::shiftLeftOneOrAnd(got.data(), src.data(), mask.data(),
                                  nwords);
        EXPECT_EQ(andOf(init, orOf(shiftedLeftOne(src), mask)), got)
            << "shiftLeftOneOrAnd, width " << width;

        got = init;
        bitops::andShiftAnd(got.data(), src.data(), nwords);
        EXPECT_EQ(andOf(andOf(init, src), shiftedLeftOne(src)), got)
            << "andShiftAnd, width " << width;

        bitops::fusedCell(got.data(), init.data(), ds.data(),
                          match.data(), mask.data(), nwords);
        const WordVec cell =
            andOf(andOf(andOf(shiftedLeftOne(init), ds),  // I & D
                        shiftedLeftOne(ds)),              // & S
                  orOf(shiftedLeftOne(match), mask));     // & M
        EXPECT_EQ(cell, got) << "fusedCell, width " << width;

        bitops::fillOnes(got.data(), nwords);
        EXPECT_EQ(WordVec(static_cast<size_t>(nwords), ~uint64_t{0}),
                  got)
            << "fillOnes, width " << width;
    }
}

TEST(WordOps, ShiftingOpsAllowFullDstSrcAliasing)
{
    // The documented contract: dst == src (full overlap) is legal for
    // the shifting ops.
    Rng rng(0xa11a5);
    for (const int width : kEdgeWidths) {
        const int nwords = bitops::wordsForWidth(width);
        const WordVec src = randomWords(rng, nwords);
        const WordVec mask = randomWords(rng, nwords);

        WordVec want(static_cast<size_t>(nwords));
        bitops::shiftLeftOneOr(want.data(), src.data(), mask.data(),
                               nwords);
        WordVec aliased = src;
        bitops::shiftLeftOneOr(aliased.data(), aliased.data(),
                               mask.data(), nwords);
        ASSERT_EQ(want, aliased) << "aliased shiftLeftOneOr, width "
                                 << width;

        want = src;
        bitops::shiftLeftOneOrAnd(want.data(), src.data(), mask.data(),
                                  nwords);
        aliased = src;
        bitops::shiftLeftOneOrAnd(aliased.data(), aliased.data(),
                                  mask.data(), nwords);
        ASSERT_EQ(want, aliased) << "aliased shiftLeftOneOrAnd, width "
                                 << width;

        want = src;
        bitops::andShiftAnd(want.data(), src.data(), nwords);
        aliased = src;
        bitops::andShiftAnd(aliased.data(), aliased.data(), nwords);
        ASSERT_EQ(want, aliased) << "aliased andShiftAnd, width "
                                 << width;
    }
}

TEST(WordOps, CompileTimeWidthMatchesRuntimeWidth)
{
    Rng rng(0xf1f1);
    const auto run = [&](auto nwords_tag) {
        constexpr int NW = decltype(nwords_tag)::value;
        constexpr bitops::Words<NW> fixed{};
        const WordVec src = randomWords(rng, NW);
        const WordVec mask = randomWords(rng, NW);
        const WordVec ds = randomWords(rng, NW);
        const WordVec match = randomWords(rng, NW);
        const WordVec init = randomWords(rng, NW);

        WordVec want = init;
        WordVec got = init;
        bitops::shiftLeftOneOr(want.data(), src.data(), mask.data(),
                               NW);
        bitops::shiftLeftOneOr(got.data(), src.data(), mask.data(),
                               fixed);
        EXPECT_EQ(want, got) << "shiftLeftOneOr<" << NW << ">";

        want = init;
        got = init;
        bitops::shiftLeftOneOrAnd(want.data(), src.data(), mask.data(),
                                  NW);
        bitops::shiftLeftOneOrAnd(got.data(), src.data(), mask.data(),
                                  fixed);
        EXPECT_EQ(want, got) << "shiftLeftOneOrAnd<" << NW << ">";

        want = init;
        got = init;
        bitops::andShiftAnd(want.data(), src.data(), NW);
        bitops::andShiftAnd(got.data(), src.data(), fixed);
        EXPECT_EQ(want, got) << "andShiftAnd<" << NW << ">";

        bitops::fusedCell(want.data(), init.data(), ds.data(),
                          match.data(), mask.data(), NW);
        bitops::fusedCell(got.data(), init.data(), ds.data(),
                          match.data(), mask.data(), fixed);
        EXPECT_EQ(want, got) << "fusedCell<" << NW << ">";

        want = init;
        got = init;
        bitops::fillOnes(want.data(), NW);
        bitops::fillOnes(got.data(), fixed);
        EXPECT_EQ(want, got) << "fillOnes<" << NW << ">";
    };
    run(bitops::Words<1>{});
    run(bitops::Words<2>{});
    run(bitops::Words<3>{});
    run(bitops::Words<8>{});
}

/** Extracts lane @p w of row @p d from a level-major stack of
 *  lane-major rows of @p nwords word groups. */
WordVec
laneRow(const WordVec &stack, int nwords, int d, int w)
{
    WordVec out(static_cast<size_t>(nwords));
    for (int j = 0; j < nwords; ++j)
        out[static_cast<size_t>(j)] =
            stack[(static_cast<size_t>(d) * nwords + j) * kLanes + w];
    return out;
}

TEST(BatchKernels, BatchColumnEqualsDeinterleavedPerWindowChain)
{
    // batchColumn's definition, per lane: shiftLeftOneOr for level 0,
    // then one fusedCell per level chained on the previous level's
    // output. Every backend, every lane, widths 1-8 words (the >2-word
    // columns run the scalar definition on every backend) and every
    // level count up to a deep column. Carries must never cross lanes.
    Rng rng(0xde1a7e);
    for (const Backend &backend : backends()) {
        for (int nwords = 1; nwords <= 8; ++nwords) {
            const int L = nwords * kLanes;
            for (int levels = 1; levels <= 33; ++levels) {
                const WordVec prev = randomWords(rng, levels * L);
                const WordVec pm = randomWords(rng, L);
                WordVec col(static_cast<size_t>(levels * L));
                backend.ops->batchColumn(col.data(), prev.data(),
                                         pm.data(), nwords, levels);
                for (int w = 0; w < kLanes; ++w) {
                    const WordVec lpm = laneRow(pm, nwords, 0, w);
                    WordVec want(static_cast<size_t>(nwords));
                    WordVec below = laneRow(prev, nwords, 0, w);
                    bitops::shiftLeftOneOr(want.data(), below.data(),
                                           lpm.data(), nwords);
                    ASSERT_EQ(want, laneRow(col, nwords, 0, w))
                        << backend.name << ", nwords " << nwords
                        << ", levels " << levels << ", lane " << w
                        << ", level 0";
                    for (int d = 1; d < levels; ++d) {
                        const WordVec ins = want;
                        const WordVec same = laneRow(prev, nwords, d, w);
                        bitops::fusedCell(want.data(), ins.data(),
                                          below.data(), same.data(),
                                          lpm.data(), nwords);
                        ASSERT_EQ(want, laneRow(col, nwords, d, w))
                            << backend.name << ", nwords " << nwords
                            << ", levels " << levels << ", lane " << w
                            << ", level " << d;
                        below = same;
                    }
                }
            }
        }
    }
}

TEST(BatchKernels, BatchColumnMatchesScalarAcrossLevels)
{
    Rng rng(0xc01a);
    const auto &scalar = bitops::scalarKernels();
    // levels = k+1; 2 and 33 are the mapping path's common cases and a
    // deep column, 1 is the no-fusedCell degenerate.
    for (const Backend &backend : backends()) {
        for (int nwords = 1; nwords <= 8; ++nwords) {
            for (const int levels : {1, 2, 5, 33}) {
                const int L = nwords * kLanes;
                const WordVec prev = randomWords(rng, levels * L);
                const WordVec pm = randomWords(rng, L);
                WordVec want(static_cast<size_t>(levels * L));
                WordVec got(static_cast<size_t>(levels * L));
                scalar.batchColumn(want.data(), prev.data(), pm.data(),
                                   nwords, levels);
                backend.ops->batchColumn(got.data(), prev.data(),
                                         pm.data(), nwords, levels);
                ASSERT_EQ(want, got)
                    << "batchColumn, backend " << backend.name
                    << ", nwords " << nwords << ", levels " << levels;
            }
        }
    }
}

TEST(WordSlab, CarvesAreCacheLineAligned)
{
    bitops::WordSlab slab;
    // Unaligned-tail word counts on purpose: every take() must still
    // start on a 64-byte boundary regardless of the previous carve.
    for (const size_t carve : {1u, 3u, 7u, 9u, 16u, 17u}) {
        const size_t total = 4 * bitops::WordSlab::padded(carve);
        slab.reset(total);
        for (int i = 0; i < 4; ++i) {
            uint64_t *p = slab.take(carve);
            EXPECT_EQ(reinterpret_cast<uintptr_t>(p) %
                          bitops::WordSlab::kAlignBytes,
                      0u)
                << "carve " << carve << ", take " << i;
            // The carve must be writable over its full padded extent.
            for (size_t w = 0; w < carve; ++w)
                p[w] = 0;
        }
    }
}

TEST(WordSlab, PaddedRoundsToCarveUnits)
{
    using bitops::WordSlab;
    EXPECT_EQ(WordSlab::padded(0), 0u);
    EXPECT_EQ(WordSlab::padded(1), WordSlab::kAlignWords);
    EXPECT_EQ(WordSlab::padded(WordSlab::kAlignWords),
              WordSlab::kAlignWords);
    EXPECT_EQ(WordSlab::padded(WordSlab::kAlignWords + 1),
              2 * WordSlab::kAlignWords);
}

TEST(WordSlab, WarmResetKeepsCapacity)
{
    bitops::WordSlab slab;
    slab.reset(256);
    const size_t capacity = slab.capacityWords();
    slab.reset(128);
    EXPECT_EQ(slab.capacityWords(), capacity);
    slab.reset(256);
    EXPECT_EQ(slab.capacityWords(), capacity);
}

TEST(WordSlab, TakeBeyondResetCapacityThrows)
{
    using bitops::WordSlab;
    WordSlab slab;
    slab.reset(2 * WordSlab::kAlignWords);
    // Carves within the reset capacity succeed...
    EXPECT_NE(slab.take(WordSlab::kAlignWords), nullptr);
    EXPECT_NE(slab.take(WordSlab::kAlignWords), nullptr);
    // ...and the first word past it is diagnosed, not written.
    EXPECT_THROW(slab.take(1), InputError);

    // A single over-large carve on a fresh reset is also caught, even
    // when earlier resets grew the backing vector beyond the request.
    slab.reset(WordSlab::kAlignWords);
    EXPECT_THROW(slab.take(2 * WordSlab::kAlignWords), InputError);
}

TEST(WordSlab, PaddedOverflowThrows)
{
    using bitops::WordSlab;
    // A negative extent cast to size_t upstream would wrap padded()'s
    // rounding; the guard turns that into a diagnosable error.
    EXPECT_THROW(WordSlab::padded(std::numeric_limits<size_t>::max()),
                 InputError);
    EXPECT_THROW(
        WordSlab::padded(std::numeric_limits<size_t>::max() -
                         (WordSlab::kAlignWords - 2)),
        InputError);
}

} // namespace
