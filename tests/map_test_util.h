/**
 * @file
 * Shared helpers for the mapping-driver tests (test_engine.cc,
 * test_scale.cc, test_core.cc, test_pack.cc, test_gfa_import.cc):
 * field-by-field result and counter comparisons, and the read-major
 * reference the work-stealing ShardedBatchMapper is checked against.
 */

#ifndef SEGRAM_TESTS_MAP_TEST_UTIL_H
#define SEGRAM_TESTS_MAP_TEST_UTIL_H

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/reference.h"
#include "src/core/segram.h"

namespace segram::core
{

inline std::vector<std::string_view>
viewsOf(const std::vector<std::string> &reads)
{
    return {reads.begin(), reads.end()};
}

inline void
expectSameResults(const std::vector<MultiMapResult> &lhs,
                  const std::vector<MultiMapResult> &rhs)
{
    ASSERT_EQ(lhs.size(), rhs.size());
    for (size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(lhs[i].mapped, rhs[i].mapped) << "read " << i;
        EXPECT_EQ(lhs[i].linearStart, rhs[i].linearStart) << "read " << i;
        EXPECT_EQ(lhs[i].editDistance, rhs[i].editDistance)
            << "read " << i;
        EXPECT_EQ(lhs[i].regionsTried, rhs[i].regionsTried)
            << "read " << i;
        EXPECT_EQ(lhs[i].reverseComplemented, rhs[i].reverseComplemented)
            << "read " << i;
        EXPECT_EQ(lhs[i].chromosome, rhs[i].chromosome) << "read " << i;
        EXPECT_EQ(lhs[i].cigar.toString(), rhs[i].cigar.toString())
            << "read " << i;
    }
}

/**
 * Compares every deterministic counter (the stage timings are
 * reporting-only). The lane counters only exist on the lane-batched
 * path, so a comparison against a per-read mapRead loop leaves them
 * out with @p lane_counters = false.
 */
inline void
expectSameStats(const PipelineStats &lhs, const PipelineStats &rhs,
                bool lane_counters = true)
{
    EXPECT_EQ(lhs.readsTotal, rhs.readsTotal);
    EXPECT_EQ(lhs.readsMapped, rhs.readsMapped);
    EXPECT_EQ(lhs.regionsAligned, rhs.regionsAligned);
    EXPECT_EQ(lhs.alignmentsFound, rhs.alignmentsFound);
    const seed::MinSeedStats &a = lhs.seeding;
    const seed::MinSeedStats &b = rhs.seeding;
    EXPECT_EQ(a.minimizersComputed, b.minimizersComputed);
    EXPECT_EQ(a.minimizersKept, b.minimizersKept);
    EXPECT_EQ(a.minimizersCapped, b.minimizersCapped);
    EXPECT_EQ(a.seedsAvailable, b.seedsAvailable);
    EXPECT_EQ(a.seedsFetched, b.seedsFetched);
    EXPECT_EQ(a.seedsSkippedByCap, b.seedsSkippedByCap);
    EXPECT_EQ(a.regionsEmitted, b.regionsEmitted);
    EXPECT_EQ(a.lociEmitted, b.lociEmitted);
    if (lane_counters) {
        EXPECT_EQ(lhs.batchedWindows, rhs.batchedWindows);
        EXPECT_EQ(lhs.batchLaunches, rhs.batchLaunches);
        EXPECT_EQ(lhs.scalarWindows, rhs.scalarWindows);
    }
}

/**
 * Read-major reference of ShardedBatchMapper: each read mapped with
 * SegramMapper::mapRead on every chromosome in turn; the lowest edit
 * distance wins and ties go to the earlier chromosome. @p stats gets
 * the work counters of every pass and one readsTotal per read.
 */
inline std::vector<MultiMapResult>
mapReadMajor(const PreprocessedReference &reference,
             const SegramConfig &config,
             const std::vector<std::string> &reads,
             PipelineStats *stats = nullptr)
{
    std::vector<SegramMapper> mappers;
    for (size_t c = 0; c < reference.numChromosomes(); ++c)
        mappers.emplace_back(reference, c, config);
    PipelineStats passes;
    std::vector<MultiMapResult> results(reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        MultiMapResult &best = results[i];
        for (size_t c = 0; c < mappers.size(); ++c) {
            MapResult result = mappers[c].mapRead(reads[i], &passes);
            if (result.mapped &&
                (!best.mapped || result.editDistance < best.editDistance)) {
                static_cast<MapResult &>(best) = std::move(result);
                best.chromosome = reference.name(c);
            }
        }
    }
    if (stats != nullptr) {
        passes.readsTotal = reads.size();
        passes.readsMapped = 0;
        for (const MultiMapResult &result : results)
            passes.readsMapped += result.mapped ? 1 : 0;
        *stats += passes;
    }
    return results;
}

} // namespace segram::core

#endif // SEGRAM_TESTS_MAP_TEST_UTIL_H
