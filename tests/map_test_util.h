/**
 * @file
 * Shared helpers for the mapping-driver tests (test_engine.cc,
 * test_scale.cc, test_core.cc, test_pack.cc, test_gfa_import.cc,
 * test_alloc.cc): field-by-field result, counter and table
 * comparisons, and the sequential oracles the lane-batched
 * SegramMapper::mapMany and the work-stealing ShardedBatchMapper are
 * checked against.
 */

#ifndef SEGRAM_TESTS_MAP_TEST_UTIL_H
#define SEGRAM_TESTS_MAP_TEST_UTIL_H

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/io/pack.h"
#include "src/util/check.h"
#include "src/util/dna.h"

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
 * path, so a comparison against the sequential oracle leaves them out
 * with @p lane_counters = false.
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
 * Compares every table of two references chromosome by chromosome:
 * names, node records, sequences and edges, index parameters and
 * statistics, and the frequency and location list of every indexed
 * minimizer.
 */
inline void
expectSameTables(const PreprocessedReference &got,
                 const PreprocessedReference &want)
{
    ASSERT_EQ(got.numChromosomes(), want.numChromosomes());
    for (size_t c = 0; c < want.numChromosomes(); ++c) {
        EXPECT_EQ(got.name(c), want.name(c));
        const auto &got_graph = got.graph(c);
        const auto &want_graph = want.graph(c);
        ASSERT_EQ(got_graph.numNodes(), want_graph.numNodes());
        ASSERT_EQ(got_graph.numEdges(), want_graph.numEdges());
        ASSERT_EQ(got_graph.totalSeqLen(), want_graph.totalSeqLen());
        EXPECT_TRUE(got_graph.isTopologicallySorted());
        for (graph::NodeId id = 0; id < want_graph.numNodes(); ++id) {
            EXPECT_EQ(got_graph.nodeSeq(id), want_graph.nodeSeq(id));
            const auto &got_node = got_graph.node(id);
            const auto &want_node = want_graph.node(id);
            EXPECT_EQ(got_node.seqStart, want_node.seqStart);
            EXPECT_EQ(got_node.linearOffset, want_node.linearOffset);
            EXPECT_EQ(got_node.refPos, want_node.refPos);
            EXPECT_EQ(got_node.isAlt, want_node.isAlt);
            const auto got_succ = got_graph.successors(id);
            const auto want_succ = want_graph.successors(id);
            ASSERT_EQ(got_succ.size(), want_succ.size());
            for (size_t e = 0; e < want_succ.size(); ++e)
                EXPECT_EQ(got_succ[e], want_succ[e]);
        }

        const auto &got_idx = got.index(c);
        const auto &want_idx = want.index(c);
        EXPECT_EQ(got_idx.bucketBits(), want_idx.bucketBits());
        EXPECT_EQ(got_idx.sketch().k, want_idx.sketch().k);
        EXPECT_EQ(got_idx.sketch().w, want_idx.sketch().w);
        EXPECT_EQ(got_idx.frequencyThreshold(),
                  want_idx.frequencyThreshold());
        const auto &got_stats = got_idx.stats();
        const auto &want_stats = want_idx.stats();
        EXPECT_EQ(got_stats.numDistinctMinimizers,
                  want_stats.numDistinctMinimizers);
        EXPECT_EQ(got_stats.numLocations, want_stats.numLocations);
        EXPECT_EQ(got_stats.maxMinimizersPerBucket,
                  want_stats.maxMinimizersPerBucket);
        EXPECT_EQ(got_stats.maxLocationsPerMinimizer,
                  want_stats.maxLocationsPerMinimizer);
        EXPECT_EQ(got_stats.totalBytes(), want_stats.totalBytes());

        // Every indexed minimizer answers identically through both
        // tables (frequency + full location lists).
        for (const auto &entry :
             io::PackCodec::minimizerTable(want_idx)) {
            EXPECT_EQ(got_idx.frequency(entry.hash),
                      want_idx.frequency(entry.hash));
            const auto got_locs = got_idx.locations(entry.hash);
            const auto want_locs = want_idx.locations(entry.hash);
            ASSERT_EQ(got_locs.size(), want_locs.size());
            for (size_t i = 0; i < want_locs.size(); ++i)
                EXPECT_EQ(got_locs[i], want_locs[i]);
        }
    }
}

/**
 * One strand of the sequential oracle: aligns the strand's candidate
 * regions one at a time, in order, keeping the first alignment with
 * the fewest edits and stopping at the first one within the early-exit
 * threshold.
 */
inline MapResult
mapStrandSequential(const SegramMapper &mapper, std::string_view read,
                    PipelineStats &stats, MapWorkspace &workspace)
{
    const SegramConfig &config = mapper.config();
    const int early_exit_edits =
        config.earlyExitFraction > 0.0
            ? static_cast<int>(std::ceil(config.earlyExitFraction *
                                         config.minseed.errorRate *
                                         static_cast<double>(read.size())))
            : -1;
    graph::LinearizedGraph linearization;
    align::GraphAlignment alignment;
    MapResult best;
    for (const seed::CandidateRegion &region :
         mapper.candidateRegions(read, workspace, &stats.seeding)) {
        ++best.regionsTried;
        ++stats.regionsAligned;
        graph::linearizeRange(mapper.graph(), region.start, region.end,
                              config.hopLimit, linearization);
        // The first free-start window covers the 2*E*a start
        // uncertainty of the region (Fig. 9).
        align::BitAlignConfig bitalign = config.bitalign;
        bitalign.firstWindowExtraText +=
            static_cast<int>(std::ceil(2.0 * config.minseed.errorRate *
                                       region.minimizerPos)) +
            32;
        align::alignWindowed(linearization, read, bitalign,
                             workspace.align, alignment);
        if (!alignment.found)
            continue;
        ++stats.alignmentsFound;
        if (!best.mapped || alignment.editDistance < best.editDistance) {
            best.mapped = true;
            best.editDistance = alignment.editDistance;
            best.linearStart = alignment.linearStart;
            best.cigar = alignment.cigar;
        }
        if (early_exit_edits >= 0 && best.editDistance <= early_exit_edits)
            break;
    }
    return best;
}

/**
 * The sequential oracle of SegramMapper::mapMany: one read, one
 * candidate region at a time, forward strand then (when configured)
 * the reverse complement. The lower edit distance wins, a tie goes to
 * the forward strand, and the winner reports the regions of both
 * strands. @p stats gets the same counters mapMany commits, minus the
 * lane counters and the stage timings.
 */
inline MapResult
mapReadSequential(const SegramMapper &mapper, std::string_view read,
                  PipelineStats *stats = nullptr)
{
    SEGRAM_CHECK(!read.empty(), "cannot map an empty read");
    MapWorkspace workspace;
    PipelineStats local;
    local.readsTotal = 1;
    MapResult best = mapStrandSequential(mapper, read, local, workspace);
    if (mapper.config().tryReverseComplement) {
        const std::string rc = reverseComplement(read);
        MapResult reverse =
            mapStrandSequential(mapper, rc, local, workspace);
        reverse.reverseComplemented = true;
        const uint32_t total_tried =
            best.regionsTried + reverse.regionsTried;
        if (reverse.mapped &&
            (!best.mapped || reverse.editDistance < best.editDistance))
            best = std::move(reverse);
        best.regionsTried = total_tried;
    }
    if (best.mapped)
        ++local.readsMapped;
    if (stats != nullptr)
        *stats += local;
    return best;
}

/**
 * Read-major reference of ShardedBatchMapper: each read mapped with
 * mapReadSequential on every chromosome in turn; the lowest edit
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
            MapResult result =
                mapReadSequential(mappers[c], reads[i], &passes);
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
