/**
 * @file
 * Tests for the batched mapping engine layer: the work-stealing
 * ThreadPool primitive, the MappingEngine contract across every
 * backend, and the ShardedBatchMapper determinism guarantee
 * (bit-identical results and correctly merged PipelineStats for every
 * thread count), with SeGraM and with baseline shards.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/baseline/mappers.h"
#include "src/core/engine.h"
#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/sim/dataset.h"
#include "src/util/check.h"
#include "src/util/dna.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/map_test_util.h"

namespace segram::core
{
namespace
{

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    constexpr size_t kItems = 1'000;
    std::vector<std::atomic<int>> hits(kItems);
    pool.parallelSteal(kItems, [&](size_t item, int) { ++hits[item]; });
    for (size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossJobsAndSizes)
{
    util::ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<size_t> sum{0};
        const size_t items = 10 + static_cast<size_t>(round) * 13;
        pool.parallelSteal(items, [&](size_t item, int) { sum += item; });
        EXPECT_EQ(sum.load(), items * (items - 1) / 2);
    }
    // Empty job is a no-op.
    pool.parallelSteal(0, [](size_t, int) { FAIL(); });
}

TEST(ThreadPool, SingleWorkerStillRuns)
{
    util::ThreadPool pool(1);
    std::vector<int> order;
    pool.parallelSteal(5, [&](size_t item, int worker) {
        EXPECT_EQ(worker, 0);
        order.push_back(static_cast<int>(item));
    });
    // One worker owns the whole range and drains it front to back.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, WorkerIdsAreInRange)
{
    util::ThreadPool pool(4);
    std::mutex mutex;
    std::set<int> seen;
    pool.parallelSteal(200, [&](size_t, int worker) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(worker);
    });
    EXPECT_FALSE(seen.empty());
    EXPECT_GE(*seen.begin(), 0);
    EXPECT_LT(*seen.rbegin(), pool.size());
}

TEST(ThreadPool, PropagatesExceptionsAndSurvives)
{
    util::ThreadPool pool(2);
    EXPECT_THROW(pool.parallelSteal(100,
                                    [&](size_t item, int) {
                                        if (item == 42)
                                            throw InputError("boom");
                                    }),
                 InputError);
    // The pool is still usable after a failed job.
    std::atomic<int> count{0};
    pool.parallelSteal(10, [&](size_t, int) { ++count; });
    EXPECT_EQ(count.load(), 10);
}

// --------------------------------------------------- engine test fixture

sim::DatasetConfig
smallConfig(uint64_t seed)
{
    sim::DatasetConfig config;
    config.genome.length = 40'000;
    config.genome.repeatFraction = 0.0;
    config.index.sketch = {13, 8};
    config.index.bucketBits = 13;
    config.seed = seed;
    return config;
}

/** A mixed workload: mappable, reverse-complemented and junk reads. */
std::vector<std::string>
makeReads(const sim::Dataset &dataset, int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::string> reads;
    for (int i = 0; i < count; ++i) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        std::string read = dataset.donor.seq().substr(start, 300);
        if (i % 3 == 1)
            read = reverseComplement(read);
        if (i % 7 == 6) { // unmappable noise
            read.clear();
            for (int j = 0; j < 200; ++j)
                read.push_back(rng.nextBase());
        }
        reads.push_back(std::move(read));
    }
    return reads;
}

// ---------------------------------------------------------- MapWorkspace

/**
 * Maps @p reads through one warm workspace, one mapMany call of
 * @p batch reads at a time.
 */
std::vector<MultiMapResult>
mapWarm(const SegramMapper &mapper, const std::vector<std::string> &reads,
        size_t batch, PipelineStats *stats, MapWorkspace &workspace)
{
    const auto views = viewsOf(reads);
    std::vector<MapResult> results(reads.size());
    for (size_t begin = 0; begin < reads.size(); begin += batch) {
        const size_t count = std::min(batch, reads.size() - begin);
        mapper.mapMany(
            std::span<const std::string_view>(views).subspan(begin, count),
            std::span<MapResult>(results).subspan(begin, count), stats,
            workspace);
    }
    std::vector<MultiMapResult> out(reads.size());
    for (size_t i = 0; i < reads.size(); ++i)
        static_cast<MapResult &>(out[i]) = std::move(results[i]);
    return out;
}

/** mapReadSequential over @p reads, one fresh workspace per read. */
std::vector<MultiMapResult>
mapOracle(const SegramMapper &mapper, const std::vector<std::string> &reads,
          PipelineStats *stats)
{
    std::vector<MultiMapResult> out(reads.size());
    for (size_t i = 0; i < reads.size(); ++i)
        static_cast<MapResult &>(out[i]) =
            mapReadSequential(mapper, reads[i], stats);
    return out;
}

TEST(MapWorkspace, WarmWorkspaceMatchesFreshCalls)
{
    // One workspace reused across a mixed workload (forward, RC and
    // junk reads) in batches of every shape must produce exactly what
    // the sequential oracle produces with a fresh workspace per read —
    // counters included. This is the reuse contract every
    // ShardedBatchMapper worker relies on.
    const auto dataset = sim::makeDataset(smallConfig(301));
    SegramConfig config;
    config.tryReverseComplement = true;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    const auto reads = makeReads(dataset, 40, 302);

    PipelineStats fresh_stats;
    const auto fresh = mapOracle(mapper, reads, &fresh_stats);
    MapWorkspace workspace;
    for (const size_t batch : {size_t{1}, size_t{7}, reads.size()}) {
        PipelineStats warm_stats;
        expectSameResults(
            fresh, mapWarm(mapper, reads, batch, &warm_stats, workspace));
        expectSameStats(fresh_stats, warm_stats, /*lane_counters=*/false);
    }
}

TEST(MapWorkspace, ChainFilterPathReusesBuffers)
{
    // The opt-in chain-filter path flows through workspace.filtered;
    // warm reuse must stay bit-identical there too.
    const auto dataset = sim::makeDataset(smallConfig(303));
    SegramConfig config;
    config.enableChainFilter = true;
    config.maxChains = 3;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    const auto reads = makeReads(dataset, 25, 304);

    const auto fresh = mapOracle(mapper, reads, nullptr);
    MapWorkspace workspace;
    for (const size_t batch : {size_t{1}, size_t{4}, reads.size()})
        expectSameResults(
            fresh, mapWarm(mapper, reads, batch, nullptr, workspace));
}

TEST(MapWorkspace, StageTimingsAccumulateWhenStatsRequested)
{
    const auto dataset = sim::makeDataset(smallConfig(305));
    const SegramMapper mapper(dataset.graph, dataset.index, {});
    const auto reads = makeReads(dataset, 10, 306);
    PipelineStats stats;
    MapWorkspace workspace;
    mapWarm(mapper, reads, 1, &stats, workspace);
    // Reads were seeded, so the seeding stage must have taken >= 0 time
    // and regions were aligned, so alignment time must be positive.
    EXPECT_GE(stats.timings.seedingSec, 0.0);
    EXPECT_GT(stats.timings.alignSec, 0.0);
    EXPECT_GT(stats.timings.linearizeSec, 0.0);
}

// ---------------------------------------------------- ShardedBatchMapper

/**
 * One chromosome per dataset ("chr1", "chr2", ...). The graphs and
 * indexes move into the reference; the donors stay for read sampling.
 */
PreprocessedReference
referenceOf(std::vector<sim::Dataset> &datasets)
{
    std::vector<PreprocessedChromosome> chromosomes;
    for (size_t c = 0; c < datasets.size(); ++c)
        chromosomes.push_back({"chr" + std::to_string(c + 1),
                               std::move(datasets[c].graph),
                               std::move(datasets[c].index)});
    return PreprocessedReference(std::move(chromosomes));
}

/** Reads alternating between the datasets' donors, every third one
 *  reverse-complemented; read i comes from chromosome i % count. */
std::vector<std::string>
alternatingReads(const std::vector<sim::Dataset> &datasets, int count,
                 uint64_t seed)
{
    std::vector<std::string> reads;
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
        const auto &donor = datasets[i % datasets.size()].donor;
        const uint64_t start = rng.nextBelow(donor.seq().size() - 400);
        std::string read = donor.seq().substr(start, 300);
        if (i % 3 == 1)
            read = reverseComplement(read);
        reads.push_back(std::move(read));
    }
    return reads;
}

TEST(ShardedBatchMapper, FourThreadsMatchOneThreadExactly)
{
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(101)));
    const auto reads = makeReads(datasets[0], 30, 102);
    const auto reference = referenceOf(datasets);
    SegramConfig config;
    config.tryReverseComplement = true;
    const auto views = viewsOf(reads);

    PipelineStats stats1;
    const ShardedBatchMapper one(reference, config, {.threads = 1});
    const auto results1 = one.mapBatch(
        std::span<const std::string_view>(views), &stats1);

    PipelineStats stats4;
    const ShardedBatchMapper four(reference, config, {.threads = 4});
    const auto results4 = four.mapBatch(
        std::span<const std::string_view>(views), &stats4);

    expectSameResults(results1, results4);
    expectSameStats(stats1, stats4);
    EXPECT_EQ(stats4.readsTotal, reads.size());
    EXPECT_GT(stats4.batchLaunches, 0u);

    // Both match the sequential oracle.
    PipelineStats stats_loop;
    expectSameResults(results4,
                      mapReadMajor(reference, config, reads, &stats_loop));
    expectSameStats(stats4, stats_loop, /*lane_counters=*/false);
}

TEST(ShardedBatchMapper, OwnedStringOverloadAndEmptyBatch)
{
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(103)));
    const auto reads = makeReads(datasets[0], 8, 104);
    const auto reference = referenceOf(datasets);
    const ShardedBatchMapper batch(reference, SegramConfig{},
                                   {.threads = 2});
    EXPECT_EQ(batch.threads(), 2);
    EXPECT_EQ(batch.numShards(), 1u);
    EXPECT_EQ(batch.engineName(), "segram");

    const auto via_strings =
        batch.mapBatch(std::span<const std::string>(reads));
    const auto views = viewsOf(reads);
    const auto via_views =
        batch.mapBatch(std::span<const std::string_view>(views));
    expectSameResults(via_strings, via_views);

    const auto empty =
        batch.mapBatch(std::span<const std::string>{});
    EXPECT_TRUE(empty.empty());
}

TEST(ShardedBatchMapper, PropagatesMapperErrors)
{
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(105)));
    const auto reference = referenceOf(datasets);
    const std::vector<std::string> reads = {"ACGTACGTACGT", ""};
    const ShardedBatchMapper batch(reference, SegramConfig{},
                                   {.threads = 2});
    EXPECT_THROW(batch.mapBatch(std::span<const std::string>(reads)),
                 InputError);
}

TEST(ShardedBatchMapper, StatsFoldReadExactAcrossShards)
{
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(106)));
    datasets.push_back(sim::makeDataset(smallConfig(107)));
    const auto reads = alternatingReads(datasets, 10, 108);
    const auto reference = referenceOf(datasets);
    SegramConfig config;
    config.earlyExitFraction = 1.0;
    config.tryReverseComplement = true;
    const auto views = viewsOf(reads);

    PipelineStats stats1;
    const ShardedBatchMapper one(reference, config, {.threads = 1});
    const auto results1 = one.mapBatch(
        std::span<const std::string_view>(views), &stats1);
    PipelineStats stats4;
    const ShardedBatchMapper four(reference, config, {.threads = 4});
    const auto results4 = four.mapBatch(
        std::span<const std::string_view>(views), &stats4);

    expectSameResults(results1, results4);
    expectSameStats(stats1, stats4);
    // The per-shard fold stays read-exact: one readsTotal per logical
    // read, even though each read ran on every chromosome.
    EXPECT_EQ(stats4.readsTotal, reads.size());
    EXPECT_EQ(stats4.readsMapped, reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        EXPECT_TRUE(results4[i].mapped) << "read " << i;
        EXPECT_EQ(results4[i].chromosome, i % 2 == 0 ? "chr1" : "chr2")
            << "read " << i;
        EXPECT_EQ(results4[i].reverseComplemented, i % 3 == 1)
            << "read " << i;
    }
}

TEST(ShardedBatchMapper, BaselineShardsRouteReadsToTheirChromosome)
{
    // The CPU baselines ride the same driver as per-chromosome shards:
    // each read must land on the chromosome it came from (on the
    // strand it came from), count once in readsTotal, and map
    // identically at every thread count.
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(110)));
    datasets.push_back(sim::makeDataset(smallConfig(111)));
    const auto reads = alternatingReads(datasets, 12, 112);
    const auto reference = referenceOf(datasets);
    const auto views = viewsOf(reads);

    for (const std::string_view engine : {"graphaligner", "vg"}) {
        const auto shards = [&] {
            std::vector<std::unique_ptr<MappingEngine>> out;
            for (size_t c = 0; c < reference.numChromosomes(); ++c) {
                if (engine == "graphaligner")
                    out.push_back(
                        std::make_unique<baseline::GraphAlignerLike>(
                            reference.graph(c), reference.index(c)));
                else
                    out.push_back(std::make_unique<baseline::VgLike>(
                        reference.graph(c), reference.index(c)));
            }
            return out;
        };
        PipelineStats stats1;
        const ShardedBatchMapper one(reference, shards(), {.threads = 1});
        const auto results1 = one.mapBatch(
            std::span<const std::string_view>(views), &stats1);
        PipelineStats stats3;
        const ShardedBatchMapper three(reference, shards(),
                                       {.threads = 3});
        const auto results3 = three.mapBatch(
            std::span<const std::string_view>(views), &stats3);

        expectSameResults(results1, results3);
        expectSameStats(stats1, stats3);
        EXPECT_EQ(stats3.readsTotal, reads.size()) << engine;
        EXPECT_EQ(one.engineName(),
                  engine == "vg" ? "vg-like" : "graphaligner-like");
        int mapped = 0;
        for (size_t i = 0; i < reads.size(); ++i) {
            if (!results3[i].mapped)
                continue;
            ++mapped;
            EXPECT_EQ(results3[i].chromosome,
                      i % 2 == 0 ? "chr1" : "chr2")
                << engine << " read " << i;
            EXPECT_EQ(results3[i].reverseComplemented, i % 3 == 1)
                << engine << " read " << i;
        }
        // Error-free reads: near-perfect mapping.
        EXPECT_GE(mapped, 10) << engine;
        EXPECT_EQ(stats3.readsMapped, static_cast<uint64_t>(mapped))
            << engine;
    }
}

TEST(ShardedBatchMapper, RejectsMismatchedAndNullShards)
{
    std::vector<sim::Dataset> datasets;
    datasets.push_back(sim::makeDataset(smallConfig(113)));
    datasets.push_back(sim::makeDataset(smallConfig(114)));
    const auto reference = referenceOf(datasets);
    std::vector<std::unique_ptr<MappingEngine>> one_shard;
    one_shard.push_back(std::make_unique<baseline::VgLike>(
        reference.graph(0), reference.index(0)));
    EXPECT_THROW(ShardedBatchMapper(reference, std::move(one_shard)),
                 InputError);
    std::vector<std::unique_ptr<MappingEngine>> null_shard;
    null_shard.push_back(std::make_unique<baseline::VgLike>(
        reference.graph(0), reference.index(0)));
    null_shard.push_back(nullptr);
    EXPECT_THROW(ShardedBatchMapper(reference, std::move(null_shard)),
                 InputError);
}

// ------------------------------------------- MappingEngine polymorphism

TEST(MappingEngine, AllBackendsDriveThroughTheInterface)
{
    const auto dataset = sim::makeDataset(smallConfig(109));
    SegramConfig config;
    config.tryReverseComplement = true;
    const SegramMapper segram_mapper(dataset.graph, dataset.index, config);
    const baseline::GraphAlignerLike ga_mapper(dataset.graph,
                                               dataset.index);
    const baseline::VgLike vg_mapper(dataset.graph, dataset.index);

    // One read on both strands, mapped twice over.
    const std::string forward = dataset.donor.seq().substr(2'000, 300);
    const std::string reverse = reverseComplement(forward);
    const std::vector<std::string_view> reads = {forward, reverse,
                                                 forward, reverse};
    const std::vector<const MappingEngine *> engines = {
        &segram_mapper, &ga_mapper, &vg_mapper};
    for (const MappingEngine *engine : engines) {
        PipelineStats stats;
        MapWorkspace workspace;
        std::vector<MapResult> results(reads.size());
        engine->mapMany(reads, results, &stats, workspace);
        EXPECT_EQ(stats.readsTotal, reads.size()) << engine->engineName();
        EXPECT_EQ(stats.readsMapped, reads.size()) << engine->engineName();
        for (size_t i = 0; i < reads.size(); ++i) {
            EXPECT_TRUE(results[i].mapped) << engine->engineName();
            EXPECT_EQ(results[i].reverseComplemented, i % 2 == 1)
                << engine->engineName();
            // Both strands land on the same forward coordinates, and a
            // repeated read maps identically.
            EXPECT_EQ(results[i].linearStart, results[0].linearStart)
                << engine->engineName();
            EXPECT_EQ(results[i].editDistance, results[0].editDistance)
                << engine->engineName();
        }
    }
    EXPECT_EQ(segram_mapper.engineName(), "segram");
    EXPECT_EQ(ga_mapper.engineName(), "graphaligner-like");
    EXPECT_EQ(vg_mapper.engineName(), "vg-like");
}

// ------------------------------------------------- regionsTried repair

TEST(SegramMapper, RegionsTriedCountsBothStrands)
{
    const auto dataset = sim::makeDataset(smallConfig(110));
    SegramConfig config;
    config.tryReverseComplement = true;
    const SegramMapper mapper(dataset.graph, dataset.index, config);

    Rng rng(111);
    for (int trial = 0; trial < 5; ++trial) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        std::string read = dataset.donor.seq().substr(start, 300);
        if (trial % 2 == 1)
            read = reverseComplement(read);
        PipelineStats stats;
        const auto result = mapper.mapRead(read, &stats);
        ASSERT_TRUE(result.mapped);
        // Without early exit every candidate region of both strands is
        // aligned, so the per-read counter must equal the stats-side
        // work counter — not just the winning strand's share.
        EXPECT_EQ(result.regionsTried, stats.regionsAligned)
            << "trial " << trial;
        EXPECT_GT(result.regionsTried, 0u);
    }
}

TEST(SegramMapper, MapManySchedulerMatchesMapReadLoop)
{
    // The lane-batched region-stream scheduler — including its
    // speculative starts past undecided early-exit checks — must
    // deliver exactly what the sequential oracle delivers: every
    // result field and every counter, for every config that changes
    // the per-strand control flow (early exit, RC retry, region cap,
    // chain filter) and for batch sizes that leave lanes idle or
    // ragged. mapRead is the one-read batch and must agree too.
    const auto dataset = sim::makeDataset(smallConfig(120));
    const auto all_reads = makeReads(dataset, 40, 121);

    SegramConfig plain;
    SegramConfig early;
    early.earlyExitFraction = 1.0;
    SegramConfig early_rc;
    early_rc.earlyExitFraction = 1.0;
    early_rc.tryReverseComplement = true;
    SegramConfig capped;
    capped.maxRegions = 2;
    capped.tryReverseComplement = true;
    SegramConfig chained;
    chained.enableChainFilter = true;
    chained.maxChains = 3;
    chained.earlyExitFraction = 1.0;
    chained.tryReverseComplement = true;
    const SegramConfig configs[] = {plain, early, early_rc, capped,
                                    chained};

    for (size_t c = 0; c < std::size(configs); ++c) {
        const SegramMapper mapper(dataset.graph, dataset.index,
                                  configs[c]);
        MapWorkspace workspace;
        for (const size_t count : {size_t{1}, size_t{2}, size_t{5},
                                   all_reads.size()}) {
            const std::vector<std::string> reads(
                all_reads.begin(),
                all_reads.begin() + static_cast<ptrdiff_t>(count));
            SCOPED_TRACE(::testing::Message()
                         << "config " << c << ", count " << count);
            PipelineStats batched_stats;
            const auto batched =
                mapWarm(mapper, reads, count, &batched_stats, workspace);
            PipelineStats loop_stats;
            expectSameResults(mapOracle(mapper, reads, &loop_stats),
                              batched);
            std::vector<MultiMapResult> one_read(count);
            for (size_t i = 0; i < count; ++i)
                static_cast<MapResult &>(one_read[i]) =
                    mapper.mapRead(reads[i]);
            expectSameResults(one_read, batched);
            expectSameStats(loop_stats, batched_stats,
                            /*lane_counters=*/false);
            EXPECT_EQ(batched_stats.readsTotal, count)
                << "config " << c;
        }
    }
}

TEST(SegramMapper, MapManyHandlesEmptyBatchAndReusedWorkspace)
{
    const auto dataset = sim::makeDataset(smallConfig(122));
    SegramConfig config;
    config.earlyExitFraction = 1.0;
    const SegramMapper mapper(dataset.graph, dataset.index, config);
    MapWorkspace workspace;

    PipelineStats stats;
    mapper.mapMany({}, {}, &stats, workspace);
    EXPECT_EQ(stats.readsTotal, 0u);

    // Back-to-back batches through one workspace: the second batch
    // must be unaffected by the first one's scheduler state.
    const auto reads = makeReads(dataset, 9, 123);
    const auto views = viewsOf(reads);
    std::vector<MapResult> first(reads.size());
    std::vector<MapResult> second(reads.size());
    mapper.mapMany(std::span<const std::string_view>(views), first,
                   nullptr, workspace);
    mapper.mapMany(std::span<const std::string_view>(views), second,
                   nullptr, workspace);
    for (size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ(first[i].mapped, second[i].mapped) << "read " << i;
        EXPECT_EQ(first[i].linearStart, second[i].linearStart)
            << "read " << i;
        EXPECT_EQ(first[i].editDistance, second[i].editDistance)
            << "read " << i;
        EXPECT_EQ(first[i].cigar.toString(), second[i].cigar.toString())
            << "read " << i;
    }
}

} // namespace
} // namespace segram::core
