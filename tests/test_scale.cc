/**
 * @file
 * Tests for the human-scale reference features: the query-time
 * occurrence cap (edge cases, thread-count determinism of the
 * stratified subsample, and the region flood it removes on a
 * repeat-rich multi-chromosome genome), the work-stealing sharded
 * batch mapper (bit-identical to a read-major sequential oracle at
 * every thread count), the shard residency LRU under a memory budget,
 * legacy v1 pack loading from a committed fixture, the work-stealing
 * scheduler itself, and the multi-chromosome / tandem-repeat
 * simulator growth.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/eval/accuracy.h"
#include "src/graph/gfa_import.h"
#include "src/io/gfa.h"
#include "src/io/pack.h"
#include "src/io/paf.h"
#include "src/seed/minseed.h"
#include "src/sim/dataset.h"
#include "src/sim/genome_sim.h"
#include "src/util/dna.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/map_test_util.h"

namespace
{

using namespace segram;

/** A repeat-heavy dataset: the occurrence cap must have lists to cap. */
sim::DatasetConfig
repeatConfig(uint64_t seed)
{
    sim::DatasetConfig config;
    config.genome.length = 40'000;
    config.genome.repeatFraction = 0.15;
    config.genome.repeatMotifLen = 120;
    config.genome.repeatMotifCount = 2;
    config.index.bucketBits = 12;
    config.index.discardTopFraction = 0.0; // keep the hot lists
    config.seed = seed;
    return config;
}

std::vector<std::string>
donorReads(const sim::Dataset &dataset, size_t count, uint64_t seed)
{
    std::vector<std::string> reads;
    Rng rng(seed);
    for (size_t i = 0; i < count; ++i) {
        const uint64_t start =
            rng.nextBelow(dataset.donor.seq().size() - 400);
        reads.push_back(dataset.donor.seq().substr(start, 300));
    }
    return reads;
}

using core::expectSameResults;
using core::expectSameStats;
using core::viewsOf;

// ---------------------------------------------------------------------
// Occurrence cap
// ---------------------------------------------------------------------

TEST(OccurrenceCap, ZeroAndHugeCapsMatchUncapped)
{
    const auto dataset = sim::makeDataset(repeatConfig(301));
    seed::MinSeedConfig uncapped;
    const seed::MinSeed baseline(dataset.graph, dataset.index, uncapped);

    seed::MinSeedConfig zero = uncapped;
    zero.maxOccurrences = 0; // documented: 0 disables the cap
    const seed::MinSeed zero_cap(dataset.graph, dataset.index, zero);

    // A cap no list can exceed must subsample nothing.
    seed::MinSeedConfig huge = uncapped;
    huge.maxOccurrences = 1u << 30;
    const seed::MinSeed huge_cap(dataset.graph, dataset.index, huge);

    const auto reads = donorReads(dataset, 20, 302);
    for (const auto &read : reads) {
        seed::MinSeedStats base_stats;
        seed::MinSeedStats zero_stats;
        seed::MinSeedStats huge_stats;
        const auto expected = baseline.seedRead(read, &base_stats);
        EXPECT_EQ(zero_cap.seedRead(read, &zero_stats), expected);
        EXPECT_EQ(huge_cap.seedRead(read, &huge_stats), expected);
        EXPECT_EQ(zero_stats.minimizersCapped, 0u);
        EXPECT_EQ(huge_stats.minimizersCapped, 0u);
        EXPECT_EQ(zero_stats.seedsSkippedByCap, 0u);
        EXPECT_EQ(huge_stats.seedsSkippedByCap, 0u);
    }
}

TEST(OccurrenceCap, SubsampleIsDeterministicAndBounded)
{
    const auto dataset = sim::makeDataset(repeatConfig(303));
    seed::MinSeedConfig capped_config;
    capped_config.maxOccurrences = 4;
    capped_config.mergeDuplicateRegions = false; // count raw emissions
    const seed::MinSeed capped(dataset.graph, dataset.index,
                               capped_config);
    seed::MinSeedConfig uncapped_config = capped_config;
    uncapped_config.maxOccurrences = 0;
    const seed::MinSeed uncapped(dataset.graph, dataset.index,
                                 uncapped_config);

    bool saw_capped_minimizer = false;
    for (const auto &read : donorReads(dataset, 20, 304)) {
        seed::MinSeedStats stats;
        const auto first = capped.seedRead(read, &stats);
        // Pure function of (read, index, cap): repeated calls agree.
        EXPECT_EQ(capped.seedRead(read), first);
        saw_capped_minimizer |= stats.minimizersCapped > 0;
        if (stats.minimizersCapped > 0) {
            EXPECT_GT(stats.seedsSkippedByCap, 0u);
        }

        // Every capped emission is a real occurrence: a subset of the
        // uncapped region set (same read, same merge settings).
        const auto full = uncapped.seedRead(read);
        const std::set<std::pair<uint64_t, uint64_t>> full_spans = [&] {
            std::set<std::pair<uint64_t, uint64_t>> spans;
            for (const auto &region : full)
                spans.insert({region.start, region.end});
            return spans;
        }();
        EXPECT_LE(first.size(), full.size());
        for (const auto &region : first)
            EXPECT_TRUE(full_spans.count({region.start, region.end}))
                << "capped region is not an uncapped occurrence";
    }
    // The dataset is repeat-heavy enough that a cap of 4 must trigger.
    EXPECT_TRUE(saw_capped_minimizer);
}

TEST(OccurrenceCap, CapCutsRepeatFloodWithSensitivityHeld)
{
    // A skew-length 8-chromosome genome, >= 10% planted repeats: one
    // short dispersed motif family (~600 copies, the hot occurrence
    // lists) and tandem arrays of private units (the bulk of the
    // repeat content).
    // The build-time frequency filter is off, so the query-time cap is
    // the only frequency policy. Every hot read keeps long unique
    // flanks, so capping must not lose its true locus — it must only
    // remove the flood of motif copies an uncapped read aligns.
    sim::MultiDatasetConfig config;
    config.genome.numChromosomes = 8;
    config.genome.totalLength = 2'000'000;
    config.genome.repeats.repeatFraction = 0.03;
    config.genome.repeats.repeatMotifLen = 100;
    config.genome.repeats.repeatMotifCount = 1;
    config.genome.repeats.tandemFraction = 0.10;
    config.genome.repeats.tandemUnitLen = 50;
    config.genome.repeats.tandemMaxCopies = 20;
    config.seed = 20220618;
    sim::RepeatReport planted;
    auto datasets = sim::makeMultiDataset(config, &planted);
    EXPECT_GE(static_cast<double>(planted.dispersedBases +
                                  planted.tandemBases),
              0.10 * static_cast<double>(config.genome.totalLength));

    index::IndexConfig index_config;
    index_config.sketch = {15, 10};
    index_config.bucketBits = 16;
    index_config.discardTopFraction = 0.0;
    constexpr uint32_t kReads = 60;
    sim::ReadSimConfig read_config{2'000, 0,
                                   sim::ErrorProfile::pacbio(0.05)};
    read_config.revCompProbability = 0.25;
    Rng rng(config.seed);
    std::vector<std::string> reads;
    std::vector<eval::TruthRecord> truth;
    std::vector<core::PreprocessedChromosome> chromosomes;
    for (auto &dataset : datasets) {
        // Reads per chromosome in proportion to its length, rounded
        // down (55 reads in all).
        read_config.numReads = static_cast<uint32_t>(
            kReads * dataset.reference.size() /
            config.genome.totalLength);
        for (auto &read : sim::simulateReads(dataset.donor, read_config,
                                             rng)) {
            std::string name = "read";
            name += std::to_string(reads.size());
            truth.push_back({std::move(name), dataset.name, read.donorStart,
                             read.truthLinearStart,
                             read.reverseComplemented ? '-' : '+',
                             static_cast<uint32_t>(read.seq.size()),
                             read.plantedErrors, "pacbio"});
            reads.push_back(std::move(read.seq));
        }
        auto index =
            index::MinimizerIndex::build(dataset.graph, index_config);
        chromosomes.push_back(
            {dataset.name, std::move(dataset.graph), std::move(index)});
    }
    const core::PreprocessedReference reference(std::move(chromosomes));
    const eval::AccuracyEvaluator evaluator(truth);
    const auto views = viewsOf(reads);

    // Regions aligned per read and sensitivity at occurrence cap @p cap.
    const auto run = [&](uint32_t cap) {
        core::SegramConfig segram;
        segram.minseed.errorRate = 0.05;
        segram.minseed.maxOccurrences = cap;
        segram.bitalign.windowEditCap = std::max(
            32, static_cast<int>(segram.bitalign.windowLen * 0.05 * 3));
        segram.earlyExitFraction = 1.5;
        segram.tryReverseComplement = true;
        core::PipelineStats stats;
        const auto results =
            core::ShardedBatchMapper(reference, segram, {.threads = 2})
                .mapBatch(std::span<const std::string_view>(views),
                          &stats);
        std::vector<io::PafRecord> records;
        for (size_t i = 0; i < results.size(); ++i) {
            if (!results[i].mapped)
                continue;
            size_t c = 0;
            while (reference.name(c) != results[i].chromosome)
                ++c;
            records.push_back(io::makePafRecord(
                truth[i].readName, reads[i].size(),
                results[i].reverseComplemented ? '-' : '+',
                results[i].chromosome, reference.graph(c).totalSeqLen(),
                results[i].linearStart, results[i].cigar));
        }
        return std::pair{
            static_cast<double>(stats.regionsAligned) /
                static_cast<double>(reads.size()),
            evaluator.evaluate("segram", records).overall.sensitivity()};
    };
    const auto [uncapped_regions, uncapped_sensitivity] = run(0);
    const auto [capped_regions, capped_sensitivity] = run(8);
    std::printf("%zu reads, regions aligned per read: uncapped %.1f, "
                "capped %.1f (%.1fx); sensitivity %.4f -> %.4f\n",
                reads.size(), uncapped_regions, capped_regions,
                uncapped_regions / capped_regions, uncapped_sensitivity,
                capped_sensitivity);
    EXPECT_GE(uncapped_regions, 5.0 * capped_regions);
    EXPECT_GE(capped_sensitivity + 0.01, uncapped_sensitivity);
}

// ---------------------------------------------------------------------
// Sharded mapper vs monolithic, across thread counts
// ---------------------------------------------------------------------

/** Builds a 3-chromosome reference plus a mixed read batch whose size
 *  (27) leaves a ragged last chunk. */
struct ShardedFixture
{
    std::vector<sim::Dataset> datasets;
    core::PreprocessedReference reference;
    std::vector<std::string> reads;

    explicit ShardedFixture(uint32_t max_occ)
    {
        std::vector<core::PreprocessedChromosome> chromosomes;
        for (uint64_t c = 0; c < 3; ++c) {
            datasets.push_back(sim::makeDataset(repeatConfig(310 + c)));
            const auto &dataset = datasets.back();
            chromosomes.push_back({"chr" + std::to_string(c + 1),
                                   dataset.graph, dataset.index});
        }
        reference =
            core::PreprocessedReference(std::move(chromosomes));
        Rng rng(315);
        for (int i = 0; i < 27; ++i) {
            const auto &donor = datasets[i % 3].donor;
            const uint64_t start =
                rng.nextBelow(donor.seq().size() - 400);
            reads.push_back(donor.seq().substr(start, 300));
        }
        config.minseed.maxOccurrences = max_occ;
        config.earlyExitFraction = 1.0;
    }

    core::SegramConfig config;
};

TEST(ShardedBatchMapper, MatchesMonolithicAtEveryThreadCount)
{
    ShardedFixture fixture(0);
    const auto views = viewsOf(fixture.reads);
    ASSERT_NE(fixture.reads.size() % core::ShardedBatchMapper::kChunkSize,
              0u);

    // The read-major reference: each read on every chromosome in turn.
    core::PipelineStats expected_stats;
    const auto expected = core::mapReadMajor(
        fixture.reference, fixture.config, fixture.reads, &expected_stats);

    core::PipelineStats stats1;
    for (const int threads : {1, 2, 4, 8}) {
        const core::ShardedBatchMapper sharded(
            fixture.reference, fixture.config, {.threads = threads});
        core::PipelineStats stats;
        const auto results = sharded.mapBatch(
            std::span<const std::string_view>(views), &stats);
        expectSameResults(results, expected);
        // Every deterministic counter, the lane-occupancy ones included,
        // is thread-count-invariant; the per-read loop has no lanes.
        expectSameStats(stats, expected_stats, /*lane_counters=*/false);
        if (threads == 1) {
            stats1 = stats;
            EXPECT_GT(stats1.batchedWindows, 0u);
        }
        expectSameStats(stats, stats1);
        EXPECT_EQ(stats.readsTotal, fixture.reads.size())
            << threads << " threads";
    }
}

TEST(ShardedBatchMapper, CappedSeedingIsThreadCountInvariant)
{
    ShardedFixture fixture(3); // aggressive cap: subsampling everywhere
    const auto views = viewsOf(fixture.reads);

    std::vector<core::MultiMapResult> expected;
    core::PipelineStats expected_stats;
    for (const int threads : {1, 2, 4, 8}) {
        const core::ShardedBatchMapper sharded(
            fixture.reference, fixture.config, {.threads = threads});
        core::PipelineStats stats;
        auto results = sharded.mapBatch(
            std::span<const std::string_view>(views), &stats);
        // Not vacuous: the aggressive cap must actually subsample.
        EXPECT_GT(stats.seeding.minimizersCapped, 0u)
            << threads << " threads";
        if (expected.empty()) {
            expected = std::move(results);
            expected_stats = stats;
        } else {
            expectSameResults(results, expected);
            expectSameStats(stats, expected_stats);
        }
    }
}

// ---------------------------------------------------------------------
// Packs: v1 back-compat and the memory budget
// ---------------------------------------------------------------------

/** Temp pack path unique to this test process. */
std::string
tempPackPath(const char *tag)
{
    return (std::filesystem::temp_directory_path() /
            ("test_scale_" + std::string(tag) + "_" +
             std::to_string(getpid()) + ".segram"))
        .string();
}

TEST(PackBackCompat, Version1PackLoadsAndMapsIdentically)
{
    // tiny_pangenome_v1.segram holds tiny_pangenome.gfa in the legacy
    // version-1 layout (no ShardTable section), written by the last
    // writer that could emit it, with bucketBits 8 and the default
    // sketch and discard fraction.
    const std::string data_dir = SEGRAM_TEST_DATA_DIR;
    const std::string v1_path = data_dir + "/tiny_pangenome_v1.segram";
    ASSERT_EQ(io::PackFile::open(v1_path).version(), 1u);

    index::IndexConfig index_config;
    index_config.bucketBits = 8;
    std::vector<core::PreprocessedChromosome> chromosomes;
    for (auto &chromosome : graph::importGfa(
             io::readGfaFile(data_dir + "/tiny_pangenome.gfa"))) {
        auto index =
            index::MinimizerIndex::build(chromosome.graph, index_config);
        chromosomes.push_back({chromosome.name, std::move(chromosome.graph),
                               std::move(index)});
    }
    const core::PreprocessedReference fresh(std::move(chromosomes));
    const auto loaded = core::PreprocessedReference::load(v1_path);
    core::expectSameTables(loaded, fresh);
    // Shard extents are derived from the section directory even
    // without a ShardTable, so v1 packs get residency control too.
    for (size_t c = 0; c < loaded.numChromosomes(); ++c)
        EXPECT_GT(loaded.shardBytes(c), 0u) << "chr " << c;

    // Reads tiling the reference path, on both strands.
    const io::GfaDocument doc =
        io::readGfaFile(data_dir + "/tiny_pangenome.gfa");
    std::string ref_walk;
    for (const std::string &step : doc.paths.front().steps)
        for (const io::GfaSegment &segment : doc.segments)
            if (segment.name == step)
                ref_walk += segment.seq;
    std::vector<std::string> reads;
    for (size_t start = 0; start + 80 <= ref_walk.size(); start += 40) {
        reads.push_back(ref_walk.substr(start, 80));
        reads.push_back(reverseComplement(reads.back()));
    }
    const auto views = viewsOf(reads);
    core::SegramConfig config;
    config.tryReverseComplement = true;
    core::PipelineStats fresh_stats;
    core::PipelineStats loaded_stats;
    const auto expected =
        core::ShardedBatchMapper(fresh, config, {})
            .mapBatch(std::span<const std::string_view>(views),
                      &fresh_stats);
    EXPECT_GT(fresh_stats.readsMapped, 0u);
    expectSameResults(
        core::ShardedBatchMapper(loaded, config, {})
            .mapBatch(std::span<const std::string_view>(views),
                      &loaded_stats),
        expected);
    expectSameStats(loaded_stats, fresh_stats);
}

TEST(ShardResidency, BudgetedMappingMatchesUnbudgetedAndEvicts)
{
    ShardedFixture fixture(0);
    const auto views = viewsOf(fixture.reads);
    const std::string path = tempPackPath("budget");
    fixture.reference.save(path);

    const auto warm = core::PreprocessedReference::load(path);
    const core::ShardedBatchMapper unbudgeted(warm, fixture.config, {});
    const auto expected =
        unbudgeted.mapBatch(std::span<const std::string_view>(views));
    EXPECT_EQ(unbudgeted.residencyStats().acquisitions, 0u);

    io::PackLoadOptions cold_options;
    cold_options.coldLoad = true;
    const auto cold =
        core::PreprocessedReference::load(path, cold_options);
    uint64_t largest = 0;
    for (size_t c = 0; c < cold.numChromosomes(); ++c)
        largest = std::max(largest, cold.shardBytes(c));

    // Budget of one shard with one worker: every shard switch evicts.
    core::ShardedBatchConfig batch_config;
    batch_config.threads = 1;
    batch_config.memBudgetBytes = largest;
    const core::ShardedBatchMapper budgeted(cold, fixture.config,
                                            batch_config);
    expectSameResults(
        budgeted.mapBatch(std::span<const std::string_view>(views)),
        expected);
    const auto stats = budgeted.residencyStats();
    EXPECT_GT(stats.acquisitions, 0u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.peakResidentBytes, largest);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Work stealing
// ---------------------------------------------------------------------

TEST(ParallelSteal, CoversEveryItemExactlyOnce)
{
    for (const int workers : {1, 2, 4, 8}) {
        util::ThreadPool pool(workers);
        for (const size_t items : {size_t{0}, size_t{1}, size_t{7},
                                   size_t{64}, size_t{1000}}) {
            std::vector<std::atomic<int>> hits(items);
            pool.parallelSteal(items, [&](size_t item, int worker_id) {
                EXPECT_LT(item, items);
                EXPECT_GE(worker_id, 0);
                EXPECT_LT(worker_id, workers);
                hits[item].fetch_add(1, std::memory_order_relaxed);
            });
            for (size_t i = 0; i < items; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "item " << i << " with " << workers << " workers";
        }
    }
}

TEST(ParallelSteal, ImbalancedItemsStillAllRun)
{
    // First items are lightweight, the last ones heavy: the initial
    // contiguous split gives one worker all the heavy tail, so the
    // others must steal to finish.
    util::ThreadPool pool(4);
    constexpr size_t kItems = 64;
    std::vector<std::atomic<int>> hits(kItems);
    std::atomic<uint64_t> sink{0};
    pool.parallelSteal(kItems, [&](size_t item, int) {
        if (item >= kItems - 8) {
            uint64_t acc = 0;
            for (uint64_t i = 0; i < 2'000'000; ++i)
                acc += i * i;
            sink.fetch_add(acc, std::memory_order_relaxed);
        }
        hits[item].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;
}

// ---------------------------------------------------------------------
// Simulator growth
// ---------------------------------------------------------------------

TEST(MultiChromosomeSim, LengthsNamesAndDeterminism)
{
    sim::MultiGenomeConfig config;
    config.numChromosomes = 5;
    config.totalLength = 100'000;
    Rng rng_a(41);
    const auto a = sim::simulateMultiChromosomeGenome(config, rng_a);
    ASSERT_EQ(a.size(), 5u);

    uint64_t total = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, "chr" + std::to_string(i + 1));
        for (const char base : a[i].seq)
            ASSERT_TRUE(base == 'A' || base == 'C' || base == 'G' ||
                        base == 'T');
        total += a[i].seq.size();
        if (i + 2 < a.size()) { // last one absorbs rounding remainder
            EXPECT_GT(a[i].seq.size(), a[i + 1].seq.size());
        }
    }
    EXPECT_EQ(total, config.totalLength);

    Rng rng_b(41);
    const auto b = sim::simulateMultiChromosomeGenome(config, rng_b);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].seq, b[i].seq) << "chr " << i;
}

TEST(MultiChromosomeSim, RepeatReportAccountsPlantedBases)
{
    sim::MultiGenomeConfig config;
    config.numChromosomes = 4;
    config.totalLength = 200'000;
    config.repeats.repeatFraction = 0.05;
    config.repeats.repeatMotifLen = 100;
    config.repeats.repeatMotifCount = 2;
    config.repeats.tandemFraction = 0.06;
    config.repeats.tandemUnitLen = 40;
    config.repeats.tandemMaxCopies = 10;

    Rng rng(43);
    sim::RepeatReport report;
    const auto chromosomes =
        sim::simulateMultiChromosomeGenome(config, rng, &report);

    // Planted bases land within 20% of the configured targets (the
    // planting loops stop at the first overshoot).
    const auto near = [](uint64_t actual, double target) {
        EXPECT_GE(actual, static_cast<uint64_t>(target * 0.8));
        EXPECT_LE(actual, static_cast<uint64_t>(target * 1.2));
    };
    near(report.dispersedBases, 0.05 * 200'000);
    near(report.tandemBases, 0.06 * 200'000);
    EXPECT_GT(report.tandemArrays, 0u);

    // Dispersed families span chromosomes: the motif pool is drawn
    // once, so some 60-mer of chr1 (a window inside a motif copy —
    // step 20 over 100 bp copies guarantees one probe lands fully
    // inside) recurs verbatim in chr2.
    bool cross_chromosome = false;
    const std::string &chr1 = chromosomes[0].seq;
    const std::string &chr2 = chromosomes[1].seq;
    for (size_t pos = 0; pos + 60 <= chr1.size() && !cross_chromosome;
         pos += 20)
        cross_chromosome =
            chr2.find(chr1.substr(pos, 60)) != std::string::npos;
    EXPECT_TRUE(cross_chromosome);
}

TEST(MultiChromosomeSim, ZeroTandemFractionConsumesNoRngDraws)
{
    // The committed golden CLI outputs depend on the legacy RNG call
    // sequence: at tandemFraction 0 the tandem hook must not consume
    // a single draw, whatever the other tandem knobs say.
    sim::GenomeConfig config;
    config.length = 5'000;
    Rng rng_a(7);
    const auto baseline = sim::simulateGenome(config, rng_a);
    const uint64_t next_a = rng_a.nextU64();

    sim::GenomeConfig tweaked = config;
    tweaked.tandemUnitLen = 7;     // ignored while the
    tweaked.tandemMaxCopies = 100; // fraction stays 0
    Rng rng_b(7);
    EXPECT_EQ(sim::simulateGenome(tweaked, rng_b), baseline);
    EXPECT_EQ(rng_b.nextU64(), next_a);

    // And a nonzero fraction changes the genome but not its length.
    sim::GenomeConfig tandem = config;
    tandem.tandemFraction = 0.10;
    tandem.tandemUnitLen = 25;
    tandem.tandemMaxCopies = 8;
    Rng rng_c(7);
    sim::RepeatReport report;
    const auto with_tandem =
        sim::simulateGenome(tandem, rng_c, &report);
    EXPECT_EQ(with_tandem.size(), baseline.size());
    EXPECT_NE(with_tandem, baseline);
    EXPECT_GT(report.tandemBases, 0u);
}

TEST(MultiDataset, BuildsAlignedPerChromosomePieces)
{
    sim::MultiDatasetConfig config;
    config.genome.numChromosomes = 3;
    config.genome.totalLength = 60'000;
    config.seed = 44;
    const auto datasets = sim::makeMultiDataset(config);
    ASSERT_EQ(datasets.size(), 3u);
    for (const auto &dataset : datasets) {
        EXPECT_FALSE(dataset.name.empty());
        EXPECT_TRUE(dataset.graph.isTopologicallySorted());
        // The donor applies this chromosome's variants to this
        // chromosome's reference; lengths stay within indel slack.
        const double ratio =
            static_cast<double>(dataset.donor.seq().size()) /
            static_cast<double>(dataset.reference.size());
        EXPECT_GT(ratio, 0.95);
        EXPECT_LT(ratio, 1.05);
    }
}

} // namespace
