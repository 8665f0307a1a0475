/**
 * @file
 * Tests for minimizer sketching (Fig. 8) and the MinSeed stage
 * (Fig. 9): the O(m) single-loop algorithm against the naive reference,
 * the shared-minimizer guarantee, and seed-to-region conversion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "src/graph/graph_builder.h"
#include "src/index/minimizer_index.h"
#include "src/seed/chaining.h"
#include "src/seed/minimizer.h"
#include "src/seed/minseed.h"
#include "src/sim/genome_sim.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace segram::seed
{
namespace
{

TEST(Minimizer, EmptyWhenSequenceTooShort)
{
    const SketchConfig config{5, 4}; // needs w+k-1 = 8 bases
    EXPECT_TRUE(computeMinimizers("ACGTACG", config).empty());
    EXPECT_EQ(computeMinimizers("ACGTACGT", config).size(), 1u);
}

TEST(Minimizer, SingleLoopMatchesNaive)
{
    // The load-bearing property: the deque-based O(m) algorithm must
    // produce exactly the nested-loop definition of Section 6.
    Rng rng(11);
    struct Param { int k; int w; };
    for (const auto &param :
         {Param{4, 3}, Param{7, 5}, Param{11, 10}, Param{15, 10},
          Param{21, 11}}) {
        const SketchConfig config{param.k, param.w};
        for (int trial = 0; trial < 20; ++trial) {
            const auto len = static_cast<uint64_t>(
                param.k + param.w + rng.nextBelow(500));
            const std::string seq = sim::randomSequence(len, rng);
            EXPECT_EQ(computeMinimizers(seq, config),
                      computeMinimizersNaive(seq, config))
                << "k=" << param.k << " w=" << param.w << " len=" << len;
        }
    }
}

TEST(Minimizer, SharedExactMatchSharesMinimizer)
{
    // Two sequences sharing an exact stretch of >= w+k-1 bases must
    // share at least one minimizer (the guarantee seeding relies on).
    Rng rng(13);
    const SketchConfig config{11, 8};
    const int need = config.w + config.k - 1;
    for (int trial = 0; trial < 30; ++trial) {
        const std::string shared =
            sim::randomSequence(need + rng.nextBelow(30), rng);
        const std::string a =
            sim::randomSequence(rng.nextBelow(40), rng) + shared +
            sim::randomSequence(rng.nextBelow(40), rng);
        const std::string b =
            sim::randomSequence(rng.nextBelow(40), rng) + shared +
            sim::randomSequence(rng.nextBelow(40), rng);
        std::set<uint64_t> hashes_a;
        for (const auto &m : computeMinimizers(a, config))
            hashes_a.insert(m.hash);
        bool found = false;
        for (const auto &m : computeMinimizers(b, config))
            found |= hashes_a.count(m.hash) > 0;
        EXPECT_TRUE(found) << "trial " << trial;
    }
}

TEST(Minimizer, DensityNearTheoreticalRate)
{
    // Expected density of <w,k>-minimizers is ~2/(w+1) per position.
    Rng rng(17);
    const SketchConfig config{15, 10};
    const std::string seq = sim::randomSequence(100'000, rng);
    const auto minimizers = computeMinimizers(seq, config);
    const double density =
        static_cast<double>(minimizers.size()) /
        static_cast<double>(seq.size());
    const double expected = 2.0 / (config.w + 1);
    EXPECT_NEAR(density, expected, expected * 0.15);
}

TEST(Minimizer, RejectsBadInputs)
{
    EXPECT_THROW(computeMinimizers("ACGT", {0, 5}), InputError);
    EXPECT_THROW(computeMinimizers("ACGT", {32, 5}), InputError);
    EXPECT_THROW(computeMinimizers("ACGT", {4, 0}), InputError);
    EXPECT_THROW(computeMinimizers("ACGNACGT", {3, 2}), InputError);
}

TEST(Minimizer, KmerHashMatchesSketch)
{
    const SketchConfig config{5, 1};
    const std::string seq = "ACGTACGTAC";
    // With w=1 every k-mer is a minimizer; hashes must agree.
    const auto minimizers = computeMinimizers(seq, config);
    ASSERT_EQ(minimizers.size(), seq.size() - config.k + 1);
    for (const auto &m : minimizers)
        EXPECT_EQ(m.hash, kmerHash(seq, m.pos, config));
}

class MinSeedTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(23);
        reference_ = sim::randomSequence(20'000, rng);
        graph::BuildOptions options;
        options.maxNodeLen = 300;
        graph_ = graph::buildGraph(reference_, {}, options);
        index::IndexConfig config;
        config.sketch = {11, 6};
        config.bucketBits = 12;
        index_ = index::MinimizerIndex::build(graph_, config);
    }

    std::string reference_;
    graph::GenomeGraph graph_;
    index::MinimizerIndex index_;
};

TEST_F(MinSeedTest, ExactReadSeedsCoverTrueRegion)
{
    MinSeedConfig config;
    config.errorRate = 0.10;
    const MinSeed minseed(graph_, index_, config);
    Rng rng(29);
    for (int trial = 0; trial < 20; ++trial) {
        const uint64_t true_start = rng.nextBelow(reference_.size() - 600);
        const std::string read = reference_.substr(true_start, 500);
        MinSeedStats stats;
        const auto regions = minseed.seedRead(read, &stats);
        ASSERT_FALSE(regions.empty());
        EXPECT_GT(stats.minimizersComputed, 0u);
        EXPECT_GE(stats.minimizersComputed, stats.minimizersKept);
        // At least one region must contain the true location. Since the
        // backbone is a chain, linear coordinates equal reference ones.
        bool covered = false;
        for (const auto &region : regions) {
            covered |= region.start <= true_start &&
                       true_start + read.size() - 1 <= region.end + 8;
        }
        EXPECT_TRUE(covered) << "true start " << true_start;
    }
}

TEST_F(MinSeedTest, RegionFollowsFig9Formulas)
{
    MinSeedConfig config;
    config.errorRate = 0.10;
    config.mergeDuplicateRegions = false;
    const MinSeed minseed(graph_, index_, config);
    const std::string read = reference_.substr(1'000, 400);
    const auto regions = minseed.seedRead(read);
    const int k = index_.sketch().k;
    const auto m = static_cast<int64_t>(read.size());
    for (const auto &region : regions) {
        const int64_t a = region.minimizerPos;
        const int64_t b = a + k - 1;
        const uint64_t c = graph_.node(region.seed.node).linearOffset +
                           region.seed.offset;
        const uint64_t d = c + k - 1;
        const auto left =
            static_cast<uint64_t>(std::llround(a * 1.10));
        const uint64_t expect_start = c >= left ? c - left : 0;
        const uint64_t expect_end = std::min<uint64_t>(
            d + static_cast<uint64_t>(std::llround((m - b - 1) * 1.10)),
            graph_.totalSeqLen() - 1);
        EXPECT_EQ(region.start, expect_start);
        EXPECT_EQ(region.end, expect_end);
    }
}

TEST_F(MinSeedTest, FrequencyThresholdFiltersSeeds)
{
    // With threshold 1, only unique minimizers survive.
    MinSeedConfig strict;
    strict.frequencyThreshold = 1;
    const MinSeed minseed_strict(graph_, index_, strict);
    MinSeedConfig loose;
    loose.frequencyThreshold = 100000;
    const MinSeed minseed_loose(graph_, index_, loose);
    const std::string read = reference_.substr(2'000, 300);
    MinSeedStats strict_stats;
    MinSeedStats loose_stats;
    minseed_strict.seedRead(read, &strict_stats);
    minseed_loose.seedRead(read, &loose_stats);
    EXPECT_LE(strict_stats.seedsFetched, loose_stats.seedsFetched);
    EXPECT_GT(loose_stats.seedsFetched, 0u);
}

TEST_F(MinSeedTest, DuplicateRegionsMergedWhenEnabled)
{
    MinSeedConfig merged_config;
    merged_config.mergeDuplicateRegions = true;
    MinSeedConfig raw_config;
    raw_config.mergeDuplicateRegions = false;
    const MinSeed merged(graph_, index_, merged_config);
    const MinSeed raw(graph_, index_, raw_config);
    const std::string read = reference_.substr(3'000, 300);
    EXPECT_LE(merged.seedRead(read).size(), raw.seedRead(read).size());
}

TEST_F(MinSeedTest, BufferReuseMatchesReturningOverload)
{
    // One warm scratch + region vector across many reads must produce
    // exactly what the allocating overload produces, stats included.
    const MinSeed minseed(graph_, index_);
    Rng rng(31);
    SeedScratch scratch;
    std::vector<CandidateRegion> reused;
    for (int trial = 0; trial < 25; ++trial) {
        const uint64_t start = rng.nextBelow(reference_.size() - 400);
        const std::string read = reference_.substr(start, 350);
        MinSeedStats fresh_stats;
        MinSeedStats reused_stats;
        const auto fresh = minseed.seedRead(read, &fresh_stats);
        minseed.seedRead(read, reused, scratch, &reused_stats);
        EXPECT_EQ(fresh, reused) << "trial " << trial;
        EXPECT_EQ(fresh_stats.minimizersComputed,
                  reused_stats.minimizersComputed);
        EXPECT_EQ(fresh_stats.seedsFetched, reused_stats.seedsFetched);
        EXPECT_EQ(fresh_stats.regionsEmitted,
                  reused_stats.regionsEmitted);
    }
}

/** Maximal runs of overlapping regions, in coordinate order. */
std::vector<std::vector<CandidateRegion>>
lociOf(std::vector<CandidateRegion> regions)
{
    std::sort(regions.begin(), regions.end(),
              [](const CandidateRegion &lhs, const CandidateRegion &rhs) {
                  return std::pair(lhs.start, lhs.end) <
                         std::pair(rhs.start, rhs.end);
              });
    std::vector<std::vector<CandidateRegion>> loci;
    uint64_t reach = 0;
    for (const CandidateRegion &region : regions) {
        if (loci.empty() || region.start > reach) {
            loci.emplace_back();
            reach = region.end;
        }
        loci.back().push_back(region);
        reach = std::max(reach, region.end);
    }
    return loci;
}

/**
 * The locus ranking spelled out naively: loci stable-sorted by size
 * (descending), each region's support its locus's size.
 */
std::vector<CandidateRegion>
rankedNaively(const std::vector<CandidateRegion> &regions)
{
    auto loci = lociOf(regions);
    std::stable_sort(loci.begin(), loci.end(),
                     [](const auto &lhs, const auto &rhs) {
                         return lhs.size() > rhs.size();
                     });
    std::vector<CandidateRegion> out;
    for (const auto &locus : loci) {
        for (CandidateRegion region : locus) {
            region.support = static_cast<uint32_t>(locus.size());
            out.push_back(region);
        }
    }
    return out;
}

/**
 * A reference with planted copies, so reads seed several loci: the
 * stretch [12'000, 12'400) has a 120 bp copy of its start at 3'000 (left
 * of it, weaker) and a 60 bp copy of its end at 18'000 (right of it,
 * weaker still); [6'000, 6'400) has a full copy at 15'000, on the same
 * 300 bp node grid (two loci of equal support).
 */
class LocusRankTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kTrueStart = 12'000;
    static constexpr uint64_t kTwinStart = 6'000;
    static constexpr uint64_t kTwinCopy = 15'000;
    static constexpr uint64_t kReadLen = 400;

    void
    SetUp() override
    {
        Rng rng(41);
        reference_ = sim::randomSequence(20'000, rng);
        reference_.replace(3'000, 120, reference_.substr(kTrueStart, 120));
        reference_.replace(18'000, 60,
                           reference_.substr(kTrueStart + 340, 60));
        // The twin copy carries 100 bp of flank on each side, so every
        // minimizer of a read from it sits in the same context twice.
        reference_.replace(kTwinCopy - 100, kReadLen + 200,
                           reference_.substr(kTwinStart - 100,
                                             kReadLen + 200));
        graph::BuildOptions options;
        options.maxNodeLen = 300;
        graph_ = graph::buildGraph(reference_, {}, options);
        index::IndexConfig config;
        config.sketch = {11, 6};
        config.bucketBits = 12;
        index_ = index::MinimizerIndex::build(graph_, config);
        // Keep the planted (twice-occurring) minimizers.
        config_.frequencyThreshold = 1'000;
    }

    std::string reference_;
    graph::GenomeGraph graph_;
    index::MinimizerIndex index_;
    MinSeedConfig config_;
};

TEST_F(LocusRankTest, SupportIsTheLocusRegionCount)
{
    const MinSeed minseed(graph_, index_, config_);
    const std::string read = reference_.substr(kTrueStart, kReadLen);
    MinSeedStats stats;
    const auto regions = minseed.seedRead(read, &stats);
    const auto expected = rankedNaively(regions);
    ASSERT_EQ(regions.size(), expected.size());
    std::set<uint32_t> supports;
    for (size_t i = 0; i < regions.size(); ++i) {
        EXPECT_EQ(regions[i].support, expected[i].support)
            << "region " << i;
        supports.insert(regions[i].support);
    }
    // The true locus and both planted copies, each with its own support.
    EXPECT_GE(supports.size(), 3u);
    EXPECT_EQ(stats.lociEmitted, lociOf(regions).size());
    EXPECT_EQ(stats.regionsEmitted, regions.size());
}

TEST_F(LocusRankTest, LociComeInDescendingSupport)
{
    const MinSeed minseed(graph_, index_, config_);
    const std::string read = reference_.substr(kTrueStart, kReadLen);
    const auto regions = minseed.seedRead(read);
    ASSERT_FALSE(regions.empty());
    for (size_t i = 1; i < regions.size(); ++i)
        EXPECT_GE(regions[i - 1].support, regions[i].support)
            << "region " << i;
    // The weaker copy at 3'000 lies left of the true locus, yet the true
    // locus comes first.
    const auto leftmost = std::min_element(
        regions.begin(), regions.end(),
        [](const CandidateRegion &lhs, const CandidateRegion &rhs) {
            return lhs.start < rhs.start;
        });
    EXPECT_LT(leftmost->end, kTrueStart);
    EXPECT_LE(regions.front().start, kTrueStart);
    EXPECT_GE(regions.front().end, kTrueStart + kReadLen - 1);
    EXPECT_GT(regions.front().support, leftmost->support);
}

TEST_F(LocusRankTest, CoordinateOrderInsideAndAcrossEqualLoci)
{
    const MinSeed minseed(graph_, index_, config_);
    for (const uint64_t start : {kTrueStart, kTwinStart}) {
        const std::string read = reference_.substr(start, kReadLen);
        const auto regions = minseed.seedRead(read);
        EXPECT_EQ(regions, rankedNaively(regions)) << "read at " << start;
        // Loci of equal support never overlap, so every run of equal
        // support is in coordinate order.
        for (size_t i = 1; i < regions.size(); ++i) {
            if (regions[i - 1].support != regions[i].support)
                continue;
            EXPECT_LT(std::pair(regions[i - 1].start, regions[i - 1].end),
                      std::pair(regions[i].start, regions[i].end))
                << "read at " << start << ", region " << i;
        }
    }
    // The twin read's two loci tie: the original (left) comes first.
    const auto twin =
        minseed.seedRead(reference_.substr(kTwinStart, kReadLen));
    ASSERT_FALSE(twin.empty());
    const uint32_t top = twin.front().support;
    size_t top_count = 0;
    for (const CandidateRegion &region : twin)
        top_count += region.support == top ? 1 : 0;
    ASSERT_EQ(top_count, 2 * size_t{top});
    for (size_t i = 0; i < top_count; ++i)
        EXPECT_EQ(twin[i].end < kTwinCopy, i < top) << "region " << i;
}

TEST_F(LocusRankTest, ReusedScratchMatchesFreshScratch)
{
    // Reads from every part of the reference, planted copies included:
    // a warm scratch must rank exactly as a fresh one, stats included.
    const MinSeed minseed(graph_, index_, config_);
    Rng rng(43);
    SeedScratch scratch;
    std::vector<CandidateRegion> reused;
    std::vector<uint64_t> starts = {kTrueStart, kTwinStart, kTwinCopy};
    for (int trial = 0; trial < 20; ++trial)
        starts.push_back(rng.nextBelow(reference_.size() - kReadLen));
    for (const uint64_t start : starts) {
        const std::string read = reference_.substr(start, kReadLen);
        MinSeedStats fresh_stats;
        MinSeedStats reused_stats;
        const auto fresh = minseed.seedRead(read, &fresh_stats);
        minseed.seedRead(read, reused, scratch, &reused_stats);
        EXPECT_EQ(fresh, reused) << "read at " << start;
        EXPECT_EQ(fresh_stats.lociEmitted, reused_stats.lociEmitted);
        EXPECT_EQ(fresh_stats.regionsEmitted, reused_stats.regionsEmitted);
    }
}

TEST(Minimizer, BufferReuseMatchesReturningOverload)
{
    Rng rng(37);
    const SketchConfig config{11, 8};
    MinimizerScratch scratch;
    std::vector<Minimizer> reused;
    for (int trial = 0; trial < 25; ++trial) {
        const std::string seq =
            sim::randomSequence(20 + rng.nextBelow(400), rng);
        computeMinimizers(seq, config, reused, scratch);
        EXPECT_EQ(computeMinimizers(seq, config), reused)
            << "trial " << trial;
    }
}

TEST_F(MinSeedTest, ShortReadYieldsNoRegions)
{
    const MinSeed minseed(graph_, index_);
    // Shorter than w+k-1: no minimizers, hence no regions.
    const auto regions = minseed.seedRead("ACGTACGTACGT");
    EXPECT_TRUE(regions.empty());
}

// ------------------------------------------------------------ chaining

TEST(ChainSeeds, EmptyInputYieldsNoChains)
{
    EXPECT_TRUE(chainSeeds({}, {}).empty());
    ChainConfig config;
    config.maxChains = 3;
    EXPECT_TRUE(chainSeeds({}, config).empty());
}

TEST(Chain, EmptyChainEndpointsThrowInsteadOfUb)
{
    // front()/back() on an empty hits vector is undefined behaviour;
    // the accessors must fail loudly instead.
    const Chain empty;
    EXPECT_THROW(empty.refStart(), InputError);
    EXPECT_THROW(empty.refEnd(), InputError);
    const Chain one{{{42, 7}}, 1};
    EXPECT_EQ(one.refStart(), 42u);
    EXPECT_EQ(one.refEnd(), 42u);
}

TEST(ChainSeeds, CoDiagonalSeedsFormOneChain)
{
    // Three seeds on the exact same diagonal (refPos - readPos = 1000)
    // within the gap limit must group into a single chain, ordered by
    // reference position.
    const std::vector<SeedHit> hits = {
        {1200, 200}, {1000, 0}, {1100, 100}};
    const auto chains = chainSeeds(hits, {});
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].score, 3);
    ASSERT_EQ(chains[0].hits.size(), 3u);
    EXPECT_EQ(chains[0].hits[0].refPos, 1000u);
    EXPECT_EQ(chains[0].hits[1].refPos, 1100u);
    EXPECT_EQ(chains[0].hits[2].refPos, 1200u);
    EXPECT_EQ(chains[0].refStart(), 1000u);
    EXPECT_EQ(chains[0].refEnd(), 1200u);
}

TEST(ChainSeeds, DistantDiagonalsSplitIntoChains)
{
    // Two co-diagonal groups far outside the diagonal band: the bigger
    // group must win (sorted by descending score).
    const std::vector<SeedHit> hits = {
        {5000, 10}, {9000, 0},    {5100, 110},
        {9100, 100}, {5200, 210},
    };
    ChainConfig config;
    config.diagonalBand = 64;
    const auto chains = chainSeeds(hits, config);
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_EQ(chains[0].score, 3);
    EXPECT_EQ(chains[0].refStart(), 5000u);
    EXPECT_EQ(chains[1].score, 2);
    EXPECT_EQ(chains[1].refStart(), 9000u);
}

TEST(ChainSeeds, DiagonalDriftWithinBandStaysChained)
{
    // Drift of 10 (insertion-like) is inside the default band of 64;
    // drift of 1000 is not.
    const std::vector<SeedHit> within = {{1000, 0}, {1110, 100}};
    EXPECT_EQ(chainSeeds(within, {}).size(), 1u);
    const std::vector<SeedHit> outside = {{1000, 0}, {2100, 100}};
    EXPECT_EQ(chainSeeds(outside, {}).size(), 2u);
}

TEST(ChainSeeds, ReferenceGapSplitsChain)
{
    // Same diagonal but a reference gap beyond maxGap must split.
    ChainConfig config;
    config.maxGap = 500;
    const std::vector<SeedHit> hits = {{1000, 0}, {2000, 1000}};
    EXPECT_EQ(chainSeeds(hits, config).size(), 2u);
    config.maxGap = 2000;
    EXPECT_EQ(chainSeeds(hits, config).size(), 1u);
}

TEST(ChainSeeds, EqualScoresOrderByReferenceStart)
{
    const std::vector<SeedHit> hits = {{9000, 0}, {1000, 0}, {5000, 0}};
    const auto chains = chainSeeds(hits, {});
    ASSERT_EQ(chains.size(), 3u);
    EXPECT_EQ(chains[0].refStart(), 1000u);
    EXPECT_EQ(chains[1].refStart(), 5000u);
    EXPECT_EQ(chains[2].refStart(), 9000u);
}

TEST(ChainSeeds, MaxChainsTruncatesAfterSorting)
{
    // Four single-seed chains plus one double-seed chain; maxChains 2
    // must keep the double (best score) and the earliest single.
    const std::vector<SeedHit> hits = {
        {9000, 0}, {1000, 0}, {5000, 0},
        {20000, 0}, {20100, 100},
    };
    ChainConfig config;
    config.maxChains = 2;
    const auto chains = chainSeeds(hits, config);
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_EQ(chains[0].score, 2);
    EXPECT_EQ(chains[0].refStart(), 20000u);
    EXPECT_EQ(chains[1].score, 1);
    EXPECT_EQ(chains[1].refStart(), 1000u);

    // maxChains = 0 keeps everything.
    config.maxChains = 0;
    EXPECT_EQ(chainSeeds(hits, config).size(), 4u);
}

TEST(ChainSeeds, ScratchOverloadMatchesConvenienceOverload)
{
    // The workspace overload (span input, scratch-owned storage, radix
    // sort) must produce chain-for-chain identical results to the
    // vector overload across random inputs spanning both the
    // insertion-sort and radix paths.
    Rng rng(77);
    ChainScratch scratch;
    for (int trial = 0; trial < 50; ++trial) {
        const size_t count = 1 + rng.nextBelow(200);
        std::vector<SeedHit> hits;
        hits.reserve(count);
        for (size_t i = 0; i < count; ++i) {
            const uint64_t ref = rng.nextBelow(1'000'000);
            const auto read =
                static_cast<uint32_t>(rng.nextBelow(1'000));
            hits.push_back({ref, read});
        }
        ChainConfig config;
        config.diagonalBand = 1 + rng.nextBelow(128);
        config.maxGap = 1 + rng.nextBelow(4'000);
        config.maxChains = static_cast<int>(rng.nextBelow(8));

        const auto expect = chainSeeds(hits, config);
        // Reuse one scratch across all trials: stale pool contents
        // from bigger earlier trials must never leak into results.
        const auto got = chainSeeds(std::span<const SeedHit>(hits),
                                    config, scratch);
        ASSERT_EQ(expect.size(), got.size()) << "trial " << trial;
        for (size_t c = 0; c < expect.size(); ++c) {
            EXPECT_EQ(expect[c].score, got[c].score)
                << "trial " << trial << ", chain " << c;
            EXPECT_EQ(expect[c].hits, got[c].hits)
                << "trial " << trial << ", chain " << c;
        }
    }
}

TEST(ChainSeeds, ScratchResultsValidUntilNextCall)
{
    ChainScratch scratch;
    const std::vector<SeedHit> first = {{1000, 0}, {1100, 100}};
    const auto chains = chainSeeds(std::span<const SeedHit>(first), {},
                                   scratch);
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].score, 2);

    // A later call on the same scratch recycles the pool...
    const std::vector<SeedHit> second = {{5000, 0}};
    const auto next = chainSeeds(std::span<const SeedHit>(second), {},
                                 scratch);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0].refStart(), 5000u);
    EXPECT_EQ(next[0].hits.size(), 1u);
}

TEST(MinSeedConfigTest, RejectsBadErrorRate)
{
    Rng rng(1);
    const std::string reference = sim::randomSequence(2'000, rng);
    const auto graph = graph::buildGraph(reference, {});
    index::IndexConfig index_config;
    index_config.bucketBits = 8;
    const auto index = index::MinimizerIndex::build(graph, index_config);
    MinSeedConfig config;
    config.errorRate = 1.5;
    EXPECT_THROW(MinSeed(graph, index, config), InputError);
}

} // namespace
} // namespace segram::seed
