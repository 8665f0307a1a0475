/**
 * @file
 * Tests for the three-level hash-table index (Fig. 6): query
 * correctness against a naive map, footprint accounting (Fig. 7
 * series), the frequency threshold (top 0.02% discard rule), and
 * table-exact equality with a comparison-sort oracle build across
 * sketch, bucket and discard settings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/graph/graph_builder.h"
#include "src/index/minimizer_index.h"
#include "src/io/pack.h"
#include "src/seed/minimizer.h"
#include "src/sim/genome_sim.h"
#include "src/sim/variant_sim.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace segram::index
{
namespace
{

graph::GenomeGraph
randomGraph(uint64_t len, uint64_t seed, uint32_t max_node_len = 200)
{
    Rng rng(seed);
    const std::string reference = sim::randomSequence(len, rng);
    graph::BuildOptions options;
    options.maxNodeLen = max_node_len;
    return graph::buildGraph(reference, {}, options);
}

/** Naive reference index: every node k-mer minimizer into a multimap. */
std::map<uint64_t, std::vector<SeedLocation>>
naiveIndex(const graph::GenomeGraph &graph,
           const seed::SketchConfig &sketch)
{
    std::map<uint64_t, std::vector<SeedLocation>> naive;
    for (graph::NodeId id = 0; id < graph.numNodes(); ++id) {
        for (const auto &m :
             seed::computeMinimizers(graph.nodeSeq(id), sketch)) {
            naive[m.hash].push_back({id, m.pos});
        }
    }
    return naive;
}

TEST(MinimizerIndex, MatchesNaiveIndex)
{
    const auto graph = randomGraph(20'000, 1);
    IndexConfig config;
    config.sketch = {11, 5};
    config.bucketBits = 10;
    const auto index = MinimizerIndex::build(graph, config);
    const auto naive = naiveIndex(graph, config.sketch);

    uint64_t total_locations = 0;
    for (const auto &[hash, locations] : naive) {
        EXPECT_EQ(index.frequency(hash), locations.size());
        const auto span = index.locations(hash);
        ASSERT_EQ(span.size(), locations.size());
        // Index stores locations sorted; compare as sets.
        std::vector<SeedLocation> sorted = locations;
        std::sort(sorted.begin(), sorted.end());
        for (size_t i = 0; i < sorted.size(); ++i)
            EXPECT_EQ(span[i], sorted[i]);
        total_locations += locations.size();
    }
    EXPECT_EQ(index.stats().numDistinctMinimizers, naive.size());
    EXPECT_EQ(index.stats().numLocations, total_locations);
}

TEST(MinimizerIndex, AbsentMinimizerHasZeroFrequency)
{
    const auto graph = randomGraph(5'000, 2);
    IndexConfig config;
    config.sketch = {15, 10};
    config.bucketBits = 8;
    const auto index = MinimizerIndex::build(graph, config);
    // A hash outside the 2k-bit domain cannot be present.
    const uint64_t absent = ~uint64_t{0};
    EXPECT_EQ(index.frequency(absent), 0u);
    EXPECT_TRUE(index.locations(absent).empty());
}

TEST(MinimizerIndex, FootprintFollowsFig6ByteWidths)
{
    const auto graph = randomGraph(10'000, 3);
    IndexConfig config;
    config.sketch = {13, 8};
    config.bucketBits = 12;
    const auto stats = MinimizerIndex::build(graph, config).stats();
    EXPECT_EQ(stats.firstLevelBytes, (uint64_t{1} << 12) * 4);
    EXPECT_EQ(stats.secondLevelBytes, stats.numDistinctMinimizers * 12);
    EXPECT_EQ(stats.thirdLevelBytes, stats.numLocations * 8);
    EXPECT_EQ(stats.totalBytes(), stats.firstLevelBytes +
                                      stats.secondLevelBytes +
                                      stats.thirdLevelBytes);
}

TEST(MinimizerIndex, Fig7TradeoffMonotonicity)
{
    // Fewer buckets -> smaller level 1 but more minimizers per bucket;
    // levels 2/3 are invariant. This is the Fig. 7 shape.
    const auto graph = randomGraph(30'000, 4);
    IndexConfig config;
    config.sketch = {13, 8};
    IndexStats prev_stats;
    uint64_t prev_max = 0;
    bool first = true;
    for (const int bits : {6, 8, 10, 12, 14}) {
        config.bucketBits = bits;
        const auto stats = statsForBucketBits(graph, config);
        if (!first) {
            EXPECT_GT(stats.firstLevelBytes, prev_stats.firstLevelBytes);
            EXPECT_LE(stats.maxMinimizersPerBucket, prev_max);
            EXPECT_EQ(stats.secondLevelBytes, prev_stats.secondLevelBytes);
            EXPECT_EQ(stats.thirdLevelBytes, prev_stats.thirdLevelBytes);
        }
        prev_stats = stats;
        prev_max = stats.maxMinimizersPerBucket;
        first = false;
    }
}

TEST(MinimizerIndex, FrequencyThresholdDiscardsTopFraction)
{
    // Plant a heavy repeat so some minimizers are very frequent.
    Rng rng(5);
    sim::GenomeConfig genome_config;
    genome_config.length = 50'000;
    genome_config.repeatFraction = 0.2;
    genome_config.repeatMotifLen = 300;
    genome_config.repeatMotifCount = 2;
    const std::string reference = sim::simulateGenome(genome_config, rng);
    graph::BuildOptions options;
    options.maxNodeLen = 500;
    const auto graph = graph::buildGraph(reference, {}, options);

    IndexConfig config;
    config.sketch = {13, 8};
    config.bucketBits = 12;
    config.discardTopFraction = 0.01; // exaggerate for a small genome
    const auto index = MinimizerIndex::build(graph, config);
    const uint32_t threshold = index.frequencyThreshold();
    EXPECT_GE(threshold, 1u);
    // At most 1% of distinct minimizers may exceed the threshold.
    const auto naive = naiveIndex(graph, config.sketch);
    uint64_t above = 0;
    for (const auto &[hash, locations] : naive) {
        if (locations.size() > threshold)
            ++above;
    }
    EXPECT_LE(above, naive.size() / 100 + 1);
}

/** The three index tables plus the build-time scalars. */
struct IndexTables
{
    std::vector<uint32_t> buckets;
    std::vector<MinimizerEntry> minimizers;
    std::vector<SeedLocation> locations;
    uint32_t freqThreshold = 0;
    IndexStats stats;
};

IndexTables
tablesOf(const MinimizerIndex &index)
{
    IndexTables out;
    const auto buckets = io::PackCodec::bucketTable(index);
    const auto minimizers = io::PackCodec::minimizerTable(index);
    const auto locations = io::PackCodec::locationTable(index);
    out.buckets.assign(buckets.begin(), buckets.end());
    out.minimizers.assign(minimizers.begin(), minimizers.end());
    out.locations.assign(locations.begin(), locations.end());
    out.freqThreshold = index.frequencyThreshold();
    out.stats = index.stats();
    return out;
}

/**
 * Oracle: the straightforward build — every node decoded and sketched
 * with computeMinimizers(nodeSeq), the hits comparison-sorted by
 * (bucket, hash, location), the threshold read off a full sort of the
 * counts. MinimizerIndex::build must produce exactly these tables.
 */
IndexTables
oracleBuild(const graph::GenomeGraph &graph, const IndexConfig &config)
{
    struct Hit
    {
        uint64_t hash;
        SeedLocation loc;
    };
    std::vector<Hit> hits;
    for (graph::NodeId id = 0; id < graph.numNodes(); ++id) {
        for (const auto &m :
             seed::computeMinimizers(graph.nodeSeq(id), config.sketch))
            hits.push_back({m.hash, {id, m.pos}});
    }
    const uint64_t num_buckets = uint64_t{1} << config.bucketBits;
    const auto bucket_of = [&](uint64_t hash) {
        return hash & (num_buckets - 1);
    };
    std::sort(hits.begin(), hits.end(), [&](const Hit &a, const Hit &b) {
        if (bucket_of(a.hash) != bucket_of(b.hash))
            return bucket_of(a.hash) < bucket_of(b.hash);
        if (a.hash != b.hash)
            return a.hash < b.hash;
        return a.loc < b.loc;
    });

    IndexTables out;
    for (size_t i = 0; i < hits.size(); ++i) {
        if (i == 0 || hits[i].hash != hits[i - 1].hash) {
            out.minimizers.push_back(
                {hits[i].hash, static_cast<uint32_t>(i), 0});
        }
        out.minimizers.back().locCount++;
        out.locations.push_back(hits[i].loc);
    }
    out.buckets.assign(num_buckets + 1, 0);
    size_t entry = 0;
    for (uint64_t bucket = 0; bucket < num_buckets; ++bucket) {
        out.buckets[bucket] = static_cast<uint32_t>(entry);
        while (entry < out.minimizers.size() &&
               bucket_of(out.minimizers[entry].hash) == bucket)
            ++entry;
    }
    out.buckets[num_buckets] = static_cast<uint32_t>(entry);

    std::vector<uint32_t> counts;
    for (const auto &m : out.minimizers)
        counts.push_back(m.locCount);
    std::sort(counts.begin(), counts.end());
    if (!counts.empty()) {
        const auto discarded = static_cast<size_t>(
            config.discardTopFraction * static_cast<double>(counts.size()));
        const size_t keep = counts.size() - discarded;
        out.freqThreshold = keep == 0 ? 0 : counts[keep - 1];
    }

    IndexStats &stats = out.stats;
    stats.numDistinctMinimizers = out.minimizers.size();
    stats.numLocations = out.locations.size();
    for (uint64_t bucket = 0; bucket < num_buckets; ++bucket) {
        stats.maxMinimizersPerBucket = std::max<uint64_t>(
            stats.maxMinimizersPerBucket,
            out.buckets[bucket + 1] - out.buckets[bucket]);
    }
    if (!counts.empty())
        stats.maxLocationsPerMinimizer = counts.back();
    stats.firstLevelBytes = num_buckets * 4;
    stats.secondLevelBytes = stats.numDistinctMinimizers * 12;
    stats.thirdLevelBytes = stats.numLocations * 8;
    return out;
}

void
expectSameTables(const IndexTables &got, const IndexTables &want)
{
    EXPECT_EQ(got.buckets, want.buckets);
    ASSERT_EQ(got.minimizers.size(), want.minimizers.size());
    for (size_t i = 0; i < got.minimizers.size(); ++i) {
        const MinimizerEntry &a = got.minimizers[i];
        const MinimizerEntry &b = want.minimizers[i];
        ASSERT_TRUE(a.hash == b.hash && a.locStart == b.locStart &&
                    a.locCount == b.locCount)
            << "level-2 entry " << i << " differs";
    }
    EXPECT_EQ(got.locations, want.locations);
    EXPECT_EQ(got.freqThreshold, want.freqThreshold);
    const IndexStats &a = got.stats;
    const IndexStats &b = want.stats;
    EXPECT_EQ(a.numDistinctMinimizers, b.numDistinctMinimizers);
    EXPECT_EQ(a.numLocations, b.numLocations);
    EXPECT_EQ(a.maxMinimizersPerBucket, b.maxMinimizersPerBucket);
    EXPECT_EQ(a.maxLocationsPerMinimizer, b.maxLocationsPerMinimizer);
    EXPECT_EQ(a.firstLevelBytes, b.firstLevelBytes);
    EXPECT_EQ(a.secondLevelBytes, b.secondLevelBytes);
    EXPECT_EQ(a.thirdLevelBytes, b.thirdLevelBytes);
}

/**
 * Graphs for the oracle comparison: a plain random chromosome split
 * into short nodes, a dense variant graph (SNP/indel nodes far shorter
 * than k + w - 1) and a repeat-rich one (dispersed copies and tandem
 * arrays, so hashes recur and large buckets interleave repeat copies).
 */
std::vector<graph::GenomeGraph>
oracleGraphs()
{
    std::vector<graph::GenomeGraph> graphs;
    graphs.push_back(randomGraph(12'000, 21, 40));

    Rng rng(22);
    const std::string reference = sim::randomSequence(15'000, rng);
    sim::VariantConfig variants;
    variants.meanSpacing = 25.0;
    graph::BuildOptions options;
    options.maxNodeLen = 120;
    graphs.push_back(graph::buildGraph(
        reference, sim::simulateVariants(reference, variants, rng),
        options));

    sim::GenomeConfig repeats;
    repeats.length = 20'000;
    repeats.repeatFraction = 0.3;
    repeats.repeatMotifLen = 200;
    repeats.repeatMotifCount = 2;
    repeats.tandemFraction = 0.2;
    repeats.tandemUnitLen = 7;
    repeats.tandemMaxCopies = 60;
    const std::string repetitive = sim::simulateGenome(repeats, rng);
    graphs.push_back(graph::buildGraph(
        repetitive, sim::simulateVariants(repetitive, {}, rng), options));
    return graphs;
}

TEST(MinimizerIndex, BuildMatchesComparisonSortOracle)
{
    const auto graphs = oracleGraphs();
    for (size_t g = 0; g < graphs.size(); ++g) {
        for (const int k : {5, 11, 15, 31}) {
            // A bucket width below the 2k-bit hash domain; for small k
            // (where the bucket table stays small) also exactly 2k and
            // above it, where every bucket holds at most one hash.
            std::vector<int> bucket_bits{std::min(2 * k - 2, 12)};
            if (2 * k < 16) {
                bucket_bits.push_back(2 * k);
                bucket_bits.push_back(2 * k + 3);
            }
            for (const int w : {1, 5, 10}) {
                for (const int bits : bucket_bits) {
                    for (const double discard : {0.0, 0.0002, 0.3}) {
                        IndexConfig config;
                        config.sketch = {k, w};
                        config.bucketBits = bits;
                        config.discardTopFraction = discard;
                        SCOPED_TRACE(::testing::Message()
                                     << "graph " << g << " k " << k
                                     << " w " << w << " bucketBits "
                                     << bits << " discard " << discard);
                        expectSameTables(
                            tablesOf(MinimizerIndex::build(graphs[g],
                                                           config)),
                            oracleBuild(graphs[g], config));
                        if (::testing::Test::HasFailure())
                            return;
                    }
                }
            }
        }
    }
}

TEST(MinimizerIndex, CodeLevelSketchMatchesDecodedSketch)
{
    const auto graphs = oracleGraphs();
    std::vector<seed::Minimizer> from_codes;
    seed::MinimizerScratch scratch;
    size_t short_nodes = 0;
    for (const auto &graph : graphs) {
        for (const int k : {5, 11, 15, 31}) {
            for (const int w : {1, 5, 10}) {
                const seed::SketchConfig sketch{k, w};
                for (graph::NodeId id = 0; id < graph.numNodes(); ++id) {
                    const std::string seq = graph.nodeSeq(id);
                    seed::computeMinimizers(graph.nodeCodes(id), sketch,
                                            from_codes, scratch);
                    ASSERT_EQ(from_codes,
                              seed::computeMinimizers(seq, sketch))
                        << "node " << id << " k " << k << " w " << w;
                    ASSERT_EQ(from_codes,
                              seed::computeMinimizersNaive(seq, sketch))
                        << "node " << id << " k " << k << " w " << w;
                    if (seq.size() < static_cast<size_t>(k + w - 1))
                        ++short_nodes;
                }
            }
        }
    }
    EXPECT_GT(short_nodes, 0u) << "no node shorter than k + w - 1";
}

TEST(MinimizerIndex, RejectsBadConfig)
{
    const auto graph = randomGraph(1'000, 6);
    IndexConfig config;
    config.bucketBits = 0;
    EXPECT_THROW(MinimizerIndex::build(graph, config), InputError);
    config.bucketBits = 33;
    EXPECT_THROW(MinimizerIndex::build(graph, config), InputError);
    config.bucketBits = 8;
    config.discardTopFraction = 1.5;
    EXPECT_THROW(MinimizerIndex::build(graph, config), InputError);
    config.discardTopFraction = 0.0;
    config.sketch = {32, 10};
    EXPECT_THROW(MinimizerIndex::build(graph, config), InputError);
    config.sketch = {15, 0};
    EXPECT_THROW(MinimizerIndex::build(graph, config), InputError);
}

} // namespace
} // namespace segram::index
