#include "src/index/minimizer_index.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "src/util/check.h"

namespace segram::index
{

namespace
{

struct RawHit
{
    uint64_t hash;
    SeedLocation loc;
};

/**
 * Maps a hash to a key whose integer order is the index's (bucket,
 * hash) order: the bucket bits (the hash's low bits) on top of the
 * remaining hash bits.
 */
struct BucketKey
{
    int bucketBits;
    int highBits; ///< hash bits above the bucket bits

    uint64_t
    operator()(uint64_t hash) const
    {
        const uint64_t bucket = hash & ((uint64_t{1} << bucketBits) - 1);
        return (bucket << highBits) | (hash >> bucketBits);
    }
};

/**
 * Calls @p visit(hash, location) for every minimizer of every graph
 * node, in (node, offset) order — SeedLocation order. Each node is
 * sketched straight from the character table into reused buffers.
 */
template <typename Visit>
void
forEachHit(const graph::GenomeGraph &graph,
           const seed::SketchConfig &sketch, Visit &&visit)
{
    std::vector<seed::Minimizer> node_minimizers;
    seed::MinimizerScratch scratch;
    for (graph::NodeId id = 0; id < graph.numNodes(); ++id) {
        seed::computeMinimizers(graph.nodeCodes(id), sketch,
                                node_minimizers, scratch);
        for (const auto &minimizer : node_minimizers)
            visit(minimizer.hash, SeedLocation{id, minimizer.pos});
    }
}

/**
 * Orders one radix slice of hits by key. The hits arrive
 * location-sorted, so a stable order by key is the (bucket, hash,
 * location) order. A typical slice holds a handful of hits and is
 * insertion-sorted in place; a large one (interleaved repeat copies)
 * goes through @p scratch.
 */
void
sortSlice(std::span<uint64_t> hashes, std::span<SeedLocation> locations,
          const BucketKey &key, std::vector<RawHit> &scratch)
{
    constexpr size_t kInsertionSortMax = 32;
    const size_t n = hashes.size();
    if (n <= kInsertionSortMax) {
        for (size_t i = 1; i < n; ++i) {
            const uint64_t hash = hashes[i];
            const SeedLocation loc = locations[i];
            size_t j = i;
            for (; j > 0 && key(hashes[j - 1]) > key(hash); --j) {
                hashes[j] = hashes[j - 1];
                locations[j] = locations[j - 1];
            }
            hashes[j] = hash;
            locations[j] = loc;
        }
        return;
    }
    scratch.clear();
    for (size_t i = 0; i < n; ++i)
        scratch.push_back({hashes[i], locations[i]});
    std::sort(scratch.begin(), scratch.end(),
              [&key](const RawHit &a, const RawHit &b) {
                  if (a.hash != b.hash)
                      return key(a.hash) < key(b.hash);
                  return a.loc < b.loc;
              });
    for (size_t i = 0; i < n; ++i) {
        hashes[i] = scratch[i].hash;
        locations[i] = scratch[i].loc;
    }
}

} // namespace

uint64_t
MinimizerIndex::bucketOf(uint64_t hash) const
{
    return hash & ((uint64_t{1} << bucket_bits_) - 1);
}

MinimizerIndex
MinimizerIndex::build(const graph::GenomeGraph &graph,
                      const IndexConfig &config)
{
    SEGRAM_CHECK(config.bucketBits >= 1 && config.bucketBits <= 32,
                 "bucketBits must be in [1, 32]");
    SEGRAM_CHECK(config.discardTopFraction >= 0.0 &&
                     config.discardTopFraction < 1.0,
                 "discardTopFraction must be in [0, 1)");
    config.sketch.validate();

    MinimizerIndex out;
    out.sketch_ = config.sketch;
    out.bucket_bits_ = config.bucketBits;
    out.discard_top_fraction_ = config.discardTopFraction;

    const uint64_t num_buckets = uint64_t{1} << config.bucketBits;
    auto &minimizers = out.minimizers_.vec();
    auto &locations = out.locations_.vec();
    auto &bucket_offsets = out.bucket_offsets_.vec();

    // Radix order. A counting sort on the top digit_bits of the key
    // places every hit, which leaves slices of a few hits to sort. The
    // graph is sketched twice — once to count each digit's hits, once
    // to place them — so no hits-sized buffer exists beside the level-3
    // table and its hash column. About four hits per digit keeps the
    // digit table a small fraction of the hits (w-minimizers sample
    // 2 / (w + 1) of the k-mers).
    const BucketKey key{config.bucketBits,
                        std::max(0, 2 * config.sketch.k - config.bucketBits)};
    const int key_bits = key.bucketBits + key.highBits;
    const uint64_t expected_hits =
        graph.totalSeqLen() * 2 / (config.sketch.w + 1);
    const int digit_bits =
        std::min(key_bits, static_cast<int>(std::bit_width(expected_hits / 4)));
    const int digit_shift = key_bits - digit_bits;

    // Count one slot up, so the prefix sum turns starts[d] into the
    // first slot of digit d.
    std::vector<uint32_t> starts((uint64_t{1} << digit_bits) + 1, 0);
    uint64_t num_hits = 0;
    forEachHit(graph, config.sketch, [&](uint64_t hash, SeedLocation) {
        ++starts[(key(hash) >> digit_shift) + 1];
        ++num_hits;
    });
    SEGRAM_CHECK(num_hits <= UINT32_MAX,
                 "more than 2^32 minimizer occurrences in one graph");
    for (size_t digit = 1; digit < starts.size(); ++digit)
        starts[digit] += starts[digit - 1];

    // Hits arrive in SeedLocation order, so each slice fills
    // location-sorted; starts[d] advances to the end of slice d.
    locations.resize(num_hits);
    std::vector<uint64_t> hashes(num_hits);
    forEachHit(graph, config.sketch,
               [&](uint64_t hash, SeedLocation loc) {
                   const uint32_t slot = starts[key(hash) >> digit_shift]++;
                   hashes[slot] = hash;
                   locations[slot] = loc;
               });
    std::vector<RawHit> scratch;
    uint32_t slice_begin = 0;
    for (size_t digit = 0; digit + 1 < starts.size(); ++digit) {
        const uint32_t slice_len = starts[digit] - slice_begin;
        sortSlice(std::span(hashes).subspan(slice_begin, slice_len),
                  std::span(locations).subspan(slice_begin, slice_len),
                  key, scratch);
        slice_begin = starts[digit];
    }
    std::vector<uint32_t>().swap(starts);

    // Emit a level-2 entry at every hash boundary, then the level-1
    // CSR offsets over level 2.
    minimizers.reserve(num_hits);
    for (uint32_t i = 0; i < num_hits; ++i) {
        if (i == 0 || hashes[i] != hashes[i - 1])
            minimizers.push_back({hashes[i], i, 0});
        minimizers.back().locCount++;
    }
    std::vector<uint64_t>().swap(hashes);
    bucket_offsets.assign(num_buckets + 1, 0);
    {
        size_t entry = 0;
        for (uint64_t bucket = 0; bucket < num_buckets; ++bucket) {
            bucket_offsets[bucket] = static_cast<uint32_t>(entry);
            while (entry < minimizers.size() &&
                   out.bucketOf(minimizers[entry].hash) == bucket) {
                ++entry;
            }
        }
        bucket_offsets[num_buckets] =
            static_cast<uint32_t>(minimizers.size());
        SEGRAM_DCHECK(entry == minimizers.size(),
                      "occurrence table out of sync with minimizers");
    }

    // Frequency threshold: smallest count such that at most
    // discardTopFraction of distinct minimizers exceed it — the
    // keep-th smallest count, which a selection finds without a sort.
    if (!minimizers.empty()) {
        std::vector<uint32_t> counts;
        counts.reserve(minimizers.size());
        for (const auto &entry : minimizers)
            counts.push_back(entry.locCount);
        const auto discarded = static_cast<size_t>(
            config.discardTopFraction *
            static_cast<double>(counts.size()));
        const size_t keep = counts.size() - discarded;
        if (keep != 0) {
            std::nth_element(counts.begin(), counts.begin() + (keep - 1),
                             counts.end());
            out.freq_threshold_ = counts[keep - 1];
        }
    }

    // Statistics (Fig. 7 series).
    IndexStats &stats = out.stats_;
    stats.numDistinctMinimizers = out.minimizers_.size();
    stats.numLocations = out.locations_.size();
    for (uint64_t bucket = 0; bucket < num_buckets; ++bucket) {
        stats.maxMinimizersPerBucket = std::max<uint64_t>(
            stats.maxMinimizersPerBucket,
            out.bucket_offsets_[bucket + 1] - out.bucket_offsets_[bucket]);
    }
    for (const auto &entry : out.minimizers_) {
        stats.maxLocationsPerMinimizer = std::max<uint64_t>(
            stats.maxLocationsPerMinimizer, entry.locCount);
    }
    stats.firstLevelBytes = num_buckets * 4;
    stats.secondLevelBytes = stats.numDistinctMinimizers * 12;
    stats.thirdLevelBytes = stats.numLocations * 8;
    return out;
}

const MinimizerEntry *
MinimizerIndex::find(uint64_t hash) const
{
    const uint64_t bucket = bucketOf(hash);
    const auto begin = minimizers_.begin() + bucket_offsets_[bucket];
    const auto end = minimizers_.begin() + bucket_offsets_[bucket + 1];
    const auto it = std::lower_bound(
        begin, end, hash,
        [](const MinimizerEntry &entry, uint64_t value) {
            return entry.hash < value;
        });
    if (it == end || it->hash != hash)
        return nullptr;
    return &*it;
}

uint32_t
MinimizerIndex::frequency(uint64_t hash) const
{
    const MinimizerEntry *entry = find(hash);
    return entry == nullptr ? 0 : entry->locCount;
}

std::span<const SeedLocation>
MinimizerIndex::locations(uint64_t hash) const
{
    const MinimizerEntry *entry = find(hash);
    if (entry == nullptr)
        return {};
    return {locations_.data() + entry->locStart, entry->locCount};
}

OccurrenceReport
MinimizerIndex::occurrenceReport(size_t top_n) const
{
    OccurrenceReport report;
    report.freqThreshold = freq_threshold_;
    report.distinctMinimizers = minimizers_.size();
    report.totalLocations = locations_.size();
    if (minimizers_.empty())
        return report;

    std::vector<uint32_t> counts;
    counts.reserve(minimizers_.size());
    for (const auto &entry : minimizers_)
        counts.push_back(entry.locCount);
    std::sort(counts.begin(), counts.end());

    const size_t n = counts.size();
    report.deciles.resize(10);
    for (size_t d = 0; d < 10; ++d) {
        const size_t begin = d * n / 10;
        const size_t end = (d + 1) * n / 10;
        auto &decile = report.deciles[d];
        decile.minimizers = end - begin;
        for (size_t i = begin; i < end; ++i) {
            decile.locations += counts[i];
            decile.maxFrequency = std::max(decile.maxFrequency, counts[i]);
        }
    }

    // Hottest seeds: partial sort of the level-2 entries by count
    // (descending), hash as the deterministic tiebreak.
    std::vector<OccurrenceReport::HotSeed> hot;
    hot.reserve(minimizers_.size());
    for (const auto &entry : minimizers_)
        hot.push_back({entry.hash, entry.locCount});
    const size_t keep = std::min(top_n, hot.size());
    std::partial_sort(hot.begin(), hot.begin() + keep, hot.end(),
                      [](const OccurrenceReport::HotSeed &a,
                         const OccurrenceReport::HotSeed &b) {
                          if (a.frequency != b.frequency)
                              return a.frequency > b.frequency;
                          return a.hash < b.hash;
                      });
    hot.resize(keep);
    report.topSeeds = std::move(hot);
    return report;
}

IndexStats
statsForBucketBits(const graph::GenomeGraph &graph,
                   const IndexConfig &config)
{
    // Footprints of levels 2/3 do not depend on the bucket count, so a
    // full build under the requested bucketBits gives the exact series.
    return MinimizerIndex::build(graph, config).stats();
}

} // namespace segram::index
