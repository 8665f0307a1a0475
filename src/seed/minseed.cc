#include "src/seed/minseed.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace segram::seed
{

namespace
{

/**
 * Ranks coordinate-sorted @p regions by locus support in place: a locus
 * is a maximal run of overlapping regions, its support the run's region
 * count. Loci go highest support first; equal loci, and the regions
 * inside a locus, keep coordinate order. Overlap, not seed diagonal,
 * defines a locus: an ALT allele shifts a locus's diagonal in the
 * linearized graph but not its extent.
 *
 * @return The number of loci.
 */
size_t
rankByLocus(std::vector<CandidateRegion> &regions, SeedScratch &scratch)
{
    using Locus = SeedScratch::Locus;
    std::vector<Locus> &loci = scratch.loci;
    loci.clear();
    uint64_t reach = 0; // last coordinate of the open locus
    for (size_t i = 0; i < regions.size(); ++i) {
        if (loci.empty() || regions[i].start > reach) {
            loci.push_back({i, 0});
            reach = regions[i].end;
        }
        ++loci.back().count;
        reach = std::max(reach, regions[i].end);
    }

    bool ranked = true;
    for (size_t l = 0; l < loci.size(); ++l) {
        const Locus &locus = loci[l];
        for (size_t i = locus.first; i < locus.first + locus.count; ++i)
            regions[i].support = static_cast<uint32_t>(locus.count);
        ranked = ranked && (l == 0 || loci[l - 1].count >= locus.count);
    }
    if (ranked)
        return loci.size();

    // Ties break on the first index, so the order is total and needs no
    // (allocating) stable sort.
    std::sort(loci.begin(), loci.end(),
              [](const Locus &lhs, const Locus &rhs) {
                  if (lhs.count != rhs.count)
                      return lhs.count > rhs.count;
                  return lhs.first < rhs.first;
              });
    std::vector<CandidateRegion> &out = scratch.ranked;
    out.clear();
    for (const Locus &locus : loci) {
        const auto first =
            regions.begin() + static_cast<std::ptrdiff_t>(locus.first);
        out.insert(out.end(), first,
                   first + static_cast<std::ptrdiff_t>(locus.count));
    }
    regions.swap(out);
    return loci.size();
}

} // namespace

MinSeed::MinSeed(const graph::GenomeGraph &graph,
                 const index::MinimizerIndex &idx,
                 const MinSeedConfig &config)
    : graph_(graph), index_(idx), config_(config)
{
    SEGRAM_CHECK(config.errorRate >= 0.0 && config.errorRate < 1.0,
                 "error rate must be in [0, 1)");
}

uint32_t
MinSeed::effectiveThreshold() const
{
    return config_.frequencyThreshold != 0 ? config_.frequencyThreshold
                                           : index_.frequencyThreshold();
}

std::vector<CandidateRegion>
MinSeed::seedRead(std::string_view read, MinSeedStats *stats) const
{
    std::vector<CandidateRegion> regions;
    SeedScratch scratch;
    seedRead(read, regions, scratch, stats);
    return regions;
}

void
MinSeed::seedRead(std::string_view read, std::vector<CandidateRegion> &regions,
                  SeedScratch &scratch, MinSeedStats *stats) const
{
    const auto &sketch = index_.sketch();
    const double extend = 1.0 + config_.errorRate;
    const uint64_t total_len = graph_.totalSeqLen();
    const uint32_t threshold = effectiveThreshold();
    const auto m = static_cast<int64_t>(read.size());

    MinSeedStats local;
    regions.clear();

    computeMinimizers(read, sketch, scratch.minimizers, scratch.sketch);
    const std::vector<Minimizer> &minimizers = scratch.minimizers;
    local.minimizersComputed = minimizers.size();

    const uint32_t cap = config_.maxOccurrences;

    for (const auto &minimizer : minimizers) {
        // Step 3-4 of Fig. 4: frequency lookup + threshold filter.
        const uint32_t freq = index_.frequency(minimizer.hash);
        local.seedsAvailable += freq;
        if (freq == 0 || freq > threshold)
            continue;
        ++local.minimizersKept;

        const auto emit = [&](const index::SeedLocation &loc) {
            ++local.seedsFetched;
            // Fig. 9 coordinates: [a,b] in the read, [c,d] in the graph.
            const int64_t a = minimizer.pos;
            const int64_t b = a + sketch.k - 1;
            const uint64_t c =
                graph_.node(loc.node).linearOffset + loc.offset;
            const uint64_t d = c + sketch.k - 1;

            const auto left = static_cast<uint64_t>(
                std::llround(static_cast<double>(a) * extend));
            const auto right = static_cast<uint64_t>(std::llround(
                static_cast<double>(m - b - 1) * extend));

            CandidateRegion region;
            region.start = c >= left ? c - left : 0;
            region.end = std::min(d + right, total_len - 1);
            region.minimizerPos = minimizer.pos;
            region.seed = loc;
            regions.push_back(region);
        };

        // Step 5: fetch seed locations. An over-full list is
        // subsampled at evenly spaced indices (position-stratified:
        // the occurrence list is sorted by location, so strided
        // indices cover the whole reference). The sample is a pure
        // function of (list, cap) — deterministic regardless of
        // threading.
        const auto locations = index_.locations(minimizer.hash);
        if (cap != 0 && freq > cap) {
            ++local.minimizersCapped;
            local.seedsSkippedByCap += freq - cap;
            for (uint32_t i = 0; i < cap; ++i) {
                const auto idx = static_cast<size_t>(
                    (static_cast<uint64_t>(i) * freq) / cap);
                emit(locations[idx]);
            }
        } else {
            for (const auto &loc : locations)
                emit(loc);
        }
    }

    std::sort(regions.begin(), regions.end(),
              [](const CandidateRegion &lhs, const CandidateRegion &rhs) {
                  if (lhs.start != rhs.start)
                      return lhs.start < rhs.start;
                  return lhs.end < rhs.end;
              });
    if (config_.mergeDuplicateRegions) {
        regions.erase(
            std::unique(regions.begin(), regions.end(),
                        [](const CandidateRegion &lhs,
                           const CandidateRegion &rhs) {
                            return lhs.start == rhs.start &&
                                   lhs.end == rhs.end;
                        }),
            regions.end());
    }
    local.regionsEmitted = regions.size();
    local.lociEmitted = rankByLocus(regions, scratch);
    if (stats != nullptr)
        *stats += local;
}

} // namespace segram::seed
