/**
 * @file
 * MinSeed: the seeding stage of SeGraM (paper Sections 6 and 8.1).
 *
 * For a query read, MinSeed (1) computes the read's minimizers, (2)
 * fetches each minimizer's occurrence frequency from the hash-table
 * index and discards minimizers above the frequency threshold, (3)
 * fetches the seed locations of the surviving minimizers, and (4)
 * converts every seed into a candidate reference region using the
 * left/right extension formulas of Fig. 9:
 *
 *     x = c - a*(1+E)            (leftmost region coordinate)
 *     y = d + (m-b-1)*(1+E)      (rightmost region coordinate)
 *
 * where [a,b] is the minimizer's span in the read, [c,d] the seed's span
 * in the graph's concatenated coordinates, m the read length and E the
 * expected error rate.
 *
 * MinSeed performs no filtering/chaining beyond the frequency threshold
 * (Section 11.4); an optional exact-duplicate region merge is provided
 * for the software pipeline and is reported separately so seed counts
 * stay comparable with the paper's.
 *
 * The regions are handed out ranked, not filtered: overlapping regions
 * form one *locus*, and loci with more regions (more seed evidence) come
 * first, so a consumer that stops early (early exit, a region cap)
 * reaches the true locus before spurious single-seed hits.
 */

#ifndef SEGRAM_SRC_SEED_MINSEED_H
#define SEGRAM_SRC_SEED_MINSEED_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/graph/genome_graph.h"
#include "src/index/minimizer_index.h"
#include "src/seed/minimizer.h"

namespace segram::seed
{

/** MinSeed configuration. */
struct MinSeedConfig
{
    /** Expected per-base error rate E of the Fig. 9 extension. */
    double errorRate = 0.10;

    /**
     * Occurrence-frequency cutoff; 0 means "use the index's built-in
     * threshold" (top 0.02% of distinct minimizers). Minimizers above
     * the cutoff are discarded entirely (paper Section 6: the MinSeed
     * frequency filter).
     */
    uint32_t frequencyThreshold = 0;

    /**
     * Query-time occurrence cap (minimap2 `--max-occ` analogue); 0
     * disables it. A minimizer that survives the frequency threshold
     * but occurs more than this many times is *subsampled* instead of
     * fanned out in full: exactly `maxOccurrences` seed locations are
     * taken from its sorted occurrence list at evenly spaced
     * (position-stratified) indices `idx_i = (i * freq) / cap`, so the
     * sample spans the whole reference instead of clustering at its
     * start. The sample depends only on the occurrence list and the
     * cap — never on threads or scheduling — so capped mapping stays
     * bit-identical across thread counts.
     */
    uint32_t maxOccurrences = 0;

    /** Merge candidate regions with identical spans before alignment. */
    bool mergeDuplicateRegions = true;
};

/** One candidate region: the subgraph BitAlign will align against. */
struct CandidateRegion
{
    uint64_t start = 0; ///< first concatenated coordinate (x of Fig. 9)
    uint64_t end = 0;   ///< last concatenated coordinate (y of Fig. 9)
    uint32_t minimizerPos = 0; ///< minimizer start within the read (a)
    index::SeedLocation seed;  ///< the seed hit that produced the region
    /**
     * Evidence for the region's locus: the region count of its locus
     * (MinSeed), or the seed count of its chain (chain filter).
     */
    uint32_t support = 0;

    bool operator==(const CandidateRegion &) const = default;
};

/** Per-read seeding statistics (drives the Section 11.4 analysis). */
struct MinSeedStats
{
    uint64_t minimizersComputed = 0;
    uint64_t minimizersKept = 0;    ///< after the frequency filter
    uint64_t minimizersCapped = 0;  ///< kept but subsampled by the cap
    uint64_t seedsAvailable = 0;    ///< locations before the filter
    uint64_t seedsFetched = 0;      ///< level-3 locations fetched
    uint64_t seedsSkippedByCap = 0; ///< locations dropped by subsampling
    uint64_t regionsEmitted = 0;    ///< after optional duplicate merge
    uint64_t lociEmitted = 0;       ///< maximal runs of overlapping regions

    MinSeedStats &
    operator+=(const MinSeedStats &other)
    {
        minimizersComputed += other.minimizersComputed;
        minimizersKept += other.minimizersKept;
        minimizersCapped += other.minimizersCapped;
        seedsAvailable += other.seedsAvailable;
        seedsFetched += other.seedsFetched;
        seedsSkippedByCap += other.seedsSkippedByCap;
        regionsEmitted += other.regionsEmitted;
        lociEmitted += other.lociEmitted;
        return *this;
    }
};

/** Reusable working storage for MinSeed::seedRead (buffer reuse). */
struct SeedScratch
{
    /** One locus: a run of coordinate-sorted regions. */
    struct Locus
    {
        size_t first = 0; ///< index of its first region
        size_t count = 0; ///< its region count (the support)
    };

    std::vector<Minimizer> minimizers;   ///< per-read minimizer list
    MinimizerScratch sketch;             ///< wedge storage of the sketcher
    std::vector<Locus> loci;             ///< loci of the current read
    std::vector<CandidateRegion> ranked; ///< regions in locus order
};

/** The MinSeed stage bound to one graph + index pair. */
class MinSeed
{
  public:
    /**
     * @param graph  The topologically sorted genome graph.
     * @param idx    The minimizer index built over @p graph.
     * @param config Seeding parameters.
     */
    MinSeed(const graph::GenomeGraph &graph, const index::MinimizerIndex &idx,
            const MinSeedConfig &config = {});

    /**
     * Runs seeding for one read.
     *
     * @param read        The query read (ACGT).
     * @param[out] stats  Optional statistics accumulator.
     * @return Candidate regions grouped into loci (maximal runs of
     *         overlapping regions), loci in descending support (region
     *         count); equal loci, and the regions inside a locus, in
     *         (start, end) order.
     */
    std::vector<CandidateRegion> seedRead(std::string_view read,
                                          MinSeedStats *stats = nullptr) const;

    /**
     * Buffer-reuse variant: clears @p out and fills it in place, with
     * all intermediate storage in @p scratch, so caller-owned
     * (workspace) buffers serve every read without heap traffic once
     * warm. Identical output to the returning overload.
     */
    void seedRead(std::string_view read,
                  std::vector<CandidateRegion> &out, SeedScratch &scratch,
                  MinSeedStats *stats = nullptr) const;

    const MinSeedConfig &config() const { return config_; }

    /** @return The effective frequency cutoff used by seedRead. */
    uint32_t effectiveThreshold() const;

  private:
    const graph::GenomeGraph &graph_;
    const index::MinimizerIndex &index_;
    MinSeedConfig config_;
};

} // namespace segram::seed

#endif // SEGRAM_SRC_SEED_MINSEED_H
