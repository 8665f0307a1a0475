/**
 * @file
 * SegramMapper: the end-to-end SeGraM pipeline (Fig. 4) as a library.
 *
 * One mapper binds a genome graph and its minimizer index; mapMany()
 * (and its one-read form mapRead()) then runs the full per-read flow
 * the accelerator implements:
 * MinSeed (minimizers -> frequency filter -> seeds -> candidate
 * subgraphs) followed by BitAlign on every candidate region (exact for
 * reads that fit one window, divide-and-conquer otherwise), returning
 * the best alignment. Sequence-to-sequence mapping is the same code
 * path on a chain graph, exactly as the paper's universality argument
 * prescribes.
 */

#ifndef SEGRAM_SRC_CORE_SEGRAM_H
#define SEGRAM_SRC_CORE_SEGRAM_H

#include <cstdint>
#include <span>
#include <string_view>

#include "src/align/bitalign.h"
#include "src/core/engine.h"
#include "src/core/workspace.h"
#include "src/graph/genome_graph.h"
#include "src/graph/linearize.h"
#include "src/index/minimizer_index.h"
#include "src/seed/chaining.h"
#include "src/seed/minseed.h"
#include "src/util/cigar.h"

namespace segram::core
{

class PreprocessedReference; // src/core/reference.h

/** Pipeline configuration. */
struct SegramConfig
{
    seed::MinSeedConfig minseed;       ///< seeding parameters
    align::BitAlignConfig bitalign;    ///< alignment parameters
    /**
     * HopBits height: hops longer than this are dropped when candidate
     * subgraphs are linearized (Fig. 12/13). kUnlimitedHops gives the
     * software-exact mode.
     */
    int hopLimit = graph::kDefaultHopLimit;
    /**
     * Cap on candidate regions aligned per read strand, taken in
     * candidate order (best-supported loci first); 0 aligns all (the
     * hardware behaviour — MinSeed performs no filtering).
     */
    uint32_t maxRegions = 0;
    /**
     * Early exit: stop aligning further candidates once an alignment
     * with at most earlyExitFraction * errorRate * readLen edits is
     * found. 0 disables (align everything, hardware-faithful).
     */
    double earlyExitFraction = 0.0;

    /**
     * Also try the reverse complement of each read and keep the better
     * alignment. Off by default (the simulators emit forward-strand
     * reads); real sequencing data needs it.
     */
    bool tryReverseComplement = false;

    /**
     * Enable the optional chaining/clustering step between seeding and
     * alignment (step 2 of Fig. 2). The paper's MinSeed omits it
     * (Section 11.4) and notes that adding one "would increase SeGraM's
     * performance and efficiency, a study we leave to future work" —
     * this implements that study: co-diagonal seeds are grouped and
     * only the best maxChains chains are aligned.
     */
    bool enableChainFilter = false;

    /**
     * Chains kept when the chain filter is enabled. Applies when
     * chain.maxChains is 0 (its default); an explicit chain.maxChains
     * takes precedence.
     */
    int maxChains = 4;

    /** Chaining parameters (used when enableChainFilter is set). */
    seed::ChainConfig chain;
};

// MapResult, MultiMapResult and PipelineStats live in
// src/core/map_result.h, re-exported through src/core/engine.h.

/** The end-to-end mapper. */
class SegramMapper : public MappingEngine
{
  public:
    /**
     * @param graph  Topologically sorted genome graph (pre-processing
     *               step 1, already in "memory").
     * @param index  Minimizer index of @p graph (pre-processing step 2).
     * @param config Pipeline parameters.
     */
    SegramMapper(const graph::GenomeGraph &graph,
                 const index::MinimizerIndex &index,
                 const SegramConfig &config = {});

    /**
     * Binds chromosome @p chromosome of a pre-processed reference
     * (built fresh or mmap-loaded from a pack — the mapper cannot tell
     * the difference). @p reference must outlive the mapper.
     */
    SegramMapper(const PreprocessedReference &reference, size_t chromosome,
                 const SegramConfig &config = {});

    /**
     * Maps one read end to end: a one-read mapMany() out of a fresh
     * workspace, so it returns exactly what the batch path returns for
     * this read. Safe to call concurrently: the graph and index are
     * shared read-only and all per-read state is local. Hot loops
     * should hold a MapWorkspace and call mapMany() instead.
     *
     * @param read       Query read (ACGT, non-empty).
     * @param[out] stats Optional counter accumulator.
     */
    MapResult mapRead(std::string_view read,
                      PipelineStats *stats = nullptr) const;

    /**
     * The candidate regions one strand of a read aligns, in the order
     * it aligns them: MinSeed's regions (best-supported loci first),
     * reduced to the best chains' regions when the chain filter is on,
     * then cut to config().maxRegions. The span points into
     * @p workspace and stays valid until its next use.
     *
     * @param read                Query read (one orientation).
     * @param workspace           Scratch the regions are built in.
     * @param[out] seeding_stats  Optional MinSeed counter accumulator.
     */
    std::span<const seed::CandidateRegion>
    candidateRegions(std::string_view read, MapWorkspace &workspace,
                     seed::MinSeedStats *seeding_stats) const;

    /**
     * Lane-batched group mapper: maps reads[i] -> results[i] (spans
     * must be equal-sized) with the region-stream scheduler. Up to
     * bitops::kBatchLanes candidate-region window streams are in
     * flight at once — normally from different strand tasks (read x
     * orientation, claimed in read order), and, when nothing else can
     * fill a lane, speculatively from later regions of a task whose
     * early-exit check is still pending. Each round, every pending
     * window request joins one lane-batched kernel launch (mixed
     * widths pad to the widest); a lone draining lane takes the
     * per-window path. Region outcomes commit strictly in region
     * order and speculative work past an early exit is discarded, so
     * every per-strand decision (region order, best-update
     * tie-breaking, early exit, strand merge) and every committed
     * counter is bit-identical to aligning each strand's candidate
     * regions one at a time — only the window computations are
     * co-scheduled.
     */
    void mapMany(std::span<const std::string_view> reads,
                 std::span<MapResult> results, PipelineStats *stats,
                 MapWorkspace &workspace) const override;
    std::string_view engineName() const override { return "segram"; }

    const SegramConfig &config() const { return config_; }
    const graph::GenomeGraph &graph() const { return graph_; }

  private:
    const graph::GenomeGraph &graph_;
    const index::MinimizerIndex &index_;
    SegramConfig config_;
    seed::MinSeed minseed_;
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_SEGRAM_H
