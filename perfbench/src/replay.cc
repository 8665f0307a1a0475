#include "perfbench/src/replay.h"

#include <array>
#include <cmath>

#include "src/align/bitalign.h"
#include "src/align/window_batch.h"
#include "src/graph/linearize.h"
#include "src/seed/minseed.h"
#include "src/util/bitops_simd.h"
#include "src/util/dna.h"

namespace perfbench
{

using namespace segram;

namespace
{

/** One strand's best alignment so far (mapOneStrand's `best`). */
struct StrandBest
{
    bool mapped = false;
    int editDistance = 0;
    uint64_t linearStart = 0;
};

/** One lane: a read strand walking its candidate regions in order. */
struct Lane
{
    bool active = false;
    bool streaming = false;
    size_t task = 0; ///< read * 2 + strand
    std::string rc;
    std::string_view read;
    std::vector<seed::CandidateRegion> regions;
    size_t next = 0;
    int earlyExitEdits = -1;
    StrandBest best;
    graph::LinearizedGraph linearization;
    align::GraphAlignment alignment;
    align::WindowResult window;
    align::WindowedAlignStream stream;
};

} // namespace

ReplayResult
replayLayers(const core::PreprocessedReference &ref,
             const core::SegramConfig &config,
             const std::vector<std::string> &reads, Tracer &tracer,
             int64_t parent)
{
    ReplayResult out;
    out.reads = reads.size();
    const size_t num_tasks = reads.size() * 2;
    std::vector<ReadOutcome> merged(reads.size());
    seed::SeedScratch seed_scratch;
    align::AlignScratch align_scratch;
    align::WindowBatchScratch batch_scratch;
    std::array<Lane, bitops::kBatchLanes> lanes;

    for (size_t shard = 0; shard < ref.numChromosomes(); ++shard) {
        const int64_t shard_span =
            tracer.begin("replay.shard", parent, static_cast<int64_t>(shard));
        const graph::GenomeGraph &graph = ref.graph(shard);
        const seed::MinSeed minseed(graph, ref.index(shard), config.minseed);
        std::vector<StrandBest> strand_best(num_tasks);
        size_t next_task = 0;

        const auto finish = [&](Lane &lane) {
            strand_best[lane.task] = lane.best;
            lane.active = false;
        };
        // Folds a finished region into the strand best: the order,
        // update rule and early exit of SegramMapper's commit path.
        const auto commit = [&](Lane &lane) {
            ++out.regionsAligned;
            const align::GraphAlignment &alignment = lane.alignment;
            if (alignment.found) {
                ++out.alignmentsFound;
                if (!lane.best.mapped ||
                    alignment.editDistance < lane.best.editDistance)
                    lane.best = {true, alignment.editDistance,
                                 alignment.linearStart};
            }
            if (lane.earlyExitEdits >= 0 && lane.best.mapped &&
                lane.best.editDistance <= lane.earlyExitEdits)
                finish(lane);
        };
        // Gives an idle lane its next pending window request.
        const auto fill = [&](Lane &lane) -> bool {
            for (;;) {
                if (!lane.active) {
                    if (next_task == num_tasks)
                        return false;
                    lane.task = next_task++;
                    const std::string &read = reads[lane.task / 2];
                    if (lane.task % 2 == 0) {
                        lane.read = read;
                    } else {
                        reverseComplement(read, lane.rc);
                        lane.read = lane.rc;
                    }
                    const int64_t span = tracer.begin(
                        "seed.seed_read", shard_span,
                        static_cast<int64_t>(lane.task));
                    const auto t0 = Clock::now();
                    minseed.seedRead(lane.read, lane.regions, seed_scratch);
                    out.seedSec += secondsSince(t0);
                    tracer.end(span, lane.regions.size());
                    out.seededBases += lane.read.size();
                    out.regionsEmitted += lane.regions.size();
                    lane.active = true;
                    lane.next = 0;
                    lane.best = {};
                    lane.earlyExitEdits =
                        config.earlyExitFraction > 0.0
                            ? static_cast<int>(std::ceil(
                                  config.earlyExitFraction *
                                  config.minseed.errorRate *
                                  static_cast<double>(lane.read.size())))
                            : -1;
                }
                if (lane.next == lane.regions.size()) {
                    finish(lane);
                    continue;
                }
                const seed::CandidateRegion &region =
                    lane.regions[lane.next++];
                const int64_t span =
                    tracer.begin("graph.linearize", shard_span,
                                 static_cast<int64_t>(lane.task));
                const auto t0 = Clock::now();
                graph::linearizeRange(graph, region.start, region.end,
                                      config.hopLimit, lane.linearization);
                out.linearizeSec += secondsSince(t0);
                tracer.end(span, lane.linearization.size());
                out.linearizedChars += lane.linearization.size();
                // The mapper's free-start widening (Fig. 9).
                align::BitAlignConfig bitalign = config.bitalign;
                bitalign.firstWindowExtraText +=
                    static_cast<int>(std::ceil(2.0 *
                                               config.minseed.errorRate *
                                               region.minimizerPos)) +
                    32;
                lane.stream.begin(lane.linearization, lane.read, bitalign,
                                  &lane.alignment);
                if (!lane.stream.done()) {
                    lane.streaming = true;
                    return true;
                }
                commit(lane);
            }
        };

        for (;;) {
            Lane *pending[bitops::kBatchLanes];
            int num_pending = 0;
            for (Lane &lane : lanes)
                if (lane.streaming || fill(lane))
                    pending[num_pending++] = &lane;
            if (num_pending == 0)
                break;
            const int64_t span = tracer.begin("align.window_batch",
                                              shard_span, num_pending);
            const auto t0 = Clock::now();
            if (num_pending >= 2) {
                const align::WindowedAlignStream::Request
                    *requests[bitops::kBatchLanes];
                align::WindowResult *results[bitops::kBatchLanes];
                for (int i = 0; i < num_pending; ++i) {
                    requests[i] = &pending[i]->stream.request();
                    results[i] = &pending[i]->window;
                }
                align::alignWindowBatch(requests, results, num_pending,
                                        batch_scratch);
                ++out.batchLaunches;
            } else {
                const auto &request = pending[0]->stream.request();
                align::alignWindow(request.window, request.pattern,
                                   request.k, request.mode, align_scratch,
                                   pending[0]->window);
            }
            out.alignSec += secondsSince(t0);
            tracer.end(span, static_cast<uint64_t>(num_pending));
            out.windows += static_cast<uint64_t>(num_pending);
            for (int i = 0; i < num_pending; ++i) {
                Lane &lane = *pending[i];
                lane.stream.consume(lane.window);
                if (!lane.stream.done())
                    continue;
                lane.streaming = false;
                commit(lane);
            }
        }

        // Strand merge (mapRead's winner rule), then the sharded
        // driver's merge: lowest edit distance, ties to the earlier
        // chromosome.
        for (size_t r = 0; r < reads.size(); ++r) {
            const StrandBest &forward = strand_best[2 * r];
            const StrandBest &reverse = strand_best[2 * r + 1];
            const bool take_reverse =
                reverse.mapped &&
                (!forward.mapped ||
                 reverse.editDistance < forward.editDistance);
            const StrandBest &winner = take_reverse ? reverse : forward;
            ReadOutcome &best = merged[r];
            if (winner.mapped &&
                (!best.mapped || winner.editDistance < best.editDistance))
                best = {true, winner.editDistance, winner.linearStart,
                        take_reverse, ref.name(shard)};
        }
        tracer.end(shard_span, reads.size());
    }
    out.outcomes = std::move(merged);
    return out;
}

} // namespace perfbench
