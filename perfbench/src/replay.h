/**
 * @file
 * Per-layer replay of the mapping pipeline on one thread.
 *
 * For every shard and every read strand the replay calls the layers'
 * public functions in the order SegramMapper::mapReads commits them:
 * seed::MinSeed::seedRead, then per candidate region
 * graph::linearizeRange and a WindowedAlignStream whose window
 * requests are computed lane-batched by align::alignWindowBatch (four
 * strands in flight, one per lane; a lone lane takes alignWindow), with
 * the mapper's early-exit rule. Each call is timed, so the replay
 * yields per-layer costs of the kernel path that ships, and its
 * outcomes are checked against the mapper's.
 */

#ifndef SEGRAM_PERFBENCH_REPLAY_H
#define SEGRAM_PERFBENCH_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/offline.h"
#include "perfbench/src/trace.h"
#include "src/core/reference.h"
#include "src/core/segram.h"

namespace perfbench
{

struct ReplayResult
{
    uint64_t reads = 0;
    uint64_t seededBases = 0;     ///< read bases seeded (all strands/shards)
    uint64_t regionsEmitted = 0;  ///< MinSeed output, before early exit
    uint64_t regionsAligned = 0;  ///< regions committed, as the mapper
    uint64_t alignmentsFound = 0;
    uint64_t linearizedChars = 0;
    uint64_t windows = 0;         ///< window requests computed
    uint64_t batchLaunches = 0;
    double seedSec = 0.0;
    double linearizeSec = 0.0;
    double alignSec = 0.0;
    std::vector<ReadOutcome> outcomes; ///< merged per read
};

ReplayResult replayLayers(const segram::core::PreprocessedReference &ref,
                          const segram::core::SegramConfig &config,
                          const std::vector<std::string> &reads,
                          Tracer &tracer, int64_t parent);

} // namespace perfbench

#endif // SEGRAM_PERFBENCH_REPLAY_H
