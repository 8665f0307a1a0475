/**
 * @file
 * The offline path exactly as `segram map` runs it: FastxReader
 * batches -> ShardedBatchMapper::mapBatch -> PafWriter, with each
 * layer call timed (and, in a traced run, recorded as a span).
 */

#ifndef SEGRAM_PERFBENCH_OFFLINE_H
#define SEGRAM_PERFBENCH_OFFLINE_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/core/reference.h"
#include "src/core/sharded_mapper.h"

namespace perfbench
{

/** Per-chromosome PAF target length (graph concatenated coordinates). */
using TargetLengths = std::unordered_map<std::string, uint64_t>;

TargetLengths targetLengths(const segram::core::PreprocessedReference &ref);

/** One read's mapping outcome, as the replay must reproduce it. */
struct ReadOutcome
{
    bool mapped = false;
    int editDistance = 0;
    uint64_t linearStart = 0;
    bool reverseComplemented = false;
    std::string chromosome;

    bool operator==(const ReadOutcome &) const = default;
};

/** The measurements of one FASTX-in -> PAF-out pass. */
struct PassResult
{
    double wallSec = 0.0;
    double fastxSec = 0.0; ///< FastxReader::nextBatch
    double mapSec = 0.0;   ///< ShardedBatchMapper::mapBatch
    double pafSec = 0.0;   ///< makePafRecord + PafWriter write/flush
    uint64_t reads = 0;
    uint64_t bases = 0;
    uint64_t records = 0;
    std::vector<double> batchMs; ///< mapBatch latency per batch
    segram::core::PipelineStats stats;
    std::vector<ReadOutcome> outcomes; ///< per read, file order
};

/** Batch size of `segram map` (its --batch default). */
inline constexpr size_t kMapBatch = 256;

/**
 * Maps every read of @p reads_path into @p paf_path. Spans (one per
 * batch and layer call) go under @p parent when @p tracer is enabled.
 */
PassResult runOfflinePass(const segram::core::ShardedBatchMapper &mapper,
                          const TargetLengths &targets,
                          const std::string &reads_path,
                          const std::string &paf_path, Tracer &tracer,
                          int64_t parent);

/** @return The whole file as a string (PAF byte comparison). */
std::string readWholeFile(const std::string &path);

} // namespace perfbench

#endif // SEGRAM_PERFBENCH_OFFLINE_H
