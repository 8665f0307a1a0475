/**
 * @file
 * The per-shard mapping-engine interface.
 *
 * SeGraM's throughput story is read-level parallelism: the paper
 * provisions one MinSeed+BitAlign module pair per HBM2E channel, all
 * pairs sharing only the read-only graph and index of "one graph for
 * each chromosome". `MappingEngine` is the one call the software image
 * of that grid makes: ShardedBatchMapper (src/core/sharded_mapper.h)
 * holds one engine per chromosome shard and hands every (read-chunk x
 * shard) work item to its shard's `mapMany`. SegramMapper implements
 * it with the lane-batched scheduler; the CPU baselines (GraphAligner-
 * and vg-like) implement it per read, so all three ride the same
 * driver, CLI and accuracy harness.
 *
 * The result/statistics types live in src/core/map_result.h and are
 * re-exported here.
 */

#ifndef SEGRAM_SRC_CORE_ENGINE_H
#define SEGRAM_SRC_CORE_ENGINE_H

#include <span>
#include <string_view>

#include "src/core/map_result.h"
#include "src/core/workspace.h"

namespace segram::core
{

/**
 * One chromosome shard's mapper.
 *
 * Thread-safety contract (the software equivalent of the paper's
 * shared read-only graph+index across channel modules): `mapMany` must
 * be safe to call concurrently from multiple threads on one engine
 * instance, with per-call state confined to the stack, the
 * caller-supplied workspace and the stats accumulator.
 */
class MappingEngine
{
  public:
    virtual ~MappingEngine() = default;

    /**
     * Maps reads[i] -> results[i] (spans must be equal-sized) out of
     * @p workspace, which must not be shared between concurrent calls.
     * A reverse-complement winner carries `reverseComplemented = true`
     * with forward-strand coordinates. Results must be pure functions
     * of (engine, read): the driver's determinism across thread counts
     * rests on it.
     *
     * @param[out] stats Optional counter accumulator; when null, no
     *                   counters are kept.
     */
    virtual void mapMany(std::span<const std::string_view> reads,
                         std::span<MapResult> results,
                         PipelineStats *stats,
                         MapWorkspace &workspace) const = 0;

    /** Short stable identifier ("segram", "vg-like", ...). */
    virtual std::string_view engineName() const = 0;
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_ENGINE_H
