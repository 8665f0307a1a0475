/**
 * @file
 * ShardedBatchMapper: the (read-chunk x shard) batch driver — the one
 * driver every mapping path goes through (`segram map` with every
 * engine, `segram serve`, the benches).
 *
 * SeGraM builds "one graph for each chromosome" and gives each HBM
 * channel a MinSeed+BitAlign pair that shares only the read-only graph
 * and index. Here one MappingEngine per chromosome shard plays that
 * pair, and the driver schedules the full (read-chunk x shard) grid,
 * shard-major, through the thread pool's work-stealing mode: workers
 * start on different shards (locality: one shard's tables stay hot in
 * cache while its items drain), skew is absorbed by stealing, and a
 * memory budget can keep only the shards in flight resident
 * (ShardResidency).
 *
 * Output is bit-identical for every thread count: per-(read, shard)
 * results are pure functions of their inputs, the chunk partition is
 * fixed, and the merge — lowest edit distance wins, ties to the
 * earlier chromosome — runs over a deterministic shard order after the
 * grid completes. It equals a read-major loop that maps each read on
 * every chromosome in turn with the same rule.
 */

#ifndef SEGRAM_SRC_CORE_SHARDED_MAPPER_H
#define SEGRAM_SRC_CORE_SHARDED_MAPPER_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/engine.h"
#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/workspace.h"
#include "src/util/thread_pool.h"

namespace segram::core
{

/** ShardedBatchMapper knobs. */
struct ShardedBatchConfig
{
    /** Worker threads; <= 0 picks the host's hardware concurrency. */
    int threads = 1;

    /**
     * Resident-shard budget in bytes; 0 maps without residency
     * control. Only effective for pack-backed references (in-memory
     * tables cannot be dropped); pair with PackLoadOptions::coldLoad
     * so the mapping starts cold.
     */
    uint64_t memBudgetBytes = 0;
};

/**
 * Work-stealing (read-chunk x shard) batch driver over one
 * MappingEngine per chromosome. One instance owns one thread pool and
 * per-worker workspaces; mapBatch calls must be serialized by the
 * caller, and the reference must outlive the mapper.
 */
class ShardedBatchMapper
{
  public:
    /**
     * Reads per work item (one item = one chunk against one shard).
     * Small enough to balance skewed per-read cost, large enough to
     * fill the lane-batched scheduler; fixed, so batch groupings (and
     * the occupancy counters) never depend on the thread count.
     */
    static constexpr size_t kChunkSize = 8;

    /** SegramMapper shards, one per chromosome of @p reference. */
    ShardedBatchMapper(const PreprocessedReference &reference,
                       const SegramConfig &config = {},
                       const ShardedBatchConfig &batch = {});

    /**
     * Caller-built shards: @p shards[c] maps chromosome c of
     * @p reference (how the CLI drives the CPU baselines).
     * @throws InputError when the counts differ or a shard is null.
     */
    ShardedBatchMapper(const PreprocessedReference &reference,
                       std::vector<std::unique_ptr<MappingEngine>> shards,
                       const ShardedBatchConfig &batch = {});

    /**
     * Maps reads[i] -> result[i] across the (chunk x shard) grid.
     * Results and @p stats totals are bit-identical for every thread
     * count; the read-level counters count logical reads, the work
     * counters sum over every (read, shard) pass.
     */
    std::vector<MultiMapResult>
    mapBatch(std::span<const std::string_view> reads,
             PipelineStats *stats = nullptr) const;

    /** Convenience overload for owned-string batches. */
    std::vector<MultiMapResult>
    mapBatch(std::span<const std::string> reads,
             PipelineStats *stats = nullptr) const;

    int threads() const { return pool_.size(); }
    size_t numShards() const { return shards_.size(); }
    /** The shard engines' name ("segram", "vg-like", ...). */
    std::string_view engineName() const
    {
        return shards_.front()->engineName();
    }

    /** All-zeros when no memory budget is active. */
    ShardResidency::Stats residencyStats() const;

  private:
    std::vector<std::string> names_;
    std::vector<std::unique_ptr<MappingEngine>> shards_;
    /** Internally synchronized (ThreadPool's job state carries the
     *  clang thread-safety annotations); mapBatch is logically const
     *  but calls must be serialized by the caller — the pool runs one
     *  job at a time and the workspaces below are reused across calls. */
    mutable util::ThreadPool pool_;
    /** One private workspace per pool worker — the software image of
     *  each channel module's scratchpad. Not guarded by a mutex:
     *  workspaces_[w] is touched only by pool worker w, and the pool's
     *  job handshake orders those accesses against the caller between
     *  batches. */
    mutable std::vector<MapWorkspace> workspaces_;
    /** LRU residency control; null when memBudgetBytes == 0. */
    mutable std::unique_ptr<ShardResidency> residency_;
};

} // namespace segram::core

#endif // SEGRAM_SRC_CORE_SHARDED_MAPPER_H
