/**
 * @file
 * Allocation gate of the shipping mapping path: a counting global
 * operator new measures the steady-state heap allocations per read of
 * SegramMapper::mapMany out of one warm MapWorkspace, in the chunks
 * ShardedBatchMapper hands it, forward-only and with the
 * reverse-complement retry.
 *
 * Before the per-thread workspace existed the pipeline made ~11,080
 * allocations per read on reads of this profile; the gate holds the
 * >= 10x drop the workspace promised. The counting allocator is linked into this
 * binary only — the library never replaces the global allocator. Every
 * unaligned new (plain and nothrow) and delete is replaced, all with
 * malloc/free, so sanitizer builds see matched pairs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/sim/dataset.h"
#include "src/sim/read_sim.h"
#include "src/util/rng.h"

namespace
{

std::atomic<unsigned long long> g_allocations{0};

void *
countedMalloc(size_t size) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAlloc(size_t size)
{
    if (void *p = countedMalloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](size_t size)
{
    return countedAlloc(size);
}

void *
operator new(size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void *
operator new[](size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

namespace segram::core
{
namespace
{

/** Steady-state allocations/read of the pipeline before MapWorkspace,
 *  measured with this counting allocator on 200 reads of this profile
 *  against a 400 kbp graph built the same way. */
constexpr double kPreWorkspaceAllocsPerRead = 11080.0;

/** Warm passes averaged by the gate (after one warm-up pass). */
constexpr int kMeasuredPasses = 3;

/**
 * Maps 60 x 1 kbp PacBio-5% reads against a 150 kbp graph (3% repeats,
 * (15,10) minimizers) through one workspace and returns the heap
 * allocations per read of the warm passes.
 */
double
warmAllocsPerRead(bool reverse_complement)
{
    sim::DatasetConfig dataset_config;
    dataset_config.genome.length = 150'000;
    dataset_config.genome.repeatFraction = 0.03;
    dataset_config.index.sketch = {15, 10};
    dataset_config.index.bucketBits = 16;
    dataset_config.seed = 20220618;
    const sim::Dataset dataset = sim::makeDataset(dataset_config);

    SegramConfig config;
    config.minseed.errorRate = 0.05;
    config.earlyExitFraction = 1.5;
    config.tryReverseComplement = reverse_complement;
    const SegramMapper mapper(dataset.graph, dataset.index, config);

    Rng rng(47);
    const auto sim_reads = sim::simulateReads(
        dataset.donor, {1'000, 60, sim::ErrorProfile::pacbio(0.05)}, rng);
    std::vector<std::string_view> reads;
    for (const auto &read : sim_reads)
        reads.push_back(read.seq);

    MapWorkspace workspace;
    std::vector<MapResult> results(reads.size());
    const auto pass = [&] {
        for (size_t begin = 0; begin < reads.size();
             begin += ShardedBatchMapper::kChunkSize) {
            const size_t count = std::min(ShardedBatchMapper::kChunkSize,
                                          reads.size() - begin);
            mapper.mapMany(
                std::span<const std::string_view>(reads).subspan(begin,
                                                                 count),
                std::span<MapResult>(results).subspan(begin, count),
                nullptr, workspace);
        }
    };
    pass(); // warm-up: buffer growth is not steady state
    size_t mapped = 0;
    for (const MapResult &result : results)
        mapped += result.mapped ? 1 : 0;
    EXPECT_GT(mapped, reads.size() / 2) << "the input must map";

    const unsigned long long before = g_allocations.load();
    for (int i = 0; i < kMeasuredPasses; ++i)
        pass();
    const unsigned long long allocations = g_allocations.load() - before;
    return static_cast<double>(allocations) /
           static_cast<double>(kMeasuredPasses * reads.size());
}

TEST(AllocationGate, WarmMapManyForwardOnly)
{
    const double per_read = warmAllocsPerRead(false);
    std::printf("forward-only: %.2f allocations/read\n", per_read);
    EXPECT_LE(per_read, kPreWorkspaceAllocsPerRead / 10.0);
}

TEST(AllocationGate, WarmMapManyWithReverseComplement)
{
    const double per_read = warmAllocsPerRead(true);
    std::printf("with RC: %.2f allocations/read\n", per_read);
    EXPECT_LE(per_read, kPreWorkspaceAllocsPerRead / 10.0);
}

} // namespace
} // namespace segram::core
