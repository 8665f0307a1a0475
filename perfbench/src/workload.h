/**
 * @file
 * The benchmark's workloads: their fixed constants and the seeded
 * generator that turns a workload + seed into the files the program
 * receives (FASTA+VCF or GFA, FASTQ reads, a truth sidecar).
 */

#ifndef SEGRAM_PERFBENCH_WORKLOAD_H
#define SEGRAM_PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/segram.h"
#include "src/index/minimizer_index.h"

namespace perfbench
{

/**
 * The daemon's open loop on the serve workload. Every field is a
 * constant recorded with the workload, never derived at run time — in
 * particular the ladder of offered rates and the p99 limit.
 */
struct ServeSpec
{
    uint32_t requestReads;   ///< reads per MAP request
    double refRate;          ///< reference offered rate, reads/s
    uint32_t refRequests;    ///< requests sent at the reference rate
    double ladderBase;       ///< lowest ladder rate, reads/s
    double ladderStep;       ///< ratio between adjacent rungs
    int ladderRungs;
    uint32_t probeRequests;  ///< requests sent per capacity probe
    double p99LimitMs;       ///< latency limit of the capacity search
};

/** One workload. Every field is a constant recorded here. */
struct WorkloadSpec
{
    const char *name;
    // --- genome ---
    uint32_t chromosomes;
    uint64_t genomeLen;      ///< total bases over all chromosomes
    double repeatFraction;   ///< dispersed repeat families
    double tandemFraction;   ///< tandem arrays
    double variantSpacing;   ///< mean bases between planted variants
    bool fromGfa;            ///< reference built from a GFA export
    // --- reads ---
    uint32_t readLen;
    uint32_t numReads;
    double errorRate;        ///< PacBio profile for long, Illumina short
    /** Set when the reads are served by the daemon; the others are
     *  mapped offline only. */
    std::optional<ServeSpec> serve;
};

/** @return The spec named @p name, or nullptr. */
const WorkloadSpec *findWorkload(std::string_view name);

/** @return Every workload, in run order. */
const std::vector<WorkloadSpec> &allWorkloads();

/** The generated files of one workload instance. */
struct WorkloadInputs
{
    std::string fastaPath;  ///< empty for GFA workloads
    std::string vcfPath;    ///< empty for GFA workloads
    std::string gfaPath;    ///< empty for FASTA+VCF workloads
    std::string readsPath;  ///< FASTQ
    std::string truthPath;  ///< `.truth.tsv` sidecar
    /** name -> FNV-1a 64 digest of each generated file. */
    std::vector<std::pair<std::string, uint64_t>> digests;
};

/**
 * Writes the inputs of @p spec for @p seed into @p dir (created). The
 * same seed always yields byte-identical files. Generation runs on the
 * calling thread and takes no thread count.
 */
WorkloadInputs generateInputs(const WorkloadSpec &spec, uint64_t seed,
                              const std::string &dir);

/** FNV-1a 64 of a file's bytes. @throws on unreadable files. */
uint64_t digestFile(const std::string &path);

/**
 * The SegramConfig `segram map` builds from its default flags
 * (makeSegramConfig in tools/segram_cli.cc): error rate 0.10, RC retry
 * on, every candidate region aligned (no --max-regions, no chaining),
 * early exit 1.5, windowEditCap = max(32, windowLen * err * 3).
 */
segram::core::SegramConfig mapConfig();

/** The IndexConfig `segram index` uses by default (--bucket-bits 16). */
segram::index::IndexConfig indexConfig();

} // namespace perfbench

#endif // SEGRAM_PERFBENCH_WORKLOAD_H
