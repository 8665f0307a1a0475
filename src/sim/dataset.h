/**
 * @file
 * One-stop synthetic dataset assembly: genome -> variants -> graph ->
 * index -> donor haplotype, with one deterministic seed. Tests,
 * examples and every bench build their workloads through this, so the
 * whole evaluation is reproducible bit-for-bit.
 */

#ifndef SEGRAM_SRC_SIM_DATASET_H
#define SEGRAM_SRC_SIM_DATASET_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/genome_graph.h"
#include "src/graph/variants.h"
#include "src/index/minimizer_index.h"
#include "src/sim/genome_sim.h"
#include "src/sim/read_sim.h"
#include "src/sim/variant_sim.h"

namespace segram::sim
{

/** All knobs of a synthetic dataset. */
struct DatasetConfig
{
    GenomeConfig genome;
    VariantConfig variants;
    index::IndexConfig index;
    /** Probability that the donor haplotype carries each ALT allele. */
    double altProbability = 0.5;
    uint64_t seed = 42;
};

/** A fully assembled dataset. */
struct Dataset
{
    std::string reference;
    std::vector<graph::Variant> variants;
    graph::GenomeGraph graph;
    index::MinimizerIndex index;
    DonorGenome donor;
};

/** Builds a dataset deterministically from @p config. */
Dataset makeDataset(const DatasetConfig &config);

/**
 * Builds a *linear* dataset: the same genome with zero variants, whose
 * graph is a node chain. This is the sequence-to-sequence special case
 * the paper's universality claim rests on.
 */
Dataset makeLinearDataset(DatasetConfig config);

/** All knobs of a multi-chromosome dataset. */
struct MultiDatasetConfig
{
    MultiGenomeConfig genome;
    VariantConfig variants;
    /** Probability that the donor haplotype carries each ALT allele. */
    double altProbability = 0.5;
    uint64_t seed = 42;
};

/**
 * One fully assembled chromosome of a multi-chromosome dataset. No
 * minimizer index: its consumers (`segram simulate`, perfbench's
 * workloads, the occurrence-cap test) either write FASTA/VCF for
 * `segram index` to process or build indexes with their own
 * IndexConfig — baking one in here would double the build time of a
 * 40 Mbp genome for nothing.
 */
struct ChromosomeDataset
{
    std::string name;
    std::string reference;
    std::vector<graph::Variant> variants;
    graph::GenomeGraph graph;
    DonorGenome donor;
};

/**
 * Builds a multi-chromosome dataset deterministically from @p config:
 * skew-length chromosomes with shared dispersed repeat families and
 * tandem arrays (simulateMultiChromosomeGenome), then per chromosome
 * variants, graph and donor haplotype.
 *
 * @param[out] report Optional planted-repeat tally across chromosomes.
 */
std::vector<ChromosomeDataset>
makeMultiDataset(const MultiDatasetConfig &config,
                 RepeatReport *report = nullptr);

} // namespace segram::sim

#endif // SEGRAM_SRC_SIM_DATASET_H
