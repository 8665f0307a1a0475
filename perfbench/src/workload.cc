#include "perfbench/src/workload.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "src/eval/accuracy.h"
#include "src/graph/variants.h"
#include "src/io/fasta.h"
#include "src/io/fastq.h"
#include "src/io/gfa.h"
#include "src/io/vcf.h"
#include "src/sim/dataset.h"
#include "src/util/rng.h"

namespace perfbench
{

using namespace segram;

const std::vector<WorkloadSpec> &
allWorkloads()
{
    // Sizes are fixed here. The linearize cost that grows with
    // chromosome size must stay visible: no workload is resized to
    // hide it (see README.md, "Scale exposure").
    static const std::vector<WorkloadSpec> specs = {
        // One 40 Mbp chromosome, no repeats, human-like variant
        // spacing, 1 kbp PacBio-5% reads mapped offline: any cost
        // that grows with chromosome size shows here.
        {"chr40m-long", 1, 40'000'000, 0.0, 0.0, 440.0, false,
         1000, 512, 0.05, std::nullopt},
        // Four skewed chromosomes with shared dispersed repeat
        // families and tandem arrays: region count, BitAlign and
        // shard-skew work stealing do the work.
        {"repeats-long", 4, 4'000'000, 0.05, 0.01, 440.0, false,
         1000, 400, 0.05, std::nullopt},
        // A dense-variant pangenome imported from GFA, 150 bp
        // Illumina-1% reads served by the daemon in 16-read requests:
        // seeding and per-call costs dominate.
        {"pangenome-short-serve", 4, 4'000'000, 0.0, 0.0, 100.0, true,
         150, 4000, 0.01,
         ServeSpec{16, 2000.0, 800, 500.0, 1.25, 16, 120, 100.0}},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(std::string_view name)
{
    for (const WorkloadSpec &spec : allWorkloads())
        if (name == spec.name)
            return &spec;
    return nullptr;
}

core::SegramConfig
mapConfig()
{
    constexpr double kErrorRate = 0.10;
    core::SegramConfig config;
    config.minseed.errorRate = kErrorRate;
    config.minseed.maxOccurrences = 0;
    config.bitalign.windowEditCap =
        std::max(32, static_cast<int>(config.bitalign.windowLen *
                                      kErrorRate * 3));
    config.earlyExitFraction = 1.5;
    config.tryReverseComplement = true;
    config.maxRegions = 0;
    config.enableChainFilter = false;
    config.maxChains = 4;
    config.hopLimit = graph::kDefaultHopLimit;
    return config;
}

index::IndexConfig
indexConfig()
{
    index::IndexConfig config;
    config.bucketBits = 16;
    return config;
}

uint64_t
digestFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    uint64_t hash = 0xcbf29ce484222325ULL;
    char buffer[1 << 16];
    while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
        const std::streamsize n = in.gcount();
        for (std::streamsize i = 0; i < n; ++i) {
            hash ^= static_cast<unsigned char>(buffer[i]);
            hash *= 0x100000001b3ULL;
        }
    }
    return hash;
}

WorkloadInputs
generateInputs(const WorkloadSpec &spec, uint64_t seed,
               const std::string &dir)
{
    std::filesystem::create_directories(dir);
    // The reference is a fixed asset of the workload, like a published
    // assembly: its generator seed is this constant, not --seed. The
    // seed draws the reads (and the serve schedule). Across seeds the
    // repeat layout would otherwise move the work per read by up to 2x
    // on repeats-long, far beyond any bound a change could be judged by.
    constexpr uint64_t kReferenceSeed = 1;
    sim::MultiDatasetConfig config;
    config.genome.numChromosomes = spec.chromosomes;
    config.genome.totalLength = spec.genomeLen;
    config.genome.repeats.repeatFraction = spec.repeatFraction;
    config.genome.repeats.tandemFraction = spec.tandemFraction;
    config.variants.meanSpacing = spec.variantSpacing;
    config.seed = kReferenceSeed;
    std::vector<sim::ChromosomeDataset> dataset =
        sim::makeMultiDataset(config);

    WorkloadInputs inputs;
    if (spec.fromGfa) {
        // What `segram construct` writes: one component per chromosome
        // with name-prefixed segments and a reference P line.
        io::GfaDocument doc;
        for (const auto &entry : dataset) {
            const io::GfaDocument part = entry.graph.toGfa(entry.name);
            for (const auto &segment : part.segments)
                doc.segments.push_back(
                    {entry.name + "." + segment.name, segment.seq});
            for (const auto &link : part.links)
                doc.links.push_back({entry.name + "." + link.from,
                                     entry.name + "." + link.to});
            for (const auto &path : part.paths) {
                io::GfaPath prefixed;
                prefixed.name = path.name;
                for (const auto &step : path.steps)
                    prefixed.steps.push_back(entry.name + "." + step);
                doc.paths.push_back(std::move(prefixed));
            }
        }
        inputs.gfaPath = dir + "/ref.gfa";
        io::writeGfaFile(inputs.gfaPath, doc);
    } else {
        // What `segram simulate` writes.
        std::vector<io::FastaRecord> fasta;
        std::vector<io::VcfRecord> vcf;
        for (const auto &entry : dataset) {
            fasta.push_back({entry.name, entry.reference});
            for (const auto &variant : entry.variants) {
                if (variant.pos == 0)
                    continue; // indels at position 0 cannot be padded
                vcf.push_back(graph::toVcfRecord(variant, entry.name,
                                                 entry.reference));
            }
        }
        inputs.fastaPath = dir + "/ref.fa";
        inputs.vcfPath = dir + "/ref.vcf";
        io::writeFastaFile(inputs.fastaPath, fasta);
        io::writeVcfFile(inputs.vcfPath, vcf);
    }

    // Reads as `segram simulate` plants them: per chromosome in
    // proportion to its length (chr1 absorbs the remainder), a quarter
    // from the minus strand.
    Rng rng(seed);
    sim::ReadSimConfig read_config{
        spec.readLen, spec.numReads,
        spec.readLen >= 1000 ? sim::ErrorProfile::pacbio(spec.errorRate)
                             : sim::ErrorProfile::illumina(spec.errorRate)};
    read_config.revCompProbability = 0.25;
    const std::string profile = sim::profileLabel(read_config.errors);
    uint64_t total_bases = 0;
    for (const auto &entry : dataset)
        total_bases += entry.reference.size();
    std::vector<uint32_t> counts(dataset.size());
    uint32_t assigned = 0;
    for (size_t c = 1; c < dataset.size(); ++c) {
        counts[c] = static_cast<uint32_t>(
            static_cast<uint64_t>(spec.numReads) *
            dataset[c].reference.size() / total_bases);
        assigned += counts[c];
    }
    counts[0] = spec.numReads - assigned;

    std::vector<std::pair<sim::SimRead, size_t>> picked;
    for (size_t c = 0; c < dataset.size(); ++c) {
        if (counts[c] == 0)
            continue;
        // Systematic sampling: simulate kOversample candidates per read
        // and keep the ones at evenly spaced ranks of their donor start,
        // so every seed covers each chromosome evenly and the share of
        // reads landing in repeats tracks the genome's repeat fraction
        // instead of the luck of a few hundred uniform draws.
        constexpr uint32_t kOversample = 8;
        sim::ReadSimConfig chromosome_reads = read_config;
        chromosome_reads.numReads = counts[c] * kOversample;
        std::vector<sim::SimRead> candidates =
            sim::simulateReads(dataset[c].donor, chromosome_reads, rng);
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const sim::SimRead &a, const sim::SimRead &b) {
                             return a.donorStart < b.donorStart;
                         });
        for (uint32_t k = 0; k < counts[c]; ++k)
            picked.emplace_back(
                std::move(candidates[k * kOversample + kOversample / 2]), c);
    }
    // Sequencers emit reads in no genome order: shuffle (seeded).
    for (size_t i = picked.size(); i > 1; --i)
        std::swap(picked[i - 1], picked[rng.nextBelow(i)]);

    std::vector<io::FastqRecord> records;
    std::vector<eval::TruthRecord> truth;
    for (size_t i = 0; i < picked.size(); ++i) {
        const sim::SimRead &read = picked[i].first;
        const std::string name = "read" + std::to_string(i) + "_truth" +
                                 std::to_string(read.truthLinearStart);
        records.push_back({name, read.seq, std::string(read.seq.size(), 'I')});
        truth.push_back({name, dataset[picked[i].second].name, read.donorStart,
                         read.truthLinearStart,
                         read.reverseComplemented ? '-' : '+',
                         static_cast<uint32_t>(read.seq.size()),
                         read.plantedErrors, profile});
    }
    inputs.readsPath = dir + "/reads.fq";
    inputs.truthPath = dir + "/reads.truth.tsv";
    io::writeFastqFile(inputs.readsPath, records);
    eval::writeTruthFile(inputs.truthPath, truth);

    for (const std::string *path :
         {&inputs.fastaPath, &inputs.vcfPath, &inputs.gfaPath,
          &inputs.readsPath, &inputs.truthPath})
        if (!path->empty())
            inputs.digests.emplace_back(
                std::filesystem::path(*path).filename().string(),
                digestFile(*path));
    return inputs;
}

} // namespace perfbench
