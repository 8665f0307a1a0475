#include "src/core/reference.h"

#include <algorithm>
#include <utility>

#include "src/graph/gfa_import.h"
#include "src/graph/graph_builder.h"
#include "src/graph/variants.h"
#include "src/io/fasta.h"
#include "src/io/gfa.h"
#include "src/io/vcf.h"
#include "src/util/check.h"

namespace segram::core
{

PreprocessedReference::PreprocessedReference(
    std::vector<PreprocessedChromosome> chromosomes)
    : chromosomes_(std::move(chromosomes))
{
}

PreprocessedReference
PreprocessedReference::buildFromFiles(
    const std::string &fasta_path, const std::string &vcf_path,
    const index::IndexConfig &index_config,
    std::vector<ChromosomeBuildInfo> *build_info)
{
    const auto records = io::readFastaFile(fasta_path);
    const auto vcf = io::readVcfFile(vcf_path);
    SEGRAM_CHECK(!records.empty(),
                 "reference FASTA '" + fasta_path + "' has no records");

    PreprocessedReference out;
    for (const auto &record : records) {
        uint64_t dropped = 0;
        const auto variants = graph::canonicalizeSet(
            vcf, record.name, record.seq.size(), &dropped);
        PreprocessedChromosome chromosome;
        chromosome.name = record.name;
        chromosome.graph = graph::buildGraph(record.seq, variants);
        chromosome.index =
            index::MinimizerIndex::build(chromosome.graph, index_config);
        if (build_info != nullptr) {
            build_info->push_back({record.name, record.seq.size(),
                                   variants.size(), dropped});
        }
        out.chromosomes_.push_back(std::move(chromosome));
    }
    return out;
}

PreprocessedReference
PreprocessedReference::buildFromGfa(
    const std::string &gfa_path, const index::IndexConfig &index_config,
    std::vector<ChromosomeBuildInfo> *build_info)
{
    auto imported = graph::importGfa(io::readGfaFile(gfa_path));

    PreprocessedReference out;
    out.chromosomes_.reserve(imported.size());
    for (auto &chromosome : imported) {
        PreprocessedChromosome entry;
        entry.name = std::move(chromosome.name);
        entry.graph = std::move(chromosome.graph);
        entry.index =
            index::MinimizerIndex::build(entry.graph, index_config);
        if (build_info != nullptr) {
            build_info->push_back(
                {entry.name, entry.graph.pathLength(), 0, 0});
        }
        out.chromosomes_.push_back(std::move(entry));
    }
    return out;
}

PreprocessedReference
PreprocessedReference::load(const std::string &pack_path,
                            const io::PackLoadOptions &options)
{
    PreprocessedReference out;
    auto pack = std::make_unique<io::PackFile>(
        io::PackFile::open(pack_path, options));
    out.chromosomes_.reserve(pack->numChromosomes());
    for (size_t i = 0; i < pack->numChromosomes(); ++i) {
        // Cheap copies: the graphs/indexes borrow their tables from the
        // mapping (kept alive by pack_ below), so copying them copies
        // spans and scalars, never table contents.
        out.chromosomes_.push_back(
            {pack->name(i), pack->graph(i), pack->index(i)});
    }
    out.pack_ = std::move(pack);
    return out;
}

void
PreprocessedReference::save(const std::string &pack_path) const
{
    std::vector<io::PackWriteEntry> entries;
    entries.reserve(chromosomes_.size());
    for (const auto &chromosome : chromosomes_) {
        entries.push_back(
            {chromosome.name, &chromosome.graph, &chromosome.index});
    }
    io::writePack(pack_path, entries);
}

uint64_t
PreprocessedReference::shardBytes(size_t i) const
{
    if (pack_ != nullptr)
        return pack_->shard(i).byteBytes;
    const auto &chromosome = chromosomes_[i];
    const auto &stats = chromosome.index.stats();
    // In-memory estimate mirroring what the shard would weigh in a
    // pack: 2-bit character words + node/edge records + the three
    // index levels.
    const uint64_t graph_bytes =
        chromosome.graph.numNodes() * sizeof(graph::NodeRecord) +
        chromosome.graph.numEdges() * sizeof(graph::NodeId) +
        (chromosome.graph.totalSeqLen() + 31) / 32 * sizeof(uint64_t);
    return graph_bytes + stats.totalBytes();
}

void
PreprocessedReference::adviseShard(size_t i, bool resident) const
{
    if (pack_ != nullptr)
        pack_->adviseShard(i, resident);
}

ShardResidency::ShardResidency(const PreprocessedReference &reference,
                               uint64_t budget_bytes)
    : reference_(reference), budget_(budget_bytes),
      shards_(reference.numChromosomes())
{
    for (size_t i = 0; i < shards_.size(); ++i)
        shards_[i].bytes = reference.shardBytes(i);
}

ShardResidency::Lease
ShardResidency::acquire(size_t shard)
{
    util::MutexLock lock(mutex_);
    Shard &entry = shards_[shard];
    ++entry.pins;
    entry.lastUse = ++clock_;
    ++stats_.acquisitions;
    if (!entry.resident) {
        ++stats_.faults;
        entry.resident = true;
        residentBytes_ += entry.bytes;
        reference_.adviseShard(shard, true);
        evictOverBudget();
    }
    stats_.peakResidentBytes =
        std::max(stats_.peakResidentBytes, residentBytes_);
    return Lease(this, shard);
}

void
ShardResidency::release(size_t shard)
{
    util::MutexLock lock(mutex_);
    --shards_[shard].pins;
    evictOverBudget();
}

void
ShardResidency::evictOverBudget()
{
    if (budget_ == 0)
        return;
    while (residentBytes_ > budget_) {
        size_t victim = shards_.size();
        uint64_t oldest = UINT64_MAX;
        for (size_t i = 0; i < shards_.size(); ++i) {
            const Shard &entry = shards_[i];
            if (entry.resident && entry.pins == 0 &&
                entry.lastUse < oldest) {
                oldest = entry.lastUse;
                victim = i;
            }
        }
        if (victim == shards_.size())
            return; // every resident shard is pinned: allowed overage
        Shard &entry = shards_[victim];
        entry.resident = false;
        residentBytes_ -= entry.bytes;
        ++stats_.evictions;
        reference_.adviseShard(victim, false);
    }
}

ShardResidency::Stats
ShardResidency::stats() const
{
    util::MutexLock lock(mutex_);
    return stats_;
}

} // namespace segram::core
