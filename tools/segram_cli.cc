/**
 * @file
 * `segram` — the command-line front end of the library, covering the
 * whole paper pipeline on real files:
 *
 *   segram construct <ref.fa> <vars.vcf> <out.gfa>
 *       Pre-processing step 0.1: build the topologically sorted genome
 *       graph (one per FASTA record / chromosome) and write it as GFA
 *       — disjoint components with name-prefixed segments, plus one P
 *       line per chromosome walking its reference backbone, so the
 *       chromosome names and path coordinates survive a round trip
 *       through the interchange format.
 *
 *   segram index [--bucket-bits N] [--discard-top F] [--stats]
 *                (<ref.fa> <vars.vcf> | <graph.gfa>) <out.segram>
 *       Full pre-processing (Section 5): graph + minimizer index per
 *       chromosome, serialized as a `.segram` pack — raw mmap-able
 *       tables mirroring the paper's Fig. 5/Fig. 6 memory layout.
 *       The graph source is either FASTA+VCF or an imported GFA
 *       (detected by content), e.g. a vg/minigraph-style pangenome or
 *       the output of `segram construct`. --discard-top sets the
 *       fraction of hottest minimizers the frequency filter ignores;
 *       --stats prints the per-chromosome table footprints plus the
 *       occurrence histogram (frequency deciles and hottest seeds)
 *       that drives --max-occ / --discard-top tuning.
 *
 *   segram map [--threads N] [--batch N] [--bucket-bits N]
 *              [--discard-top F] [--engine segram|graphaligner|vg]
 *              [--path-coords]
 *              (<ref.fa> <vars.vcf> | <graph.gfa> | <pack.segram>)
 *              <reads.fa|fq> [E]
 *       Full pipeline: obtain the pre-processed reference — by
 *       building it from FASTA+VCF, by importing a GFA graph, or by
 *       memory-mapping a `.segram` pack (all detected by content) —
 *       then stream the reads (FASTA or FASTQ) in batches through the
 *       multi-threaded BatchMapper (trying both strands) and print
 *       PAF to stdout. The stderr report splits pre-processing time
 *       from mapping time, so the build-once/map-forever win of packs
 *       is visible. E is the expected per-base error rate (default
 *       0.10). --engine swaps the SeGraM pipeline for one of the CPU
 *       baseline mappers (Section 10), so all three can be compared
 *       with `segram eval`. --path-coords reports PAF target
 *       coordinates projected onto the reference path (chromosome
 *       coordinates) instead of the graph's concatenated offsets.
 *       The segram engine runs the work-stealing (read-chunk x shard)
 *       scheduler; --max-occ caps the per-minimizer occurrence list
 *       at query time (deterministic stratified subsampling) and
 *       --mem-budget M keeps at most ~M MiB of pack shards resident
 *       (LRU + madvise), both human-scale-reference knobs.
 *
 *   segram simulate [--chromosomes N] [--repeat-fraction F]
 *                   [--tandem-fraction F]
 *                   <out_prefix> <genome_len> <num_reads> <read_len> <err>
 *       Emit a synthetic dataset (<prefix>.fa, <prefix>.vcf,
 *       <prefix>.reads.fa, an identical <prefix>.reads.fq, and a
 *       <prefix>.truth.tsv ground-truth sidecar recording where each
 *       read was planted) for trying the commands above. With
 *       --chromosomes > 1 the genome is split into skew-length
 *       chromosomes sharing dispersed repeat families (plus tandem
 *       arrays under --tandem-fraction), reads sampled per chromosome
 *       proportional to length — the scale harness behind
 *       bench_scale.
 *
 *   segram eval [--threshold N] <truth.tsv> <[name=]out.paf>...
 *       Accuracy evaluation: join each PAF file against the simulate
 *       ground truth and report sensitivity/precision, overall and per
 *       error profile. TSV rows to stdout, human summary to stderr.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "src/baseline/mappers.h"
#include "src/core/engine.h"
#include "src/core/reference.h"
#include "src/core/segram.h"
#include "src/core/sharded_mapper.h"
#include "src/eval/accuracy.h"
#include "src/graph/graph_builder.h"
#include "src/graph/variants.h"
#include "src/io/fasta.h"
#include "src/util/bitops_simd.h"
#include "src/io/fastq.h"
#include "src/io/fastx.h"
#include "src/io/gfa.h"
#include "src/io/pack.h"
#include "src/io/paf.h"
#include "src/io/vcf.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/sim/dataset.h"
#include "src/util/check.h"

namespace
{

using namespace segram;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Builds from FASTA+VCF, logging one line per chromosome. */
core::PreprocessedReference
buildReference(const std::string &fasta_path, const std::string &vcf_path,
               int bucket_bits,
               double discard_top = index::IndexConfig().discardTopFraction)
{
    index::IndexConfig config;
    config.bucketBits = bucket_bits;
    config.discardTopFraction = discard_top;
    std::vector<core::ChromosomeBuildInfo> info;
    auto reference = core::PreprocessedReference::buildFromFiles(
        fasta_path, vcf_path, config, &info);
    for (size_t i = 0; i < reference.numChromosomes(); ++i) {
        std::fprintf(
            stderr,
            "[segram] %s: %llu bp, %llu variants (%llu dropped), "
            "%zu nodes, %zu edges\n",
            info[i].name.c_str(),
            static_cast<unsigned long long>(info[i].referenceBases),
            static_cast<unsigned long long>(info[i].variantsApplied),
            static_cast<unsigned long long>(info[i].variantsDropped),
            reference.graph(i).numNodes(), reference.graph(i).numEdges());
    }
    return reference;
}

/** Imports a GFA graph, logging one line per recovered chromosome. */
core::PreprocessedReference
buildReferenceGfa(const std::string &gfa_path, int bucket_bits,
                  double discard_top =
                      index::IndexConfig().discardTopFraction)
{
    index::IndexConfig config;
    config.bucketBits = bucket_bits;
    config.discardTopFraction = discard_top;
    std::vector<core::ChromosomeBuildInfo> info;
    auto reference = core::PreprocessedReference::buildFromGfa(
        gfa_path, config, &info);
    for (size_t i = 0; i < reference.numChromosomes(); ++i) {
        std::fprintf(
            stderr,
            "[segram] %s (imported GFA): %llu path bp, %zu nodes, "
            "%zu edges\n",
            info[i].name.c_str(),
            static_cast<unsigned long long>(info[i].referenceBases),
            reference.graph(i).numNodes(), reference.graph(i).numEdges());
    }
    return reference;
}

int
cmdConstruct(const std::string &fasta_path, const std::string &vcf_path,
             const std::string &gfa_path)
{
    const auto records = io::readFastaFile(fasta_path);
    const auto vcf = io::readVcfFile(vcf_path);
    // Multiple chromosomes are written as disjoint components with
    // name-prefixed segments.
    io::GfaDocument doc;
    for (const auto &record : records) {
        uint64_t dropped = 0;
        const auto variants = graph::canonicalizeSet(
            vcf, record.name, record.seq.size(), &dropped);
        const auto graph = graph::buildGraph(record.seq, variants);
        std::fprintf(stderr,
                     "[segram] %s: %zu bp, %zu variants (%llu dropped), "
                     "%zu nodes, %zu edges\n",
                     record.name.c_str(), record.seq.size(),
                     variants.size(),
                     static_cast<unsigned long long>(dropped),
                     graph.numNodes(), graph.numEdges());
        // The per-chromosome P line keeps the chromosome name and its
        // reference-path coordinates importable; segment names are
        // prefixed so multi-chromosome documents stay collision-free.
        const auto part = graph.toGfa(record.name);
        for (const auto &segment : part.segments)
            doc.segments.push_back(
                {record.name + "." + segment.name, segment.seq});
        for (const auto &link : part.links)
            doc.links.push_back({record.name + "." + link.from,
                                 record.name + "." + link.to});
        for (const auto &path : part.paths) {
            io::GfaPath prefixed;
            prefixed.name = path.name;
            prefixed.steps.reserve(path.steps.size());
            for (const auto &step : path.steps)
                prefixed.steps.push_back(record.name + "." + step);
            doc.paths.push_back(std::move(prefixed));
        }
    }
    io::writeGfaFile(gfa_path, doc);
    std::fprintf(stderr,
                 "[segram] wrote %zu segments, %zu links, %zu paths "
                 "to %s\n",
                 doc.segments.size(), doc.links.size(), doc.paths.size(),
                 gfa_path.c_str());
    return 0;
}

/**
 * Prints the Fig. 5 graph-table and Fig. 7 index-level footprints of
 * one pre-processed chromosome (the `segram index --stats` report).
 */
void
printFootprint(const std::string &name, const graph::GenomeGraph &graph,
               const index::MinimizerIndex &index)
{
    const auto mb = [](uint64_t bytes) {
        return static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    std::fprintf(stderr,
                 "[segram] %s graph tables (Fig. 5): node %.2f MiB, "
                 "char %.2f MiB, edge %.2f MiB, total %.2f MiB\n",
                 name.c_str(), mb(graph.nodeTableBytes()),
                 mb(graph.charTableBytes()), mb(graph.edgeTableBytes()),
                 mb(graph.totalBytes()));
    const auto &stats = index.stats();
    std::fprintf(
        stderr,
        "[segram] %s index levels (Fig. 7, 2^%d buckets): "
        "L1 %.2f MiB, L2 %.2f MiB (%llu minimizers), "
        "L3 %.2f MiB (%llu locations), total %.2f MiB\n",
        name.c_str(), index.bucketBits(), mb(stats.firstLevelBytes),
        mb(stats.secondLevelBytes),
        static_cast<unsigned long long>(stats.numDistinctMinimizers),
        mb(stats.thirdLevelBytes),
        static_cast<unsigned long long>(stats.numLocations),
        mb(stats.totalBytes()));
}

/**
 * Prints the occurrence histogram of one chromosome's index: frequency
 * deciles of the distinct minimizers, the hottest seeds, and the
 * computed frequency threshold — the data a user tunes --discard-top
 * and `segram map --max-occ` against.
 */
void
printOccurrences(const std::string &name,
                 const index::MinimizerIndex &index)
{
    const auto report = index.occurrenceReport();
    std::fprintf(
        stderr,
        "[segram] %s occurrence histogram: %llu distinct minimizers, "
        "%llu locations, freq threshold %u (--discard-top %g)\n",
        name.c_str(),
        static_cast<unsigned long long>(report.distinctMinimizers),
        static_cast<unsigned long long>(report.totalLocations),
        report.freqThreshold, index.discardTopFraction());
    for (size_t d = 0; d < report.deciles.size(); ++d) {
        const auto &decile = report.deciles[d];
        std::fprintf(stderr,
                     "[segram]   decile %3zu%%: %llu minimizers, "
                     "max freq %u, %llu locations\n",
                     (d + 1) * 10,
                     static_cast<unsigned long long>(decile.minimizers),
                     decile.maxFrequency,
                     static_cast<unsigned long long>(decile.locations));
    }
    for (size_t i = 0; i < report.topSeeds.size(); ++i) {
        std::fprintf(
            stderr,
            "[segram]   hot seed %zu: hash %016llx, %u occurrences\n",
            i + 1,
            static_cast<unsigned long long>(report.topSeeds[i].hash),
            report.topSeeds[i].frequency);
    }
}

int
cmdIndex(const std::string &graph_source, const std::string &vcf_path,
         const std::string &pack_path, int bucket_bits,
         double discard_top, bool print_stats)
{
    const auto start = std::chrono::steady_clock::now();
    // An empty vcf_path selects the GFA import route (the caller
    // dispatched on content).
    const auto reference =
        vcf_path.empty()
            ? buildReferenceGfa(graph_source, bucket_bits, discard_top)
            : buildReference(graph_source, vcf_path, bucket_bits,
                             discard_top);
    const double build_sec = secondsSince(start);
    reference.save(pack_path);
    if (print_stats) {
        for (size_t i = 0; i < reference.numChromosomes(); ++i) {
            printFootprint(reference.name(i), reference.graph(i),
                           reference.index(i));
            printOccurrences(reference.name(i), reference.index(i));
        }
    }
    std::fprintf(
        stderr,
        "[segram] wrote %s: %zu chromosome%s, %.2f MiB "
        "(pre-processing took %.2f s)\n",
        pack_path.c_str(), reference.numChromosomes(),
        reference.numChromosomes() == 1 ? "" : "s",
        static_cast<double>(std::filesystem::file_size(pack_path)) /
            (1024.0 * 1024.0),
        build_sec);
    return 0;
}

/** Options of the map command. */
struct MapOptions
{
    /** FASTA+VCF mode: both set. Pack mode: packPath set. GFA mode:
     *  gfaPath set. */
    std::string fastaPath;
    std::string vcfPath;
    std::string packPath;
    std::string gfaPath;
    std::string readsPath;
    std::string engine = "segram";
    double errorRate = 0.10;
    int threads = 1;
    size_t batchSize = 256;
    int bucketBits = 16;
    /** Build-time frequency filter of the fresh-build path (packs
     *  bake it in at index time, like --bucket-bits). */
    double discardTop = index::IndexConfig().discardTopFraction;
    bool printStats = false;
    /** Report PAF target coordinates in reference-path space. */
    bool pathCoords = false;

    // SeGraM pipeline knobs (rejected for the baseline engines, which
    // do not consume them — a silently ignored flag fakes behaviour).
    uint32_t maxRegions = 0;     ///< 0 aligns every candidate region
    double earlyExit = 1.5;      ///< early-exit fraction; 0 disables
    bool chainFilter = false;    ///< enable seed chaining (Fig. 2 step 2)
    int maxChains = 4;           ///< chains kept when chaining is on
    int hopLimit = graph::kDefaultHopLimit; ///< HopBits height; 0 = no limit
    uint32_t maxOcc = 0;         ///< occurrence cap; 0 = uncapped
    uint64_t memBudgetMb = 0;    ///< resident-shard budget; 0 = off
};

/** The SegramConfig the map command's pipeline knobs select. */
core::SegramConfig
makeSegramConfig(const MapOptions &options)
{
    core::SegramConfig config;
    config.minseed.errorRate = options.errorRate;
    config.minseed.maxOccurrences = options.maxOcc;
    config.bitalign.windowEditCap =
        std::max(32, static_cast<int>(config.bitalign.windowLen *
                                      options.errorRate * 3));
    config.earlyExitFraction = options.earlyExit;
    config.tryReverseComplement = true;
    config.maxRegions = options.maxRegions;
    config.enableChainFilter = options.chainFilter;
    config.maxChains = options.maxChains;
    config.hopLimit = options.hopLimit;
    return config;
}

/**
 * Builds one of the CPU baseline mappers ("graphaligner", "vg") over a
 * pre-processed reference, lifted to multi-chromosome references via
 * MultiChromosomeEngine, so the accuracy harness can compare them with
 * the SeGraM pipeline on identical inputs. (The segram engine itself
 * does not come through here: cmdMap drives it with the work-stealing
 * ShardedBatchMapper, which is not a per-read MappingEngine.)
 */
std::unique_ptr<core::MappingEngine>
makeEngine(const core::PreprocessedReference &reference,
           const MapOptions &options)
{
    const std::string &engine_name = options.engine;
    const double error_rate = options.errorRate;
    SEGRAM_CHECK(engine_name == "graphaligner" || engine_name == "vg",
                 "--engine must be segram, graphaligner or vg, got '" +
                     engine_name + "'");
    baseline::BaselineConfig config;
    config.errorRate = error_rate;
    std::vector<core::MultiChromosomeEngine::Entry> entries;
    for (const auto &chromosome : reference.chromosomes()) {
        std::unique_ptr<core::MappingEngine> engine;
        if (engine_name == "graphaligner")
            engine = std::make_unique<baseline::GraphAlignerLike>(
                chromosome.graph, chromosome.index, config);
        else
            engine = std::make_unique<baseline::VgLike>(
                chromosome.graph, chromosome.index, config);
        entries.push_back({chromosome.name, std::move(engine)});
    }
    // Real GraphAligner/vg map both strands; the RC retry keeps the
    // accuracy comparison honest on two-strand read sets.
    return std::make_unique<core::RcRetryEngine>(
        std::make_unique<core::MultiChromosomeEngine>(
            std::move(entries), engine_name == "graphaligner"
                                    ? "graphaligner-like"
                                    : "vg-like"));
}

int
cmdMap(const MapOptions &options)
{
    // Phase 1 — pre-processing: mmap the pack, or rebuild from files.
    // Timed separately from mapping so the build-once/map-forever
    // split (and the win of packs) is visible in the report.
    const auto preprocess_start = std::chrono::steady_clock::now();
    const bool from_pack = !options.packPath.empty();
    const bool from_gfa = !options.gfaPath.empty();
    // Under a memory budget the pack is opened cold (no whole-file
    // prefetch, sections dropped after checksumming), so the resident
    // set starts near zero and the budget governs it from the first
    // batch on.
    io::PackLoadOptions load_options;
    load_options.coldLoad = options.memBudgetMb > 0;
    const core::PreprocessedReference reference =
        from_pack
            ? core::PreprocessedReference::load(options.packPath,
                                                load_options)
            : (from_gfa
                   ? buildReferenceGfa(options.gfaPath,
                                       options.bucketBits,
                                       options.discardTop)
                   : buildReference(options.fastaPath, options.vcfPath,
                                    options.bucketBits,
                                    options.discardTop));
    const double preprocess_sec = secondsSince(preprocess_start);

    // Per-chromosome PAF target metadata: concatenated-graph
    // coordinates by default, reference-path coordinates under
    // --path-coords (projected via the refPos/isAlt node metadata).
    struct TargetInfo
    {
        uint64_t len = 0;
        const graph::GenomeGraph *graph = nullptr;
    };
    std::unordered_map<std::string, TargetInfo> targets;
    for (const auto &chromosome : reference.chromosomes()) {
        targets[chromosome.name] = {options.pathCoords
                                        ? chromosome.graph.pathLength()
                                        : chromosome.graph.totalSeqLen(),
                                    &chromosome.graph};
    }
    // The segram engine maps through the work-stealing (read-chunk x
    // shard) driver — bit-identical output to the read-major path, but
    // shard-skew tolerant and memory-budget capable. The baselines map
    // per read through BatchMapper as before.
    std::unique_ptr<core::ShardedBatchMapper> sharded;
    std::unique_ptr<core::MappingEngine> engine;
    std::unique_ptr<core::BatchMapper> batch_mapper;
    if (options.engine == "segram") {
        core::ShardedBatchConfig sharded_config;
        sharded_config.threads = options.threads;
        sharded_config.memBudgetBytes =
            options.memBudgetMb * 1024 * 1024;
        sharded = std::make_unique<core::ShardedBatchMapper>(
            reference, makeSegramConfig(options), sharded_config);
    } else {
        engine = makeEngine(reference, options);
        core::BatchConfig batch_config;
        batch_config.threads = options.threads;
        batch_mapper =
            std::make_unique<core::BatchMapper>(*engine, batch_config);
    }
    const std::string_view engine_name = sharded != nullptr
                                             ? sharded->engineName()
                                             : engine->engineName();
    const int threads = sharded != nullptr ? sharded->threads()
                                           : batch_mapper->threads();

    // Stream reads -> batches -> worker pool -> buffered PAF, never
    // holding more than one batch in memory.
    io::FastxReader reader(options.readsPath);
    io::PafWriter paf(std::cout);
    core::PipelineStats stats;
    uint64_t total_reads = 0;
    uint64_t total_bases = 0;
    uint64_t mapped = 0;
    std::vector<io::FastxRecord> batch;
    std::vector<std::string_view> seqs;
    const auto start_time = std::chrono::steady_clock::now();
    // The whole output loop runs under an IoError guard: a reader that
    // goes away (`segram map | head`) is a graceful stop, while a
    // stream that fails for real (ENOSPC, EIO) must abort loudly —
    // silently truncated mappings look complete and are worse than no
    // output at all.
    try {
    while (true) {
        batch.clear();
        if (reader.nextBatch(batch, options.batchSize) == 0)
            break;
        seqs.clear();
        for (const auto &record : batch)
            seqs.push_back(record.seq);
        const auto results =
            sharded != nullptr
                ? sharded->mapBatch(
                      std::span<const std::string_view>(seqs), &stats)
                : batch_mapper->mapBatch(
                      std::span<const std::string_view>(seqs), &stats);
        for (size_t i = 0; i < results.size(); ++i) {
            total_bases += batch[i].seq.size();
            const auto &result = results[i];
            if (!result.mapped)
                continue;
            ++mapped;
            const TargetInfo &target = targets[result.chromosome];
            io::PafRecord record = io::makePafRecord(
                batch[i].name, batch[i].seq.size(),
                result.reverseComplemented ? '-' : '+',
                result.chromosome, target.len, result.linearStart,
                result.cigar);
            if (options.pathCoords) {
                // Project both alignment endpoints onto the reference
                // path (ALT bases consume graph but no path, so the
                // end must be projected too, not added). The end is
                // clamped into [targetStart, pathLength]: start +
                // refLength can land inside an ALT node the alignment
                // hopped over, whose divergence point sits behind the
                // start — an unclamped projection would emit an
                // inverted interval our own PAF parser rejects.
                const uint64_t ref_span = result.cigar.refLength();
                record.targetStart =
                    target.graph->pathProject(result.linearStart);
                record.targetEnd =
                    ref_span == 0
                        ? record.targetStart
                        : std::clamp(target.graph->pathProject(
                                         result.linearStart + ref_span -
                                         1) +
                                         1,
                                     record.targetStart, target.len);
            }
            paf.write(record);
        }
        total_reads += batch.size();
    }
    paf.flush();
    } catch (const IoError &error) {
        if (error.brokenPipe()) {
            // The consumer closed its end (head, a dying pager):
            // everyday shell usage, not a failure.
            std::fprintf(stderr,
                         "[segram] output pipe closed by the reader "
                         "after %llu records; stopping\n",
                         static_cast<unsigned long long>(
                             paf.recordsWritten()));
            return 0;
        }
        throw; // ENOSPC/EIO/...: main reports it and exits nonzero
    }
    const double wall = secondsSince(start_time);

    std::fprintf(stderr,
                 "[segram] %.*s: mapped %llu/%llu reads (%llu regions "
                 "aligned, %llu seeds fetched)\n",
                 static_cast<int>(engine_name.size()),
                 engine_name.data(),
                 static_cast<unsigned long long>(mapped),
                 static_cast<unsigned long long>(total_reads),
                 static_cast<unsigned long long>(stats.regionsAligned),
                 static_cast<unsigned long long>(
                     stats.seeding.seedsFetched));
    std::fprintf(
        stderr,
        "[segram] pre-processing %.3f s (%s), mapping %.2f s "
        "(%d thread%s): %.1f reads/s, %.0f bases/s\n",
        preprocess_sec,
        from_pack ? "mmap-loaded pack"
                  : (from_gfa ? "imported from GFA"
                              : "built from FASTA+VCF"),
        wall, threads, threads == 1 ? "" : "s",
        static_cast<double>(total_reads) / wall,
        static_cast<double>(total_bases) / wall);
    if (sharded != nullptr && options.memBudgetMb > 0) {
        const auto residency = sharded->residencyStats();
        std::fprintf(
            stderr,
            "[segram] mem budget %llu MiB: %llu shard acquisitions, "
            "%llu faults, %llu evictions, peak resident %.2f MiB\n",
            static_cast<unsigned long long>(options.memBudgetMb),
            static_cast<unsigned long long>(residency.acquisitions),
            static_cast<unsigned long long>(residency.faults),
            static_cast<unsigned long long>(residency.evictions),
            static_cast<double>(residency.peakResidentBytes) /
                (1024.0 * 1024.0));
    }
    if (options.printStats) {
        // Stage seconds are summed across worker threads (aggregate
        // stage work), so their total can exceed the wall time above.
        const core::StageTimings &timings = stats.timings;
        const double stage_total = timings.seedingSec +
                                   timings.linearizeSec +
                                   timings.alignSec;
        const auto pct = [stage_total](double sec) {
            return stage_total > 0.0 ? 100.0 * sec / stage_total : 0.0;
        };
        std::fprintf(
            stderr,
            "[segram] stage breakdown (summed over %d thread%s): "
            "seeding %.3f s (%.1f%%), linearization %.3f s (%.1f%%), "
            "alignment %.3f s (%.1f%%)\n",
            threads, threads == 1 ? "" : "s", timings.seedingSec,
            pct(timings.seedingSec), timings.linearizeSec,
            pct(timings.linearizeSec), timings.alignSec,
            pct(timings.alignSec));
        // Candidate work per read, both strands: how many loci seeding
        // found and how many regions the aligner actually ran on.
        const auto perRead = [total_reads](uint64_t count) {
            return total_reads > 0 ? static_cast<double>(count) /
                                         static_cast<double>(total_reads)
                                   : 0.0;
        };
        std::fprintf(stderr,
                     "[segram] candidates per read: %.2f loci, %.2f "
                     "regions aligned\n",
                     perRead(stats.seeding.lociEmitted),
                     perRead(stats.regionsAligned));
        // Lane-occupancy gauge of the batched alignment path: how full
        // the SIMD lanes ran, and how much work fell back per-window.
        const uint64_t windows =
            stats.batchedWindows + stats.scalarWindows;
        const double occupancy =
            stats.batchLaunches > 0
                ? static_cast<double>(stats.batchedWindows) /
                      static_cast<double>(stats.batchLaunches)
                : 0.0;
        std::fprintf(
            stderr,
            "[segram] lane batching: %.2f/%d windows per launch, "
            "%.1f%% of %llu windows batched (%llu per-window)\n",
            occupancy, bitops::kBatchLanes,
            windows > 0 ? 100.0 *
                              static_cast<double>(stats.batchedWindows) /
                              static_cast<double>(windows)
                        : 0.0,
            static_cast<unsigned long long>(windows),
            static_cast<unsigned long long>(stats.scalarWindows));
        std::fprintf(stderr, "[segram] kernel backend: %s\n",
                     bitops::activeBackendName());
    }
    return mapped == 0 && total_reads > 0 ? 1 : 0;
}

int
cmdSimulate(const std::string &prefix, uint64_t genome_len,
            uint32_t num_reads, uint32_t read_len, double error_rate,
            uint32_t num_chromosomes, double repeat_fraction,
            double tandem_fraction)
{
    constexpr uint64_t kSeed = 1234;
    sim::RepeatReport repeats;
    std::vector<sim::ChromosomeDataset> dataset;
    if (num_chromosomes == 1) {
        // Single-chromosome path: the exact RNG call sequence of the
        // original generator (genome -> variants -> donor), so the
        // committed golden outputs keyed to seed 1234 stay valid.
        Rng rng(kSeed);
        sim::GenomeConfig genome_config;
        genome_config.length = genome_len;
        genome_config.repeatFraction = repeat_fraction;
        genome_config.tandemFraction = tandem_fraction;
        sim::ChromosomeDataset entry;
        entry.name = "chr1";
        entry.reference =
            sim::simulateGenome(genome_config, rng, &repeats);
        entry.variants = sim::simulateVariants(
            entry.reference, sim::VariantConfig{}, rng);
        entry.graph =
            graph::buildGraph(entry.reference, entry.variants);
        entry.donor = sim::DonorGenome(entry.reference, entry.variants,
                                       entry.graph, 0.5, rng);
        dataset.push_back(std::move(entry));
    } else {
        sim::MultiDatasetConfig config;
        config.genome.numChromosomes = num_chromosomes;
        config.genome.totalLength = genome_len;
        config.genome.repeats.repeatFraction = repeat_fraction;
        config.genome.repeats.tandemFraction = tandem_fraction;
        config.seed = kSeed;
        dataset = sim::makeMultiDataset(config, &repeats);
    }

    std::vector<io::FastaRecord> fasta;
    uint64_t total_bases = 0;
    for (const auto &entry : dataset) {
        fasta.push_back({entry.name, entry.reference});
        total_bases += entry.reference.size();
    }
    io::writeFastaFile(prefix + ".fa", fasta);
    std::vector<io::VcfRecord> vcf;
    for (const auto &entry : dataset) {
        for (const auto &variant : entry.variants) {
            if (variant.pos == 0)
                continue; // indels at position 0 cannot be VCF-padded
            vcf.push_back(
                graph::toVcfRecord(variant, entry.name,
                                   entry.reference));
        }
    }
    io::writeVcfFile(prefix + ".vcf", vcf);

    Rng rng(kSeed + 1);
    sim::ReadSimConfig read_config{
        read_len, num_reads,
        read_len >= 1000 ? sim::ErrorProfile::pacbio(error_rate)
                         : sim::ErrorProfile::illumina(error_rate)};
    // A quarter of the reads come from the minus strand, so mapping
    // them end to end exercises every engine's RC path and the truth
    // sidecar's strand column.
    read_config.revCompProbability = 0.25;
    const std::string profile = sim::profileLabel(read_config.errors);

    // Reads per chromosome proportional to length, chr1 (the largest)
    // absorbing the rounding remainder, so coverage is uniform across
    // the skewed chromosomes and the truth row count is exact.
    std::vector<uint32_t> counts(dataset.size());
    uint32_t assigned = 0;
    for (size_t c = 1; c < dataset.size(); ++c) {
        counts[c] = static_cast<uint32_t>(
            static_cast<uint64_t>(num_reads) *
            dataset[c].reference.size() / total_bases);
        assigned += counts[c];
    }
    counts[0] = num_reads - assigned;

    std::vector<io::FastaRecord> read_records;
    std::vector<io::FastqRecord> read_records_fq;
    std::vector<eval::TruthRecord> truth;
    size_t read_id = 0;
    for (size_t c = 0; c < dataset.size(); ++c) {
        if (counts[c] == 0)
            continue;
        sim::ReadSimConfig chromosome_reads = read_config;
        chromosome_reads.numReads = counts[c];
        const auto reads =
            sim::simulateReads(dataset[c].donor, chromosome_reads, rng);
        for (const auto &read : reads) {
            const std::string name =
                "read" + std::to_string(read_id++) + "_truth" +
                std::to_string(read.truthLinearStart);
            read_records.push_back({name, read.seq});
            // The same reads as FASTQ (constant quality) exercise the
            // FASTQ ingestion path of `segram map`.
            read_records_fq.push_back(
                {name, read.seq, std::string(read.seq.size(), 'I')});
            truth.push_back({name, dataset[c].name, read.donorStart,
                             read.truthLinearStart,
                             read.reverseComplemented ? '-' : '+',
                             static_cast<uint32_t>(read.seq.size()),
                             read.plantedErrors, profile});
        }
    }
    io::writeFastaFile(prefix + ".reads.fa", read_records);
    io::writeFastqFile(prefix + ".reads.fq", read_records_fq);
    eval::writeTruthFile(prefix + ".truth.tsv", truth);
    std::fprintf(
        stderr,
        "[segram] wrote %s.fa (%llu bp, %zu chromosome%s, "
        "%llu dispersed + %llu tandem repeat bases), %s.vcf "
        "(%zu records), %s.reads.{fa,fq} + %s.truth.tsv (%u %s reads)\n",
        prefix.c_str(), static_cast<unsigned long long>(total_bases),
        dataset.size(), dataset.size() == 1 ? "" : "s",
        static_cast<unsigned long long>(repeats.dispersedBases),
        static_cast<unsigned long long>(repeats.tandemBases),
        prefix.c_str(), vcf.size(), prefix.c_str(), prefix.c_str(),
        num_reads, profile.c_str());
    return 0;
}

/**
 * `segram eval`: joins each PAF file against the simulate truth
 * sidecar. Machine-readable TSV rows go to stdout; the human summary
 * goes to stderr. Exit 1 when any mapper placed zero reads correctly
 * (an eval of all-wrong mappings is almost certainly a mixed-up file
 * pair).
 */
int
cmdEval(const std::string &truth_path,
        const std::vector<std::string> &paf_args, uint64_t threshold)
{
    eval::EvalConfig config;
    config.distanceThreshold = threshold;
    const eval::AccuracyEvaluator evaluator(
        eval::readTruthFile(truth_path), config);
    SEGRAM_CHECK(evaluator.numTruthReads() > 0,
                 "truth file has no reads: " + truth_path);

    std::string tsv =
        "#mapper\tprofile\ttruth_reads\tmapped\tcorrect\t"
        "sensitivity\tprecision\n";
    bool every_mapper_placed_some = true;
    for (const auto &arg : paf_args) {
        // "name=path" labels the mapper; a bare path is its own
        // label. A '=' after a '/' belongs to the path (e.g.
        // /data/run=3/out.paf), not to a label.
        std::string name = arg;
        std::string path = arg;
        const size_t eq = arg.find('=');
        if (eq != std::string::npos && eq > 0 &&
            arg.find('/') > eq) {
            name = arg.substr(0, eq);
            path = arg.substr(eq + 1);
        }
        const auto records = io::readPafFile(path);
        const auto report = evaluator.evaluate(name, records);
        eval::appendReportTsv(tsv, report);
        const std::string text = eval::formatReport(report);
        std::fprintf(stderr, "%s", text.c_str());
        if (report.overall.correctReads == 0) {
            std::fprintf(stderr,
                         "[segram] warning: %s placed zero reads "
                         "correctly (mixed-up truth/PAF pair?)\n",
                         name.c_str());
            every_mapper_placed_some = false;
        }
    }
    std::fwrite(tsv.data(), 1, tsv.size(), stdout);
    return every_mapper_placed_some ? 0 : 1;
}

/** Options of the serve command. */
struct ServeOptions
{
    std::string socketPath;  ///< unix-domain listener; empty = none
    std::string listenSpec;  ///< HOST:PORT TCP listener; empty = none
    int threads = 1;
    size_t queueCapacity = 64;
    uint64_t batchLimit = 65536;
    uint64_t memBudgetMb = 0;
    double errorRate = 0.10;
    /** Tenants: (reference name, pack path) pairs. */
    std::vector<std::pair<std::string, std::string>> packs;
};

/** Write end of the shutdown self-pipe (signal handler target). */
int g_shutdown_fd = -1;

extern "C" void
onShutdownSignal(int)
{
    // write() is async-signal-safe; everything else happens on the
    // main thread once the pipe wakes it.
    const char byte = 1;
    [[maybe_unused]] const ssize_t written =
        ::write(g_shutdown_fd, &byte, 1);
}

/**
 * `segram serve`: load every pack once, serve mapping requests until
 * SIGTERM/SIGINT, then drain and exit 0. The SegramConfig is built
 * through the same makeSegramConfig defaults as `segram map`, so the
 * daemon's PAF is byte-identical to the offline command on the same
 * pack and reads.
 */
int
cmdServe(const ServeOptions &options)
{
    // Same knob derivation as offline `segram map <pack> <reads> [E]`.
    MapOptions map_defaults;
    map_defaults.errorRate = options.errorRate;
    serve::ServiceConfig service_config;
    service_config.segram = makeSegramConfig(map_defaults);
    service_config.batch.threads = options.threads;
    service_config.batch.memBudgetBytes =
        options.memBudgetMb * 1024 * 1024;
    service_config.load.coldLoad = options.memBudgetMb > 0;

    serve::ServiceRegistry registry;
    for (const auto &[name, pack_path] : options.packs) {
        const auto load_start = std::chrono::steady_clock::now();
        auto service = std::make_shared<serve::MappingService>(
            name, pack_path, service_config);
        const auto snap = service->snapshot();
        std::fprintf(stderr,
                     "[segram] serving %s from %s: %zu shard%s, "
                     "%d thread%s (loaded in %.2f s)\n",
                     name.c_str(), pack_path.c_str(), snap.shards,
                     snap.shards == 1 ? "" : "s", snap.threads,
                     snap.threads == 1 ? "" : "s",
                     secondsSince(load_start));
        registry.add(std::move(service));
    }

    serve::ServerConfig server_config;
    server_config.unixPath = options.socketPath;
    if (!options.listenSpec.empty()) {
        const auto [host, port] = serve::parseHostPort(
            options.listenSpec);
        server_config.tcpHost = host;
        server_config.tcpPort = port;
    }
    server_config.queueCapacity = options.queueCapacity;
    server_config.maxReadsPerRequest = options.batchLimit;
    serve::Server server(registry, server_config);
    server.start();
    if (!options.socketPath.empty())
        std::fprintf(stderr, "[segram] listening on unix socket %s\n",
                     options.socketPath.c_str());
    if (!options.listenSpec.empty())
        std::fprintf(stderr, "[segram] listening on tcp %s:%d\n",
                     server_config.tcpHost.c_str(),
                     server.boundTcpPort());

    // Shutdown self-pipe: the handler only writes a byte; the main
    // thread does the actual (non-async-signal-safe) teardown.
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0)
        throw IoError("pipe2() failed", errno);
    g_shutdown_fd = pipe_fds[1];
    std::signal(SIGTERM, onShutdownSignal);
    std::signal(SIGINT, onShutdownSignal);

    char byte = 0;
    while (::read(pipe_fds[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::fprintf(stderr,
                 "[segram] shutting down: draining in-flight "
                 "requests\n");
    server.stop();
    const std::string stats = server.statsText();
    std::fprintf(stderr, "%s", stats.c_str());
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    g_shutdown_fd = -1;
    return 0;
}

/** Options of the client command. */
struct ClientOptions
{
    std::string socketPath;  ///< unix-domain daemon address
    std::string connectSpec; ///< HOST:PORT daemon address
    size_t batchSize = 256;
    /** Subcommand: ping | stats | reload <ref> <pack> |
     *  map <ref> <reads>. */
    std::vector<std::string> command;
};

serve::ServeClient
connectClient(const ClientOptions &options)
{
    if (!options.socketPath.empty())
        return serve::ServeClient::connectUnixSocket(
            options.socketPath);
    const auto [host, port] =
        serve::parseHostPort(options.connectSpec);
    return serve::ServeClient::connectTcpSocket(host, port);
}

/**
 * Streams a reads file through the daemon in batches, printing the
 * PAF payload to stdout. `ERR BUSY` (the queue-full backpressure
 * signal) is retried with exponential backoff; every other error
 * aborts — retrying a NOREF forever would just hide a typo.
 */
int
cmdClientMap(serve::ServeClient &client, const std::string &reference,
             const std::string &reads_path, size_t batch_size)
{
    io::FastxReader reader(reads_path);
    std::vector<io::FastxRecord> batch;
    std::vector<serve::ReadRecord> reads;
    uint64_t total_reads = 0;
    uint64_t paf_lines = 0;
    uint64_t busy_retries = 0;
    try {
        while (true) {
            batch.clear();
            if (reader.nextBatch(batch, batch_size) == 0)
                break;
            reads.clear();
            for (auto &record : batch)
                reads.push_back({std::move(record.name),
                                 std::move(record.seq)});
            serve::Reply reply;
            for (uint64_t attempt = 0;; ++attempt) {
                reply = client.mapReads(reference, reads);
                if (reply.ok)
                    break;
                SEGRAM_CHECK(reply.code == serve::kErrBusy,
                             "server error " + reply.code + ": " +
                                 reply.message);
                SEGRAM_CHECK(attempt < 64,
                             "server still busy after " +
                                 std::to_string(attempt) +
                                 " retries: " + reply.message);
                ++busy_retries;
                // Exponential backoff, capped at ~100 ms per wait.
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    std::min<uint64_t>(100, 1ull << std::min<uint64_t>(
                                                attempt, 7))));
            }
            errno = 0;
            if (std::fwrite(reply.payload.data(), 1,
                            reply.payload.size(),
                            stdout) != reply.payload.size())
                throw IoError("short write to stdout", errno);
            paf_lines += reply.lines;
            total_reads += reads.size();
        }
        errno = 0;
        if (std::fflush(stdout) != 0)
            throw IoError("stdout flush failed", errno);
    } catch (const IoError &error) {
        if (error.brokenPipe()) {
            std::fprintf(stderr,
                         "[segram] output pipe closed by the reader; "
                         "stopping\n");
            return 0;
        }
        throw;
    }
    std::fprintf(stderr,
                 "[segram] client: %llu reads -> %llu PAF records "
                 "(%llu busy retries)\n",
                 static_cast<unsigned long long>(total_reads),
                 static_cast<unsigned long long>(paf_lines),
                 static_cast<unsigned long long>(busy_retries));
    return 0;
}

/** `segram client`: one-shot daemon interactions for scripts and CI. */
int
cmdClient(const ClientOptions &options)
{
    const auto &command = options.command;
    serve::ServeClient client = connectClient(options);
    if (command[0] == "ping") {
        const serve::Reply reply = client.ping();
        SEGRAM_CHECK(reply.ok, "ping failed: " + reply.code + " " +
                                   reply.message);
        std::printf("PONG\n");
        return 0;
    }
    if (command[0] == "stats") {
        const serve::Reply reply = client.stats();
        SEGRAM_CHECK(reply.ok, "stats failed: " + reply.code + " " +
                                   reply.message);
        std::fwrite(reply.payload.data(), 1, reply.payload.size(),
                    stdout);
        return 0;
    }
    if (command[0] == "reload") {
        SEGRAM_CHECK(command.size() >= 3,
                     "client reload takes <reference> <pack.segram>");
        const serve::Reply reply = client.reload(command[1],
                                                 command[2]);
        if (!reply.ok) {
            std::fprintf(stderr, "[segram] reload failed: %s %s\n",
                         reply.code.c_str(), reply.message.c_str());
            return 1;
        }
        std::fprintf(stderr, "[segram] reloaded %s from %s\n",
                     command[1].c_str(), command[2].c_str());
        return 0;
    }
    if (command[0] == "map") {
        SEGRAM_CHECK(command.size() >= 3,
                     "client map takes <reference> <reads.fa|fq>");
        return cmdClientMap(client, command[1], command[2],
                            options.batchSize);
    }
    throw InputError("unknown client subcommand '" + command[0] +
                     "' (expected ping, stats, reload or map)");
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  segram construct <ref.fa> <vars.vcf> <out.gfa>\n"
        "  segram index [--bucket-bits N] [--discard-top F] [--stats] "
        "<ref.fa> <vars.vcf> <out.segram>\n"
        "  segram index [--bucket-bits N] [--discard-top F] [--stats] "
        "<graph.gfa> <out.segram>\n"
        "  segram map [--threads N] [--batch N] [--bucket-bits N] "
        "[--discard-top F] [--engine segram|graphaligner|vg] [--stats]\n"
        "             [--max-regions N] [--early-exit F] "
        "[--chain-filter] [--max-chains N] [--hop-limit N] "
        "[--max-occ N] [--path-coords]\n"
        "             <ref.fa> <vars.vcf> <reads.fa|fq> [error_rate]\n"
        "  segram map [--threads N] [--batch N] [--engine E] "
        "[--mem-budget MiB] [...] "
        "(<graph.gfa> | <pack.segram>) <reads.fa|fq> [error_rate]\n"
        "  segram simulate [--chromosomes N] [--repeat-fraction F] "
        "[--tandem-fraction F]\n"
        "                  <prefix> <genome_len> <num_reads> "
        "<read_len> <error_rate>\n"
        "  segram eval [--threshold N] <truth.tsv> "
        "<[name=]out.paf>...\n"
        "  segram serve [--socket PATH] [--listen HOST:PORT] "
        "[--threads N] [--queue N]\n"
        "               [--batch-limit N] [--mem-budget MiB] "
        "[--error-rate F] <name=pack.segram>...\n"
        "  segram client (--socket PATH | --connect HOST:PORT) "
        "(ping | stats | reload <ref> <pack.segram> |\n"
        "               map [--batch N] <ref> <reads.fa|fq>)\n");
}

/** Parsed command line: flags extracted, positionals in order. */
struct Args
{
    std::vector<std::string> positional;
    int threads = 1;
    size_t batchSize = 256;
    int bucketBits = 16;
    bool stats = false;
    std::string engine = "segram";
    uint64_t threshold = 100;
    bool pathCoords = false;
    // SeGraM pipeline knobs (map only, --engine segram only).
    uint64_t maxRegions = 0;
    double earlyExit = 1.5;
    bool chainFilter = false;
    int maxChains = 4;
    int hopLimit = graph::kDefaultHopLimit;
    uint64_t maxOcc = 0;
    uint64_t memBudgetMb = 0;
    // Index build knob (index only).
    double discardTop = index::IndexConfig().discardTopFraction;
    // Serve/client knobs.
    std::string socketPath;
    std::string listenSpec;
    std::string connectSpec;
    uint64_t queueCapacity = 64;
    uint64_t batchLimit = 65536;
    double errorRate = 0.10;
    // Simulate knobs (simulate only).
    uint32_t chromosomes = 1;
    double repeatFraction = sim::GenomeConfig().repeatFraction;
    double tandemFraction = sim::GenomeConfig().tandemFraction;

    /** Names of the flags that appeared on the command line. */
    std::vector<std::string> seenFlags;

    bool
    seen(std::string_view flag) const
    {
        for (const auto &name : seenFlags)
            if (name == flag)
                return true;
        return false;
    }

    /**
     * Rejects flags that the dispatched subcommand does not consume —
     * a silently ignored flag fakes behaviour the run never had.
     * @p allowed lists the flags this subcommand understands.
     */
    void
    requireFlagsApplyTo(
        const char *command,
        std::initializer_list<std::string_view> allowed) const
    {
        for (const auto &name : seenFlags) {
            bool ok = false;
            for (const auto allow : allowed)
                ok = ok || name == allow;
            SEGRAM_CHECK(ok, name + " does not apply to `" + command +
                                 "`");
        }
    }
};

/** Strict integer flag parsing: rejects "eight", "4x", "". */
long long
parseIntFlag(const char *flag, const char *text)
{
    char *end = nullptr;
    const long long value = std::strtoll(text, &end, 10);
    SEGRAM_CHECK(end != text && *end == '\0',
                 std::string(flag) + " needs an integer, got '" + text +
                     "'");
    return value;
}

/** Strict double parsing for positional arguments. */
double
parseDoubleArg(const char *what, const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    SEGRAM_CHECK(end != text.c_str() && *end == '\0',
                 std::string(what) + " needs a number, got '" + text +
                     "'");
    return value;
}

/** Strict double flag parsing: rejects "fast", "1.5x", "". */
double
parseDoubleFlag(const char *flag, const char *text)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    SEGRAM_CHECK(end != text && *end == '\0',
                 std::string(flag) + " needs a number, got '" + text +
                     "'");
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto next_value = [&](const char *flag) {
            SEGRAM_CHECK(i + 1 < argc,
                         std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (arg == "--threads" || arg == "-t") {
            const long long value =
                parseIntFlag("--threads", next_value("--threads"));
            // 0 used to mean "all cores" and was silently surprising
            // on shared machines; an explicit count is now required.
            SEGRAM_CHECK(value >= 1 && value <= 4096,
                         "--threads must be in [1, 4096]");
            args.threads = static_cast<int>(value);
            args.seenFlags.push_back("--threads");
        } else if (arg == "--batch") {
            const long long value =
                parseIntFlag("--batch", next_value("--batch"));
            SEGRAM_CHECK(value >= 1, "--batch must be >= 1");
            args.batchSize = static_cast<size_t>(value);
            args.seenFlags.push_back("--batch");
        } else if (arg == "--bucket-bits") {
            const long long value = parseIntFlag(
                "--bucket-bits", next_value("--bucket-bits"));
            // Same domain MinimizerIndex::build accepts; the paper
            // sweeps up to 2^24 (Fig. 7).
            SEGRAM_CHECK(value >= 1 && value <= 32,
                         "--bucket-bits must be in [1, 32]");
            args.bucketBits = static_cast<int>(value);
            args.seenFlags.push_back("--bucket-bits");
        } else if (arg == "--engine") {
            args.engine = next_value("--engine");
            SEGRAM_CHECK(args.engine == "segram" ||
                             args.engine == "graphaligner" ||
                             args.engine == "vg",
                         "--engine must be segram, graphaligner or "
                         "vg, got '" +
                             args.engine + "'");
            args.seenFlags.push_back("--engine");
        } else if (arg == "--threshold") {
            const long long value =
                parseIntFlag("--threshold", next_value("--threshold"));
            SEGRAM_CHECK(value >= 0,
                         "--threshold must be >= 0 characters");
            args.threshold = static_cast<uint64_t>(value);
            args.seenFlags.push_back("--threshold");
        } else if (arg == "--max-regions") {
            const long long value = parseIntFlag(
                "--max-regions", next_value("--max-regions"));
            // 0 aligns every candidate (the hardware behaviour).
            SEGRAM_CHECK(value >= 0 && value <= 0xFFFFFFFFll,
                         "--max-regions must be in [0, 2^32)");
            args.maxRegions = static_cast<uint64_t>(value);
            args.seenFlags.push_back("--max-regions");
        } else if (arg == "--early-exit") {
            const double value = parseDoubleFlag(
                "--early-exit", next_value("--early-exit"));
            SEGRAM_CHECK(value >= 0.0 && value <= 100.0,
                         "--early-exit must be in [0, 100] "
                         "(0 disables early exit)");
            args.earlyExit = value;
            args.seenFlags.push_back("--early-exit");
        } else if (arg == "--chain-filter") {
            args.chainFilter = true;
            args.seenFlags.push_back("--chain-filter");
        } else if (arg == "--max-chains") {
            const long long value = parseIntFlag(
                "--max-chains", next_value("--max-chains"));
            SEGRAM_CHECK(value >= 1 && value <= 1'000'000,
                         "--max-chains must be in [1, 1000000]");
            args.maxChains = static_cast<int>(value);
            args.seenFlags.push_back("--max-chains");
        } else if (arg == "--hop-limit") {
            const long long value = parseIntFlag(
                "--hop-limit", next_value("--hop-limit"));
            // The HopBits height; 0 selects the software-exact
            // unlimited mode (graph::kUnlimitedHops).
            SEGRAM_CHECK(value >= 0 && value <= 0xFFFF,
                         "--hop-limit must be in [0, 65535] "
                         "(0 = unlimited)");
            args.hopLimit = static_cast<int>(value);
            args.seenFlags.push_back("--hop-limit");
        } else if (arg == "--max-occ") {
            const long long value =
                parseIntFlag("--max-occ", next_value("--max-occ"));
            // 0 keeps every surviving occurrence (the paper pipeline);
            // a positive cap subsamples over-full lists.
            SEGRAM_CHECK(value >= 0 && value <= 0xFFFFFFFFll,
                         "--max-occ must be in [0, 2^32) "
                         "(0 = uncapped)");
            args.maxOcc = static_cast<uint64_t>(value);
            args.seenFlags.push_back("--max-occ");
        } else if (arg == "--mem-budget") {
            const long long value = parseIntFlag(
                "--mem-budget", next_value("--mem-budget"));
            SEGRAM_CHECK(value >= 1 && value <= 1'048'576,
                         "--mem-budget must be in [1, 1048576] MiB");
            args.memBudgetMb = static_cast<uint64_t>(value);
            args.seenFlags.push_back("--mem-budget");
        } else if (arg == "--discard-top") {
            const double value = parseDoubleFlag(
                "--discard-top", next_value("--discard-top"));
            SEGRAM_CHECK(value >= 0.0 && value < 1.0,
                         "--discard-top must be in [0, 1) "
                         "(0 disables the frequency filter)");
            args.discardTop = value;
            args.seenFlags.push_back("--discard-top");
        } else if (arg == "--chromosomes") {
            const long long value = parseIntFlag(
                "--chromosomes", next_value("--chromosomes"));
            SEGRAM_CHECK(value >= 1 && value <= 4096,
                         "--chromosomes must be in [1, 4096]");
            args.chromosomes = static_cast<uint32_t>(value);
            args.seenFlags.push_back("--chromosomes");
        } else if (arg == "--repeat-fraction") {
            const double value = parseDoubleFlag(
                "--repeat-fraction", next_value("--repeat-fraction"));
            SEGRAM_CHECK(value >= 0.0 && value < 1.0,
                         "--repeat-fraction must be in [0, 1)");
            args.repeatFraction = value;
            args.seenFlags.push_back("--repeat-fraction");
        } else if (arg == "--tandem-fraction") {
            const double value = parseDoubleFlag(
                "--tandem-fraction", next_value("--tandem-fraction"));
            SEGRAM_CHECK(value >= 0.0 && value < 1.0,
                         "--tandem-fraction must be in [0, 1)");
            args.tandemFraction = value;
            args.seenFlags.push_back("--tandem-fraction");
        } else if (arg == "--socket") {
            args.socketPath = next_value("--socket");
            SEGRAM_CHECK(!args.socketPath.empty(),
                         "--socket needs a non-empty path");
            args.seenFlags.push_back("--socket");
        } else if (arg == "--listen") {
            args.listenSpec = next_value("--listen");
            args.seenFlags.push_back("--listen");
        } else if (arg == "--connect") {
            args.connectSpec = next_value("--connect");
            args.seenFlags.push_back("--connect");
        } else if (arg == "--queue") {
            const long long value =
                parseIntFlag("--queue", next_value("--queue"));
            SEGRAM_CHECK(value >= 1 && value <= 1'048'576,
                         "--queue must be in [1, 1048576]");
            args.queueCapacity = static_cast<uint64_t>(value);
            args.seenFlags.push_back("--queue");
        } else if (arg == "--batch-limit") {
            const long long value = parseIntFlag(
                "--batch-limit", next_value("--batch-limit"));
            SEGRAM_CHECK(value >= 1 && value <= 0xFFFFFFFFll,
                         "--batch-limit must be in [1, 2^32)");
            args.batchLimit = static_cast<uint64_t>(value);
            args.seenFlags.push_back("--batch-limit");
        } else if (arg == "--error-rate") {
            const double value = parseDoubleFlag(
                "--error-rate", next_value("--error-rate"));
            SEGRAM_CHECK(value >= 0.0 && value < 1.0,
                         "--error-rate must be in [0, 1)");
            args.errorRate = value;
            args.seenFlags.push_back("--error-rate");
        } else if (arg == "--path-coords") {
            args.pathCoords = true;
            args.seenFlags.push_back("--path-coords");
        } else if (arg == "--stats") {
            args.stats = true;
            args.seenFlags.push_back("--stats");
        } else {
            args.positional.emplace_back(arg);
        }
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    // A closed stdout pipe (`segram map | head`) or a vanished daemon
    // client must surface as EPIPE from write(), which the IoError
    // paths handle deliberately — not as a silent SIGPIPE kill.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        const Args args = parseArgs(argc, argv);
        const auto &pos = args.positional;
        if (pos.size() >= 4 && pos[0] == "construct") {
            args.requireFlagsApplyTo("construct", {});
            return cmdConstruct(pos[1], pos[2], pos[3]);
        }
        if (pos.size() >= 3 && pos[0] == "index") {
            args.requireFlagsApplyTo(
                "index", {"--bucket-bits", "--discard-top", "--stats"});
            // Graph source by content: an imported GFA replaces the
            // FASTA+VCF pair (and needs no VCF positional). Exactly
            // two positionals then — with a stray third one, pos[2]
            // would silently become the pack output and overwrite
            // whatever file the user actually passed there.
            if (io::isGfaFile(pos[1])) {
                SEGRAM_CHECK(pos.size() == 3,
                             "index from a GFA takes exactly "
                             "<graph.gfa> <out.segram>");
                return cmdIndex(pos[1], "", pos[2], args.bucketBits,
                                args.discardTop, args.stats);
            }
            SEGRAM_CHECK(pos.size() >= 4,
                         "index needs <ref.fa> <vars.vcf> <out.segram> "
                         "(or <graph.gfa> <out.segram>)");
            return cmdIndex(pos[1], pos[2], pos[3], args.bucketBits,
                            args.discardTop, args.stats);
        }
        if (pos.size() >= 3 && pos[0] == "map") {
            args.requireFlagsApplyTo(
                "map", {"--threads", "--batch", "--bucket-bits",
                        "--discard-top", "--engine", "--stats",
                        "--max-regions", "--early-exit",
                        "--chain-filter", "--max-chains", "--hop-limit",
                        "--max-occ", "--mem-budget", "--path-coords"});
            // The pipeline knobs configure the SeGraM pipeline only,
            // and --stats reports timings only SegramMapper collects;
            // silently ignoring them under a baseline engine would
            // fake tuned (or measured) runs.
            if (args.engine != "segram") {
                for (const char *knob :
                     {"--max-regions", "--early-exit", "--chain-filter",
                      "--max-chains", "--hop-limit", "--max-occ",
                      "--mem-budget", "--stats"}) {
                    SEGRAM_CHECK(!args.seen(knob),
                                 std::string(knob) +
                                     " only applies to --engine segram");
                }
            }
            MapOptions options;
            // Three input modes, detected by content (magic/sniff),
            // not by file extension: a `.segram` pack or an imported
            // GFA graph replaces the FASTA+VCF pair.
            size_t reads_pos;
            if (io::isPackFile(pos[1])) {
                // The bucket count was baked in at index time; a
                // silently ignored sweep flag would fake Fig. 7 runs.
                SEGRAM_CHECK(!args.seen("--bucket-bits"),
                             "--bucket-bits cannot be combined with a "
                             ".segram pack; pass it to `segram index`");
                SEGRAM_CHECK(!args.seen("--discard-top"),
                             "--discard-top cannot be combined with a "
                             ".segram pack; pass it to `segram index`");
                options.packPath = pos[1];
                reads_pos = 2;
            } else if (io::isGfaFile(pos[1])) {
                options.gfaPath = pos[1];
                reads_pos = 2;
            } else {
                SEGRAM_CHECK(pos.size() >= 4,
                             "map needs <ref.fa> <vars.vcf> <reads> "
                             "(or <graph.gfa>/<pack.segram> <reads>)");
                options.fastaPath = pos[1];
                options.vcfPath = pos[2];
                reads_pos = 3;
            }
            // Only a mapped pack has droppable shards; the budget on
            // in-memory tables would silently do nothing.
            SEGRAM_CHECK(!args.seen("--mem-budget") ||
                             !options.packPath.empty(),
                         "--mem-budget requires a .segram pack input "
                         "(in-memory tables cannot be dropped)");
            options.readsPath = pos[reads_pos];
            if (pos.size() >= reads_pos + 2) {
                options.errorRate = parseDoubleArg(
                    "error_rate", pos[reads_pos + 1]);
                SEGRAM_CHECK(options.errorRate >= 0.0 &&
                                 options.errorRate < 1.0,
                             "error_rate must be in [0, 1)");
            }
            options.engine = args.engine;
            options.threads = args.threads;
            options.batchSize = args.batchSize;
            options.bucketBits = args.bucketBits;
            options.discardTop = args.discardTop;
            options.printStats = args.stats;
            options.pathCoords = args.pathCoords;
            options.maxRegions =
                static_cast<uint32_t>(args.maxRegions);
            options.earlyExit = args.earlyExit;
            options.chainFilter = args.chainFilter;
            options.maxChains = args.maxChains;
            options.hopLimit = args.hopLimit;
            options.maxOcc = static_cast<uint32_t>(args.maxOcc);
            options.memBudgetMb = args.memBudgetMb;
            return cmdMap(options);
        }
        if (pos.size() >= 6 && pos[0] == "simulate") {
            args.requireFlagsApplyTo("simulate",
                                     {"--chromosomes",
                                      "--repeat-fraction",
                                      "--tandem-fraction"});
            const long long genome_len =
                parseIntFlag("genome_len", pos[2].c_str());
            const long long num_reads =
                parseIntFlag("num_reads", pos[3].c_str());
            const long long read_len =
                parseIntFlag("read_len", pos[4].c_str());
            SEGRAM_CHECK(genome_len >= 1, "genome_len must be >= 1");
            // Upper bounds guard the uint32_t narrowing below — a
            // silently truncated count would be the old atoi bug in
            // new clothes.
            SEGRAM_CHECK(num_reads >= 1 && num_reads <= 0xFFFFFFFFll,
                         "num_reads must be in [1, 2^32)");
            SEGRAM_CHECK(read_len >= 1 && read_len <= 0xFFFFFFFFll,
                         "read_len must be in [1, 2^32)");
            const double error_rate =
                parseDoubleArg("error_rate", pos[5]);
            SEGRAM_CHECK(error_rate >= 0.0 && error_rate < 1.0,
                         "error_rate must be in [0, 1)");
            SEGRAM_CHECK(
                static_cast<uint64_t>(genome_len) >= args.chromosomes,
                "genome_len must cover one base per chromosome");
            return cmdSimulate(
                pos[1], static_cast<uint64_t>(genome_len),
                static_cast<uint32_t>(num_reads),
                static_cast<uint32_t>(read_len), error_rate,
                args.chromosomes, args.repeatFraction,
                args.tandemFraction);
        }
        if (pos.size() >= 3 && pos[0] == "eval") {
            args.requireFlagsApplyTo("eval", {"--threshold"});
            const std::vector<std::string> pafs(pos.begin() + 2,
                                                pos.end());
            return cmdEval(pos[1], pafs, args.threshold);
        }
        if (pos.size() >= 2 && pos[0] == "serve") {
            args.requireFlagsApplyTo(
                "serve", {"--socket", "--listen", "--threads",
                          "--queue", "--batch-limit", "--mem-budget",
                          "--error-rate"});
            SEGRAM_CHECK(!args.socketPath.empty() ||
                             !args.listenSpec.empty(),
                         "serve needs --socket PATH and/or "
                         "--listen HOST:PORT");
            ServeOptions options;
            options.socketPath = args.socketPath;
            options.listenSpec = args.listenSpec;
            options.threads = args.threads;
            options.queueCapacity =
                static_cast<size_t>(args.queueCapacity);
            options.batchLimit = args.batchLimit;
            options.memBudgetMb = args.memBudgetMb;
            options.errorRate = args.errorRate;
            for (size_t i = 1; i < pos.size(); ++i) {
                // name=pack.segram — the name is the MAP routing key,
                // so it must be explicit, not derived from the path.
                const size_t eq = pos[i].find('=');
                SEGRAM_CHECK(eq != std::string::npos && eq > 0 &&
                                 eq + 1 < pos[i].size(),
                             "serve pack arguments take the form "
                             "<name>=<pack.segram>, got '" + pos[i] +
                                 "'");
                options.packs.emplace_back(pos[i].substr(0, eq),
                                           pos[i].substr(eq + 1));
            }
            return cmdServe(options);
        }
        if (pos.size() >= 2 && pos[0] == "client") {
            args.requireFlagsApplyTo(
                "client", {"--socket", "--connect", "--batch"});
            SEGRAM_CHECK(args.socketPath.empty() !=
                             args.connectSpec.empty(),
                         "client needs exactly one of --socket PATH "
                         "or --connect HOST:PORT");
            ClientOptions options;
            options.socketPath = args.socketPath;
            options.connectSpec = args.connectSpec;
            options.batchSize = args.batchSize;
            options.command.assign(pos.begin() + 1, pos.end());
            return cmdClient(options);
        }
        usage();
        return 2;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "[segram] error: %s\n", error.what());
        return 1;
    }
}
