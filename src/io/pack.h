/**
 * @file
 * The `.segram` pack format: the pre-processed reference — per
 * chromosome, the Fig. 5 genome-graph tables (node / 2-bit character /
 * edge) and the Fig. 6 three-level minimizer hash index (bucket
 * offsets / minimizer entries / seed locations) — serialized as raw
 * little-endian tables so a mapping run can mmap them back in without
 * any deserialization pass.
 *
 * SeGraM's execution model builds these artifacts once and then keeps
 * them resident and read-only for the whole mapping run (in hardware:
 * in HBM); the pack is the on-disk embodiment of that split. Layout:
 *
 *   PackHeader            64 B: magic, version, endian tag, file size,
 *                         section/chromosome counts, record-size guards,
 *                         directory checksum
 *   PackSectionEntry[n]   32 B each: kind, owning chromosome, absolute
 *                         offset (64-byte aligned), byte count, FNV-1a
 *                         checksum of the payload
 *   payloads              each 64-byte aligned, zero-padded between
 *
 * Global sections: one ChromMeta (fixed 96 B records, one per
 * chromosome) and one Names (concatenated chromosome names). Per
 * chromosome, six table sections mirroring the paper's memory layout:
 * NodeTable, CharTable, EdgeTable (Fig. 5) and BucketTable,
 * MinimizerTable, LocationTable (Fig. 6).
 *
 * The loader (PackFile) memory-maps the file, validates magic /
 * version / checksums / section bounds / cross-table invariants, and
 * only then hands out spans — every GenomeGraph / MinimizerIndex it
 * produces borrows its tables (util::TableStorage) straight from the
 * mapping, so load time is O(validation), not O(rebuild).
 */

#ifndef SEGRAM_SRC_IO_PACK_H
#define SEGRAM_SRC_IO_PACK_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/graph/genome_graph.h"
#include "src/index/minimizer_index.h"

namespace segram::io
{

/** First eight bytes of every pack. */
inline constexpr char kPackMagic[8] = {'S', 'E', 'G', 'R',
                                       'A', 'M', 'P', 'K'};

/**
 * Bumped on every layout change. Version 2 added the global ShardTable
 * section (per-chromosome byte extents for residency control); the
 * loader still accepts version-1 packs and derives the extents from
 * the section directory instead.
 */
inline constexpr uint32_t kPackVersion = 2;

/** Oldest pack version PackFile::open still loads. */
inline constexpr uint32_t kPackMinVersion = 1;

/** Written as-is; reads back differently on a big-endian host. */
inline constexpr uint32_t kPackEndianTag = 0x01020304;

/** Alignment of every section payload. */
inline constexpr uint64_t kPackAlign = 64;

/** `chromosome` value of sections that belong to the whole file. */
inline constexpr uint32_t kPackGlobalSection = 0xffffffffu;

/** Section kinds (PackSectionEntry::kind). */
enum class PackSectionKind : uint32_t
{
    ChromMeta = 1,      ///< PackChromMeta[chromosomeCount] (global)
    Names = 2,          ///< concatenated chromosome names (global)
    NodeTable = 3,      ///< graph::NodeRecord[numNodes]      (Fig. 5)
    CharTable = 4,      ///< uint64_t[ceil(numBases/32)]      (Fig. 5)
    EdgeTable = 5,      ///< graph::NodeId[numEdges]          (Fig. 5)
    BucketTable = 6,    ///< uint32_t[2^bucketBits + 1]       (Fig. 6)
    MinimizerTable = 7, ///< index::MinimizerEntry[numMinimizers]
    LocationTable = 8,  ///< index::SeedLocation[numLocations]
    ShardTable = 9,     ///< PackShardInfo[chromosomeCount] (global, v2+)
};

/** Fixed 64-byte file header. */
struct PackHeader
{
    char magic[8];
    uint32_t version;
    uint32_t endianTag;
    uint64_t fileBytes;         ///< exact file size, trailing pad included
    uint32_t sectionCount;
    uint32_t chromosomeCount;
    uint32_t nodeRecordBytes;   ///< sizeof(graph::NodeRecord) guard
    uint32_t sectionEntryBytes; ///< sizeof(PackSectionEntry) guard
    uint64_t directoryChecksum; ///< FNV-1a of the section directory
    uint8_t reserved[16];
};

static_assert(sizeof(PackHeader) == 64 &&
              std::is_trivially_copyable_v<PackHeader>);

/** One section-directory entry. */
struct PackSectionEntry
{
    uint32_t kind;       ///< PackSectionKind
    uint32_t chromosome; ///< owner index, or kPackGlobalSection
    uint64_t offset;     ///< absolute file offset, kPackAlign-aligned
    uint64_t bytes;      ///< payload size (excluding alignment padding)
    uint64_t checksum;   ///< packChecksum() of the payload
};

static_assert(sizeof(PackSectionEntry) == 32 &&
              std::is_trivially_copyable_v<PackSectionEntry>);

/** Fixed 96-byte per-chromosome record inside the ChromMeta section. */
struct PackChromMeta
{
    uint64_t nameOffset; ///< into the Names section
    uint32_t nameLen;
    uint32_t bucketBits;
    uint64_t numNodes;
    uint64_t numEdges;
    uint64_t numBases;
    uint64_t numMinimizers;
    uint64_t numLocations;
    uint32_t sketchK;
    uint32_t sketchW;
    uint32_t freqThreshold;
    uint32_t reserved0;
    uint64_t maxMinimizersPerBucket;
    uint64_t maxLocationsPerMinimizer;
    double discardTopFraction;
};

static_assert(sizeof(PackChromMeta) == 96 &&
              std::is_trivially_copyable_v<PackChromMeta>);

/**
 * One chromosome's *shard*: the contiguous byte extent of its six
 * table sections inside the pack (the writer lays a chromosome's
 * sections out back-to-back). The extent is the unit of residency
 * control — `segram map --mem-budget` madvises whole shards in and
 * out. Fixed 32-byte record inside the v2 ShardTable section.
 */
struct PackShardInfo
{
    uint64_t byteStart;  ///< first byte of the shard (kPackAlign-aligned)
    uint64_t byteBytes;  ///< extent length, trailing padding included
    uint64_t graphBytes; ///< Node+Char+Edge payload bytes (Fig. 5)
    uint64_t indexBytes; ///< Bucket+Minimizer+Location payload (Fig. 6)

    bool operator==(const PackShardInfo &) const = default;
};

static_assert(sizeof(PackShardInfo) == 32 &&
              std::is_trivially_copyable_v<PackShardInfo>);

/** FNV-1a 64 over @p bytes (the pack's section checksum). */
uint64_t packChecksum(std::span<const std::byte> bytes);

/** One chromosome to serialize (pointees must outlive the call). */
struct PackWriteEntry
{
    std::string_view name;
    const graph::GenomeGraph *graph = nullptr;
    const index::MinimizerIndex *index = nullptr;
};

/**
 * Writes @p entries as a `.segram` pack at @p path (overwriting).
 *
 * @param version Pack version to emit: kPackVersion (default) or 1 for
 *        the legacy monolithic layout without a ShardTable (kept so
 *        backward-compatibility of the loader stays testable).
 * @throws InputError on I/O failure, null/empty entries, a graph that
 *         is not topologically sorted, or an unsupported version.
 */
void writePack(const std::string &path,
               std::span<const PackWriteEntry> entries,
               uint32_t version = kPackVersion);

/**
 * Pack-loading knobs. Validation is not one of them: every load verifies
 * each section's FNV-1a checksum and the cross-table invariants (node
 * spans inside the character and edge tables, edge targets and seed
 * locations inside the node table, topological order, CSR monotonicity)
 * before handing out any span.
 */
struct PackLoadOptions
{
    /**
     * Memory-budget loading: skip the whole-file MADV_WILLNEED
     * prefetch and drop each shard's pages (MADV_DONTNEED) as soon as
     * it has been validated, so peak RSS during open() stays near the
     * largest single shard instead of the whole pack. Mapping starts
     * fully cold; pair with PackFile::adviseShard residency control.
     */
    bool coldLoad = false;
};

/**
 * @return True when the file at @p path starts with the pack magic
 *         (false for unreadable/short files; never throws).
 */
bool isPackFile(const std::string &path);

/**
 * A loaded, validated, memory-mapped pack. The graphs and indexes it
 * exposes borrow their tables from the mapping, so they are only valid
 * while this object (or a copy of its shared mapping) is alive —
 * core::PreprocessedReference wraps that lifetime rule into a
 * value-semantics type; prefer it over using PackFile directly.
 */
class PackFile
{
  public:
    /**
     * Maps and validates the pack at @p path (madvise(WILLNEED) on the
     * mapping so the kernel prefetches the tables).
     *
     * @throws InputError when the file cannot be opened or any
     *         validation step fails (magic, version, endianness,
     *         record-size guards, section bounds/alignment, checksums,
     *         table invariants).
     */
    static PackFile open(const std::string &path,
                         const PackLoadOptions &options = {});

    size_t numChromosomes() const { return chromosomes_.size(); }
    const std::string &name(size_t i) const { return chromosomes_[i].name; }

    /** Borrowed-table graph; valid while this PackFile lives. */
    const graph::GenomeGraph &
    graph(size_t i) const
    {
        return chromosomes_[i].graph;
    }

    /** Borrowed-table index; valid while this PackFile lives. */
    const index::MinimizerIndex &
    index(size_t i) const
    {
        return chromosomes_[i].index;
    }

    /** @return The pack's exact on-disk size in bytes. */
    uint64_t fileBytes() const;

    /** @return The on-disk format version (1 or 2). */
    uint32_t version() const { return version_; }

    /**
     * Byte extent of chromosome @p i's shard. Present for every loaded
     * pack: read from the v2 ShardTable, derived from the section
     * directory for v1 packs.
     */
    const PackShardInfo &shard(size_t i) const { return shards_[i]; }

    /**
     * Residency hint for one shard: madvise(MADV_WILLNEED) when
     * @p resident, MADV_DONTNEED otherwise, over the page-aligned
     * extent of shard @p i. Dropped pages of the read-only MAP_PRIVATE
     * mapping simply refault from the file on the next access, so this
     * is always safe — it trades page faults for RSS. No-op when the
     * pack was loaded through the read() fallback.
     */
    void adviseShard(size_t i, bool resident) const;

    /** Residency hint over the whole mapping (see adviseShard). */
    void adviseAll(bool resident) const;

    // Move-only; special members are defined in pack.cc where the
    // Mapping type is complete.
    PackFile(PackFile &&) noexcept;
    PackFile &operator=(PackFile &&) noexcept;
    PackFile(const PackFile &) = delete;
    PackFile &operator=(const PackFile &) = delete;
    ~PackFile();

  private:
    PackFile() = default;

    class Mapping; ///< RAII mmap (defined in pack.cc)

    struct Chromosome
    {
        std::string name;
        graph::GenomeGraph graph;
        index::MinimizerIndex index;
    };

    std::unique_ptr<Mapping> mapping_;
    std::vector<Chromosome> chromosomes_;
    std::vector<PackShardInfo> shards_;
    uint32_t version_ = kPackVersion;
};

/**
 * The loaders' and writer's private door into GenomeGraph /
 * MinimizerIndex / PackedSeq internals: reads table spans out for
 * serialization and assembles borrowed-table instances on load. Friend
 * of all three classes; nothing user-visible changes on their APIs.
 */
class PackCodec
{
  public:
    static std::span<const graph::NodeRecord>
    nodeTable(const graph::GenomeGraph &graph);
    static std::span<const graph::NodeId>
    edgeTable(const graph::GenomeGraph &graph);
    static std::span<const uint64_t>
    charWords(const graph::GenomeGraph &graph);

    static std::span<const uint32_t>
    bucketTable(const index::MinimizerIndex &index);
    static std::span<const index::MinimizerEntry>
    minimizerTable(const index::MinimizerIndex &index);
    static std::span<const index::SeedLocation>
    locationTable(const index::MinimizerIndex &index);

    /** Assembles a graph whose tables borrow from a mapped pack. */
    static graph::GenomeGraph
    makeGraph(std::span<const graph::NodeRecord> nodes,
              std::span<const uint64_t> char_words, uint64_t num_bases,
              std::span<const graph::NodeId> edges);

    /** Assembles an index whose tables borrow from a mapped pack. */
    static index::MinimizerIndex
    makeIndex(const PackChromMeta &meta,
              std::span<const uint32_t> buckets,
              std::span<const index::MinimizerEntry> minimizers,
              std::span<const index::SeedLocation> locations);
};

} // namespace segram::io

#endif // SEGRAM_SRC_IO_PACK_H
