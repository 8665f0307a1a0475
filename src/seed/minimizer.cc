#include "src/seed/minimizer.h"

#include <vector>

#include "src/util/check.h"
#include "src/util/dna.h"
#include "src/util/hash.h"

namespace segram::seed
{

void
SketchConfig::validate() const
{
    SEGRAM_CHECK(k >= 1 && k <= 31, "minimizer k must be in [1, 31]");
    SEGRAM_CHECK(w >= 1, "minimizer window must be >= 1");
}

namespace
{

/**
 * The one sketch loop behind every computeMinimizers overload: sketches
 * the @p len 2-bit codes that successive @p next_code() calls yield.
 */
template <typename NextCode>
void
sketchCodes(size_t len, const SketchConfig &config, NextCode &&next_code,
            std::vector<Minimizer> &out, MinimizerScratch &scratch)
{
    config.validate();
    out.clear();
    const int64_t num_kmers = static_cast<int64_t>(len) - config.k + 1;
    const int64_t w = config.w;
    if (num_kmers < w)
        return;

    const uint64_t mask = config.hashMask();
    uint64_t packed = 0;
    for (int i = 0; i + 1 < config.k; ++i)
        packed = (packed << 2) | next_code();
    const auto next_hash = [&] {
        packed = ((packed << 2) | next_code()) & mask;
        return hash64(packed, mask);
    };

    // The hashes of the last w k-mers, k-mer p stored at ring[p mod w]
    // and again at ring[p mod w + w]: with s = p mod w, the window
    // ending at p is the contiguous run ring[s+1 .. s+w], oldest first.
    // Reused across calls, so a warm call never touches the heap.
    std::vector<uint64_t> &ring = scratch.window;
    if (ring.size() < static_cast<size_t>(2 * w))
        ring.resize(static_cast<size_t>(2 * w));

    // First window: its leftmost minimum ('<' keeps the leftmost tie).
    Minimizer best{~uint64_t{0}, 0};
    for (int64_t pos = 0; pos < w; ++pos) {
        const uint64_t hash = next_hash();
        ring[pos] = ring[pos + w] = hash;
        if (hash < best.hash)
            best = {hash, static_cast<uint32_t>(pos)};
    }
    out.push_back(best);

    // Each later window changes its minimum only when a strictly
    // smaller k-mer enters (every other k-mer of the window is >= the
    // old minimum) or the old minimum expires, so each run of windows
    // sharing a minimum is reported once. This is the single-loop
    // formulation of Section 6: "we can eliminate the inner loop by
    // caching the previous minimum k-mers within the current window".
    // An expiry rescans the window, unless the new first k-mer ties the
    // expired minimum (runs of one k-mer, such as poly-A): then it is
    // the leftmost minimum. On other sequence an expiry comes about
    // once per w + 1 k-mers.
    int64_t slot = 0;
    for (int64_t pos = w; pos < num_kmers; ++pos) {
        const uint64_t hash = next_hash();
        ring[slot] = ring[slot + w] = hash;
        if (hash < best.hash) {
            best = {hash, static_cast<uint32_t>(pos)};
            out.push_back(best);
        } else if (best.pos + w <= pos) {
            if (ring[slot + 1] == best.hash) {
                best.pos = static_cast<uint32_t>(pos - w + 1);
            } else {
                // Select without a data-dependent branch: which slot
                // wins a rescan is unpredictable.
                uint64_t best_hash = ring[slot + 1];
                int64_t best_j = slot + 1;
                for (int64_t j = slot + 2; j <= slot + w; ++j) {
                    const bool less = ring[j] < best_hash;
                    best_hash = less ? ring[j] : best_hash;
                    best_j = less ? j : best_j;
                }
                best = {best_hash,
                        static_cast<uint32_t>(pos - (slot + w - best_j))};
            }
            out.push_back(best);
        }
        slot = slot + 1 == w ? 0 : slot + 1;
    }
}

} // namespace

uint64_t
kmerHash(std::string_view seq, size_t pos, const SketchConfig &config)
{
    uint64_t packed = 0;
    for (int i = 0; i < config.k; ++i) {
        const uint8_t code = baseToCode(seq[pos + i]);
        SEGRAM_CHECK(code != kInvalidBaseCode,
                     "k-mer contains a non-ACGT character");
        packed = (packed << 2) | code;
    }
    return hash64(packed, config.hashMask());
}

std::vector<Minimizer>
computeMinimizers(std::string_view seq, const SketchConfig &config)
{
    std::vector<Minimizer> out;
    MinimizerScratch scratch;
    computeMinimizers(seq, config, out, scratch);
    return out;
}

void
computeMinimizers(std::string_view seq, const SketchConfig &config,
                  std::vector<Minimizer> &out, MinimizerScratch &scratch)
{
    size_t i = 0;
    sketchCodes(
        seq.size(), config,
        [&] {
            const uint8_t code = baseToCode(seq[i++]);
            SEGRAM_CHECK(code != kInvalidBaseCode,
                         "sequence contains a non-ACGT character");
            return code;
        },
        out, scratch);
}

void
computeMinimizers(PackedSeq::Reader codes, const SketchConfig &config,
                  std::vector<Minimizer> &out, MinimizerScratch &scratch)
{
    sketchCodes(
        codes.size(), config, [&] { return codes.next(); }, out,
        scratch);
}

std::vector<Minimizer>
computeMinimizersNaive(std::string_view seq, const SketchConfig &config)
{
    config.validate();
    std::vector<Minimizer> out;
    const int64_t m = static_cast<int64_t>(seq.size());
    const int64_t num_kmers = m - config.k + 1;
    if (num_kmers < config.w)
        return out;

    for (int64_t window = 0; window + config.w <= num_kmers; ++window) {
        Minimizer best{~uint64_t{0}, 0};
        for (int64_t j = window; j < window + config.w; ++j) {
            const uint64_t hash = kmerHash(seq, j, config);
            if (hash < best.hash) // '<' keeps the leftmost tie
                best = {hash, static_cast<uint32_t>(j)};
        }
        if (out.empty() || out.back() != best)
            out.push_back(best);
    }
    return out;
}

} // namespace segram::seed
