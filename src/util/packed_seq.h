/**
 * @file
 * 2-bit packed DNA sequence, the storage format of the paper's character
 * table (Fig. 5): "we can store characters in the character table using a
 * 2-bit representation (A:00, C:01, G:10, T:11)".
 */

#ifndef SEGRAM_SRC_UTIL_PACKED_SEQ_H
#define SEGRAM_SRC_UTIL_PACKED_SEQ_H

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/check.h"
#include "src/util/dna.h"
#include "src/util/table_storage.h"

namespace segram
{

namespace io
{
class PackCodec;
}

/**
 * A growable DNA sequence stored at 2 bits per base. Serves both as the
 * backing store of the genome graph's character table and as a compact
 * read representation.
 *
 * The word table goes through util::TableStorage, so a PackedSeq can
 * either own its words or borrow them straight out of a memory-mapped
 * `.segram` pack (io::PackCodec is the only constructor of borrowed
 * instances); every query works identically on both.
 */
class PackedSeq
{
  public:
    PackedSeq() = default;

    /** Builds a packed sequence from an ACGT string. */
    explicit PackedSeq(std::string_view seq);

    /** Appends one base given as a character (must be ACGT). */
    void pushBase(char base);

    /** Appends one base given as a 2-bit code. */
    void pushCode(uint8_t code);

    /** Appends a whole ACGT string. */
    void append(std::string_view seq);

    /** @return Number of bases stored. */
    size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** @return The 2-bit code of base @p idx. */
    uint8_t codeAt(size_t idx) const;

    /** @return The character of base @p idx. */
    char baseAt(size_t idx) const { return codeToBase(codeAt(idx)); }

    /** @return The sub-sequence [start, start+len) as an ACGT string. */
    std::string substr(size_t start, size_t len) const;

    /** @return The whole sequence as an ACGT string. */
    std::string toString() const { return substr(0, size_); }

    /** @return Storage footprint in bytes (owned heap or mapped file). */
    size_t memoryBytes() const { return words_.bytes(); }

    bool
    operator==(const PackedSeq &other) const
    {
        return size_ == other.size_ && words_ == other.words_;
    }

    class Reader;

    /** @return A forward reader over the codes of [start, start+len). */
    Reader reader(size_t start, size_t len) const;

  private:
    friend class io::PackCodec;

    static constexpr int basesPerWord = 32;

    util::TableStorage<uint64_t> words_;
    size_t size_ = 0;
};

/**
 * Sequential reader of a PackedSeq range: one word load per 32 bases
 * instead of a codeAt() call per base, for whole-table scans such as
 * index construction. A word is loaded only when its first code is
 * asked for, so the reader never touches a word past the range.
 */
class PackedSeq::Reader
{
  public:
    /** @return Number of codes in the range. */
    size_t size() const { return len_; }

    /** @return The next code of the range (call at most size() times). */
    uint8_t
    next()
    {
        if (left_ == 0) {
            bits_ = *word_++;
            left_ = basesPerWord;
        }
        const auto code = static_cast<uint8_t>(bits_ & 0x3);
        bits_ >>= 2;
        --left_;
        return code;
    }

  private:
    friend class PackedSeq;

    Reader(const uint64_t *word, int slot, size_t len)
        : word_(word), len_(len)
    {
        if (slot != 0) {
            bits_ = *word_++ >> (2 * slot);
            left_ = basesPerWord - slot;
        }
    }

    const uint64_t *word_;
    uint64_t bits_ = 0;
    int left_ = 0;
    size_t len_;
};

inline PackedSeq::Reader
PackedSeq::reader(size_t start, size_t len) const
{
    SEGRAM_DCHECK(start + len <= size_, "reader range out of range");
    return {words_.data() + start / basesPerWord,
            static_cast<int>(start % basesPerWord), len};
}

} // namespace segram

#endif // SEGRAM_SRC_UTIL_PACKED_SEQ_H
