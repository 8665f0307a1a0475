// Clean fixture for segram_lint --self-test: linted with the
// hot-path, errno and simd scopes forced on, and must produce zero
// findings — every pattern here is the sanctioned spelling of
// something the violating fixtures get wrong. Never compiled.
#include <cerrno>
#include <cstdint>

static_assert(sizeof(std::uint64_t) == 8, "static_assert is fine");

int
sanctioned_patterns(int fd)
{
    // Reset, compare, and capture are the three allowed errno uses.
    errno = 0;
    if (fd < 0) {
        if (errno == EINTR)
            return -1;
        const int saved_errno = errno;
        return saved_errno;
    }
    SEGRAM_DCHECK(fd >= 0, "the sanctioned assert spelling");
    int stack_buffer[16] = {0}; // stack, not heap: fine in hot paths
    // Prose about new Widget() allocations and std::endl is stripped,
    // and so is prose about _mm256_and_si256 from <immintrin.h>.
    const char *prose = "new Widget() and std::endl and assert(x)";
    (void)prose;
    // The escape hatch: a justified allocation can be waved through.
    int *pinned = new int[16]; // segram-lint: allow(hot-path-alloc)
    delete[] pinned;
    return stack_buffer[0];
}
