// Deliberately-violating fixture for segram_lint --self-test: the
// simd-confined rule must reject vector ISA code outside
// src/util/bitops_simd.cc. Six violations, one per marked line; the
// look-alikes below them must not fire. This file is never compiled.
#include <immintrin.h>                                   // VIOLATION
#include "arm_neon.h"                                    // VIOLATION

__attribute__((target("avx2"))) void                     // VIOLATION
vector_sins(uint64_t *dst, const uint64_t *src)
{
    const __m256i v = _mm256_loadu_si256(                // VIOLATION
        reinterpret_cast<const __m256i *>(src));
    const uint64x2_t w = vld1q_u64(src);                 // VIOLATION
    vst1q_u64(dst, w);                                   // VIOLATION
    (void)v;
}

// Look-alikes: prose about _mm256_and_si256 and <immintrin.h> is
// stripped, strings are too, and a longer identifier is not an
// intrinsic.
#include <cstdint>
const char *kProse = "_mm256_or_si256 vld1q_u64 <arm_neon.h>";
int my_mm256_helper(int x);
