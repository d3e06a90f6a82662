// SCD_KERNEL: build a hot entry point once per instruction set.
//
// A function marked SCD_KERNEL is compiled twice, as an AVX2 clone and a
// baseline x86-64 clone, and the dynamic loader binds the one this CPU
// supports (GCC function multi-versioning). `flatten` inlines the whole
// call tree, templates included, into each clone; without it the AVX2
// clone would call baseline-ISA helpers out of line. Rules for a marked
// function:
//   * Every clone computes the same bits. Integer code does so by
//     construction; float code needs a fixed operation order and no FMA
//     contraction (see core/kernels_simd.cpp).
//   * No exception leaves it. GCC 12 compiles a call through the clone
//     dispatcher as non-throwing and drops the handlers around it, so a
//     throw from a clone escapes past them, to an outer frame or to
//     std::terminate. Report failures through the return value and
//     throw in an unmarked caller. An internal invariant anywhere in the
//     flattened call tree uses SCD_KERNEL_ASSERT, never SCD_ASSERT or
//     SCD_REQUIRE: it prints the same "invariant" message and calls
//     std::abort. Keep such checks out of the hot loops.
// ThreadSanitizer builds keep only the baseline body (SCD_KERNEL_CLONES
// is 0): the loader runs ifunc resolvers before the TSan runtime is up,
// and the instrumented resolvers crash the process at start.
#pragma once

#include "util/error.h"

#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define SCD_KERNEL_CLONES 1
#define SCD_KERNEL __attribute__((target_clones("avx2", "default"), flatten))
#else
#define SCD_KERNEL_CLONES 0
#define SCD_KERNEL
#endif

/// Non-throwing invariant check for SCD_KERNEL bodies (see above).
#define SCD_KERNEL_ASSERT(cond, msg)                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::scd::detail::abort_check(#cond, __FILE__, __LINE__, (msg));   \
    }                                                                 \
  } while (0)
