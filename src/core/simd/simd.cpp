// simd.cpp - Runtime backend dispatch for the encode kernel table.
//
// Selection runs once, at the first encode_kernels() call: the widest
// backend both the build and the CPU support wins (avx512 > avx2 >
// scalar on x86-64; scalar everywhere else), unless PASTRI_SIMD names
// one explicitly (unsupported or unknown names fall back to scalar -- a
// forced-off path must never crash on an old CPU).  Decode has no
// table: it runs the one scalar path on every host.
//
// AVX-512 needs more than a CPUID feature bit: the OS must have enabled
// ZMM state saving (XCR0 bits 1|2|5|6|7 via XGETBV), otherwise the
// first EVEX instruction faults.  cpu_has_avx512() checks both.  The
// choice is published through an atomic pointer so steady-state access
// is one relaxed load; force_backend()/refresh_backend_from_env() are
// testing hooks that republish it.
#include "core/simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/metric_names.h"
#include "obs/metrics.h"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <cpuid.h>
#endif

namespace pastri::simd {
namespace {

std::atomic<const EncodeKernels*> g_active{nullptr};
std::atomic<Backend> g_backend{Backend::Scalar};

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
// XGETBV via inline asm: the _xgetbv intrinsic needs -mxsave, which
// this (deliberately flag-free) dispatch TU does not use.  Only called
// after CPUID confirmed OSXSAVE, so the instruction itself is legal.
std::uint64_t xgetbv0() {
  unsigned lo = 0, hi = 0;
  __asm__ __volatile__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0u));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}
#endif

bool cpu_has_avx512() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  // Feature bits alone are not enough: a kernel that does not save ZMM
  // state leaves the bits set in CPUID leaf 7 while the first EVEX
  // instruction faults.  Check OSXSAVE, then ask XGETBV whether the OS
  // saves SSE|AVX|opmask|ZMM_hi256|hi16_ZMM state, then the F+DQ
  // feature bits the kernels actually use (cvtepi64_pd is DQ).
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  constexpr unsigned kOsxsave = 1u << 27;
  if ((ecx & kOsxsave) == 0) return false;
  constexpr std::uint64_t kAvx512State = 0xE6;  // XCR0 bits 1,2,5,6,7
  if ((xgetbv0() & kAvx512State) != kAvx512State) return false;
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  constexpr unsigned kAvx512F = 1u << 16;
  constexpr unsigned kAvx512Dq = 1u << 17;
  return (ebx & kAvx512F) != 0 && (ebx & kAvx512Dq) != 0;
#else
  return false;
#endif
}

const EncodeKernels& encode_table_for(Backend b) {
  switch (b) {
    case Backend::Scalar: return kScalarKernels;
    case Backend::Avx2: return kAvx2Kernels;
    case Backend::Avx512: return kAvx512Kernels;
  }
  return kScalarKernels;
}

Backend best_backend() {
  if (backend_supported(Backend::Avx512)) return Backend::Avx512;
  if (backend_supported(Backend::Avx2)) return Backend::Avx2;
  return Backend::Scalar;
}

Backend select_backend() {
  Backend b = best_backend();
  if (const char* env = std::getenv("PASTRI_SIMD")) {
    if (env[0] == '\0') return b;
    b = Backend::Scalar;  // any explicit name starts from the safe tier
    for (Backend cand : kAllBackends) {
      if (std::strcmp(env, backend_name(cand)) == 0 &&
          backend_supported(cand)) {
        b = cand;
      }
    }
  }
  return b;
}

void publish(Backend b) {
  g_backend.store(b, std::memory_order_relaxed);
  g_active.store(&encode_table_for(b), std::memory_order_release);
  // Observability: which backend encode dispatches to (0 = scalar,
  // 1 = avx2, 2 = avx512).  Decode always runs the scalar path; its
  // gauge stays so run fingerprints keep reporting both paths.
  obs::registry().gauge(obs::kCoreSimdBackend).set(static_cast<double>(b));
  obs::registry()
      .gauge(obs::kCoreSimdDecodeBackend)
      .set(static_cast<double>(Backend::Scalar));
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::Scalar: return "scalar";
    case Backend::Avx2: return "avx2";
    case Backend::Avx512: return "avx512";
  }
  return "?";
}

bool backend_supported(Backend b) {
  switch (b) {
    case Backend::Scalar: return true;
    case Backend::Avx2: return avx2_compiled_in() && cpu_has_avx2();
    case Backend::Avx512: return avx512_compiled_in() && cpu_has_avx512();
  }
  return false;
}

const EncodeKernels& encode_kernels() {
  const EncodeKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) [[unlikely]] {
    // Selection is idempotent; a racing first call publishes the same
    // table twice.
    publish(select_backend());
    k = g_active.load(std::memory_order_acquire);
  }
  return *k;
}

Backend active_backend() {
  (void)encode_kernels();
  return g_backend.load(std::memory_order_relaxed);
}

void force_backend(Backend b) {
  if (!backend_supported(b)) b = Backend::Scalar;
  publish(b);
}

void refresh_backend_from_env() { publish(select_backend()); }

}  // namespace pastri::simd
