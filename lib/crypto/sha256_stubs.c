/* SHA-256 block compression on the x86 SHA extensions (sha256rnds2,
   sha256msg1, sha256msg2).

   [pvr_sha256_ni_compress h src off n] compresses the [n] 64-byte blocks
   at [src + off] into the eight state words of the OCaml int array [h].
   Only the compression function lives here: buffering, padding and the
   digest encoding stay in sha256.ml, and sha256.ml calls this stub only
   when [pvr_sha256_ni_available ()] said the CPU has the extensions.  The
   kernel functions carry their own target attribute, so the rest of the
   library is compiled for the baseline ISA.  On other architectures the
   stub reports the extensions unavailable and is never called. */

#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) || defined(__i386__)
#define PVR_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#ifdef PVR_SHA_NI

static const uint32_t k256[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

/* Four rounds per step, sixteen steps per block.  [m[j & 3]] holds message
   words 4j..4j+3; while step j consumes them, steps j+1..j+3's words are
   already loaded and sha256msg1/msg2 extend the schedule four words ahead.
   The state sits in the layout sha256rnds2 wants: ABEF in [s0], CDGH in
   [s1]. */
__attribute__((target("sha,ssse3,sse4.1")))
static void sha256_ni_blocks(uint32_t st[8], const uint8_t *p, intnat n)
{
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i t = _mm_loadu_si128((const __m128i *)&st[0]);
  __m128i s1 = _mm_loadu_si128((const __m128i *)&st[4]);
  t = _mm_shuffle_epi32(t, 0xB1);          /* CDAB */
  s1 = _mm_shuffle_epi32(s1, 0x1B);        /* EFGH */
  __m128i s0 = _mm_alignr_epi8(t, s1, 8);  /* ABEF */
  s1 = _mm_blend_epi16(s1, t, 0xF0);       /* CDGH */

  for (; n > 0; n--, p += 64) {
    const __m128i abef = s0, cdgh = s1;
    __m128i m[4];
#pragma GCC unroll 16
    for (int j = 0; j < 16; j++) {
      if (j < 4)
        m[j] = _mm_shuffle_epi8(
            _mm_loadu_si128((const __m128i *)(p + 16 * j)), bswap);
      __m128i w =
          _mm_add_epi32(m[j & 3], _mm_load_si128((const __m128i *)&k256[4 * j]));
      s1 = _mm_sha256rnds2_epu32(s1, s0, w);
      if (j >= 3 && j < 15) {
        __m128i x = _mm_alignr_epi8(m[j & 3], m[(j - 1) & 3], 4);
        m[(j + 1) & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(m[(j + 1) & 3], x), m[j & 3]);
      }
      s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(w, 0x0E));
      if (j >= 1 && j < 13)
        m[(j - 1) & 3] = _mm_sha256msg1_epu32(m[(j - 1) & 3], m[j & 3]);
    }
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }

  t = _mm_shuffle_epi32(s0, 0x1B);         /* FEBA */
  s1 = _mm_shuffle_epi32(s1, 0xB1);        /* DCHG */
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(t, s1, 0xF0)); /* DCBA */
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(s1, t, 8));   /* HGFE */
}

/* CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19
   (SSE4.1). */
static int sha_ni_present(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b >> 29) & 1;
}

#endif

value pvr_sha256_ni_available(value unit)
{
  (void)unit;
#ifdef PVR_SHA_NI
  return Val_bool(sha_ni_present());
#else
  return Val_false;
#endif
}

value pvr_sha256_ni_compress(value h, value src, intnat off, intnat n)
{
#ifdef PVR_SHA_NI
  uint32_t st[8];
  for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  sha256_ni_blocks(st, (const uint8_t *)String_val(src) + off, n);
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
#else
  (void)h; (void)src; (void)off; (void)n;
  abort();
#endif
  return Val_unit;
}

value pvr_sha256_ni_compress_byte(value h, value src, value off, value n)
{
  return pvr_sha256_ni_compress(h, src, Long_val(off), Long_val(n));
}
