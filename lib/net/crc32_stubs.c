/* Carry-less-multiply CRC-32 fold for [Crc32.update].

   The fold is the PCLMULQDQ method of Gopal et al., "Fast CRC
   Computation for Generic Polynomials Using PCLMULQDQ Instruction"
   (Intel, 2009), with the bit-reflected IEEE 802.3 constants given at
   the end of that paper.  It takes and returns the pre-inverted running
   register that [Crc32.t] keeps, so it composes with the table kernel
   on either side.  The OCaml caller guarantees [len >= 64], [len] a
   multiple of 16, the slice in bounds, and [crc32_clmul_available ()]
   true before it calls the fold. */

#include <stdint.h>
#include <stdlib.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

__attribute__((target("pclmul,sse4.1"))) static uint32_t
clmul_fold(const unsigned char *buf, intnat len, uint32_t crc)
{
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1, x2, x3, x4, x5, x6, x7, x8;

  /* Four 128-bit lanes, folded 64 bytes at a time. */
  x1 = _mm_loadu_si128((const __m128i *)(buf + 0x00));
  x2 = _mm_loadu_si128((const __m128i *)(buf + 0x10));
  x3 = _mm_loadu_si128((const __m128i *)(buf + 0x20));
  x4 = _mm_loadu_si128((const __m128i *)(buf + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
  buf += 64;
  len -= 64;
  while (len >= 64) {
    x5 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    x6 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    x7 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    x8 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128((const __m128i *)(buf + 0x00)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6),
                       _mm_loadu_si128((const __m128i *)(buf + 0x10)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7),
                       _mm_loadu_si128((const __m128i *)(buf + 0x20)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8),
                       _mm_loadu_si128((const __m128i *)(buf + 0x30)));
    buf += 64;
    len -= 64;
  }

  /* Fold the four lanes into one. */
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  /* Then 16 bytes at a time. */
  while (len >= 16) {
    x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128((const __m128i *)buf));
    buf += 16;
    len -= 16;
  }

  /* 128 bits down to 64. */
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5k0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  /* Barrett reduction to 32 bits. */
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return (uint32_t)_mm_extract_epi32(x1, 1);
}

intnat crc32_clmul_fold(intnat crc, value data, intnat off, intnat len)
{
  return clmul_fold(Bytes_val(data) + off, len, (uint32_t)crc);
}

value crc32_clmul_available(value unit)
{
  (void)unit;
  return Val_bool(__builtin_cpu_supports("pclmul") &&
                  __builtin_cpu_supports("sse4.1"));
}

#else

/* No CLMUL kernel on this target: [Crc32] sees "unavailable" and never
   calls the fold. */
intnat crc32_clmul_fold(intnat crc, value data, intnat off, intnat len)
{
  (void)crc;
  (void)data;
  (void)off;
  (void)len;
  abort();
}

value crc32_clmul_available(value unit)
{
  (void)unit;
  return Val_false;
}

#endif

value crc32_clmul_fold_byte(value crc, value data, value off, value len)
{
  return Val_long(
      crc32_clmul_fold(Long_val(crc), data, Long_val(off), Long_val(len)));
}
