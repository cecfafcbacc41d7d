/* Montgomery modular exponentiation over 64-bit limbs.

   [pvr_bigint_mont_pow ctx base exp out] writes base^exp mod m into
   [out] as big-endian bytes of the modulus width.  [ctx] is the string
   Bigint.Mont builds once per odd modulus m of k 64-bit words:

     word 0          m0' = -m^-1 mod 2^64
     words 1..k      m
     words k+1..2k   R^2 mod m, R = 2^(64k)
     words 2k+1..3k  R mod m (Montgomery form of 1)

   each word little-endian.  [base] (already below m) and [exp] are
   Bigint.t values: OCaml int arrays of 31-bit limbs, least significant
   first.  Multiplication is word-by-word CIOS (Koc-Acar-Kaliski) with
   unsigned __int128 products; exponents of at most 32 bits run
   left-to-right binary exponentiation, longer ones fixed-window (w = 4).

   Every operand is copied onto the C stack before the domain lock is
   released, and the result is written into [out] after it is taken
   back.  Nothing here allocates on the OCaml heap or calls back into
   OCaml.  [pvr_bigint_mont_product] is one Montgomery product
   (a * b * R^-1 mod m) on the same layout, run under the lock: it is too
   short to be worth releasing it.  Neither is constant-time. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>

typedef unsigned __int128 u128;

/* Widest modulus and exponent, in 64-bit words (16384 bits).
   Bigint.Mont checks both before calling in. */
#define MAX_WORDS 256
#define WINDOW_BITS 4
#define SHORT_EXP_BITS 32

static uint64_t load_le64(const unsigned char *p)
{
  uint64_t v = 0;
  for (int i = 7; i >= 0; i--) v = (v << 8) | p[i];
  return v;
}

/* Pack the 31-bit limbs of the Bigint [a] into [w], [k] words wide.
   Fails unless the value fits. */
static void load_bigint(uint64_t *w, int k, value a)
{
  mlsize_t n = Wosize_val(a);
  memset(w, 0, (size_t)k * sizeof(uint64_t));
  for (mlsize_t i = 0; i < n; i++) {
    uint64_t limb = (uint64_t)Long_val(Field(a, i));
    if (limb == 0) continue;
    size_t bit = 31 * i, wi = bit / 64;
    unsigned off = bit % 64;
    if (wi >= (size_t)k)
      caml_invalid_argument("Bigint.Mont: operand too wide");
    w[wi] |= limb << off;
    if (off > 33 && limb >> (64 - off) != 0) {
      if (wi + 1 >= (size_t)k)
        caml_invalid_argument("Bigint.Mont: operand too wide");
      w[wi + 1] |= limb >> (64 - off);
    }
  }
}

/* Number of 64-bit words the Bigint [a] needs. */
static int bigint_words(value a)
{
  mlsize_t n = Wosize_val(a);
  if (n == 0) return 0;
  uint64_t top = (uint64_t)Long_val(Field(a, n - 1));
  size_t bits = 31 * (n - 1) + (top ? 64 - __builtin_clzll(top) : 0);
  return (int)((bits + 63) / 64);
}

/* r = a * b * R^-1 mod m, for a, b < m.  [r] may alias [a] or [b]. */
static inline __attribute__((always_inline)) void
mont_mul(uint64_t *r, const uint64_t *a, const uint64_t *b, const uint64_t *m,
         uint64_t m0inv, int k)
{
  uint64_t t[k + 2];
  memset(t, 0, sizeof t);
  for (int i = 0; i < k; i++) {
    uint64_t ai = a[i], c = 0;
    u128 s;
    for (int j = 0; j < k; j++) {
      s = (u128)ai * b[j] + t[j] + c;
      t[j] = (uint64_t)s;
      c = (uint64_t)(s >> 64);
    }
    s = (u128)t[k] + c;
    t[k] = (uint64_t)s;
    t[k + 1] = (uint64_t)(s >> 64);
    /* Add q * m so the low word cancels, and shift down one word. */
    uint64_t q = t[0] * m0inv;
    s = (u128)q * m[0] + t[0];
    c = (uint64_t)(s >> 64);
    for (int j = 1; j < k; j++) {
      s = (u128)q * m[j] + t[j] + c;
      t[j - 1] = (uint64_t)s;
      c = (uint64_t)(s >> 64);
    }
    s = (u128)t[k] + c;
    t[k - 1] = (uint64_t)s;
    t[k] = t[k + 1] + (uint64_t)(s >> 64);
  }
  /* t < 2m: one conditional subtraction brings it below m. */
  int ge = t[k] != 0;
  if (!ge) {
    ge = 1;
    for (int j = k - 1; j >= 0; j--)
      if (t[j] != m[j]) {
        ge = t[j] > m[j];
        break;
      }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (int j = 0; j < k; j++) {
      u128 d = (u128)t[j] - m[j] - borrow;
      r[j] = (uint64_t)d;
      borrow = (uint64_t)(d >> 64) & 1;
    }
  }
  else memcpy(r, t, (size_t)k * sizeof(uint64_t));
}

static int bit_length(const uint64_t *e, int ew)
{
  for (int i = ew - 1; i >= 0; i--)
    if (e[i]) return 64 * i + 64 - __builtin_clzll(e[i]);
  return 0;
}

static int test_bit(const uint64_t *e, int i)
{
  return (e[i / 64] >> (i % 64)) & 1;
}

/* acc = base^e mod m, all in normal form; [base] < m.  Inlined into
   each caller below, so a constant [k] unrolls the word loops. */
static inline __attribute__((always_inline)) void
mont_pow(uint64_t *acc, const uint64_t *base, const uint64_t *e, int ew,
         const uint64_t *m, uint64_t m0inv, const uint64_t *rr,
         const uint64_t *one_r, int k)
{
  int nbits = bit_length(e, ew);
  uint64_t bm[k];
  if (nbits == 0) memcpy(acc, one_r, (size_t)k * sizeof(uint64_t));
  else if (nbits <= SHORT_EXP_BITS) {
    mont_mul(bm, base, rr, m, m0inv, k);
    memcpy(acc, bm, (size_t)k * sizeof(uint64_t));
    for (int i = nbits - 2; i >= 0; i--) {
      mont_mul(acc, acc, acc, m, m0inv, k);
      if (test_bit(e, i)) mont_mul(acc, acc, bm, m, m0inv, k);
    }
  }
  else {
    uint64_t table[1 << WINDOW_BITS][k];
    memcpy(table[0], one_r, (size_t)k * sizeof(uint64_t));
    mont_mul(table[1], base, rr, m, m0inv, k);
    for (int i = 2; i < 1 << WINDOW_BITS; i++)
      mont_mul(table[i], table[i - 1], table[1], m, m0inv, k);
    int nwin = (nbits + WINDOW_BITS - 1) / WINDOW_BITS;
    for (int w = nwin - 1; w >= 0; w--) {
      int d = 0;
      for (int i = WINDOW_BITS - 1; i >= 0; i--) {
        int bit = w * WINDOW_BITS + i;
        d = (d << 1) | (bit < nbits && test_bit(e, bit));
      }
      if (w == nwin - 1)
        memcpy(acc, table[d], (size_t)k * sizeof(uint64_t));
      else {
        for (int i = 0; i < WINDOW_BITS; i++)
          mont_mul(acc, acc, acc, m, m0inv, k);
        if (d) mont_mul(acc, acc, table[d], m, m0inv, k);
      }
    }
  }
  /* Leave Montgomery form: multiply by plain 1. */
  uint64_t one[k];
  memset(one, 0, sizeof one);
  one[0] = 1;
  mont_mul(acc, acc, one, m, m0inv, k);
}

/* One copy per width the RSA key sizes use (256-, 512- and 1024-bit
   moduli: the CRT halves and moduli of RSA-512, -1024 and -2048), and
   one for every other width. */
static void mont_pow_sized(uint64_t *acc, const uint64_t *base,
                         const uint64_t *e, int ew, const uint64_t *m,
                         uint64_t m0inv, const uint64_t *rr,
                         const uint64_t *one_r, int k)
{
  switch (k) {
  case 4: mont_pow(acc, base, e, ew, m, m0inv, rr, one_r, 4); break;
  case 8: mont_pow(acc, base, e, ew, m, m0inv, rr, one_r, 8); break;
  case 16: mont_pow(acc, base, e, ew, m, m0inv, rr, one_r, 16); break;
  default: mont_pow(acc, base, e, ew, m, m0inv, rr, one_r, k);
  }
}

/* Width of the context string [ctx] in words, checked against [out]. */
static int ctx_words(value ctx, value out)
{
  mlsize_t len = caml_string_length(ctx);
  if (len % 8 != 0 || len < 32 || (len / 8 - 1) % 3 != 0)
    caml_invalid_argument("Bigint.Mont: malformed context");
  int k = (int)((len / 8 - 1) / 3);
  if (k > MAX_WORDS || caml_string_length(out) != 8 * (mlsize_t)k)
    caml_invalid_argument("Bigint.Mont: bad output width");
  return k;
}

static void load_ctx(value ctx, int k, uint64_t *m0inv, uint64_t *m,
                     uint64_t *rr, uint64_t *one_r)
{
  const unsigned char *p = (const unsigned char *)String_val(ctx);
  *m0inv = load_le64(p);
  for (int i = 0; i < k; i++) {
    m[i] = load_le64(p + 8 * (1 + i));
    rr[i] = load_le64(p + 8 * (1 + k + i));
    if (one_r) one_r[i] = load_le64(p + 8 * (1 + 2 * k + i));
  }
}

static void store_be(value out, const uint64_t *w, int k)
{
  unsigned char *p = Bytes_val(out);
  for (int i = 0; i < k; i++) {
    uint64_t v = w[k - 1 - i];
    for (int j = 7; j >= 0; j--) {
      p[8 * i + j] = (unsigned char)v;
      v >>= 8;
    }
  }
}

value pvr_bigint_mont_pow(value ctx, value base, value exp, value out)
{
  CAMLparam4(ctx, base, exp, out);
  int k = ctx_words(ctx, out);
  int ew = bigint_words(exp);
  if (ew > MAX_WORDS) caml_invalid_argument("Bigint.Mont: exponent too wide");
  if (ew == 0) ew = 1;
  uint64_t m0inv, m[k], rr[k], one_r[k], b[k], e[ew], acc[k];
  load_ctx(ctx, k, &m0inv, m, rr, one_r);
  load_bigint(b, k, base);
  load_bigint(e, ew, exp);
  caml_enter_blocking_section_no_pending();
  mont_pow_sized(acc, b, e, ew, m, m0inv, rr, one_r, k);
  caml_leave_blocking_section();
  store_be(out, acc, k);
  CAMLreturn(Val_unit);
}

value pvr_bigint_mont_product(value ctx, value a, value b, value out)
{
  int k = ctx_words(ctx, out);
  uint64_t m0inv, m[k], rr[k], x[k], y[k];
  load_ctx(ctx, k, &m0inv, m, rr, NULL);
  load_bigint(x, k, a);
  load_bigint(y, k, b);
  mont_mul(x, x, y, m, m0inv, k);
  store_be(out, x, k);
  return Val_unit;
}
