/* Native kernels of levyspec, built and loaded through ctypes by _native.py.
   read_last_cells leaves any file outside the grammar of decimal() to the line
   loop of cli.py (-1), and rounds each cell of at most 19 significant digits to
   the nearest double by Eisel-Lemire (Lemire, "Number Parsing at a Gigabyte per
   Second", SPE 2021), which with the table's 128 bits always decides (Mushtak
   and Lemire, "Fast Number Parsing Without Fallback", SPE 2023); strtod takes a
   longer cell.  Both round correctly, so a cell gives the bytes of strtod and
   float().  bin_moments and ecf_contract are estimator._bin_moments_numpy and
   estimator._ecf_contract_numpy operation for operation, the same bytes when
   built with -ffp-contract=off, no -ffast-math.  bin_moments takes the sorted
   samples in tiles of whole bins that fit L1, makes two Chebyshev terms per
   sweep of a tile's rows, each by numpy's two roundings, and finds the bin as
   floor(m * (1 / size)), which is m / size exactly for a power-of-2 size. */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define BUFFER 65536 /* bytes per read; a longer line returns -1 */
#define BLANK(c) ((c) == ' ' || (c) == '\t')
#define DIGIT(c) ((unsigned)((c) - '0') < 10u) /* c read once: DIGIT(*++p) */
#define BLOCK 64 /* frequencies per block of ecf_contract */
#define TILE 512 /* samples per tile of bin_moments: its three rows, 12 KiB, stay in L1 */
#define LEAST_POWER (-342) /* the powers of ten of the table, 10^-342 .. 10^308 */
#define MOST_POWER 308

/* *hi and *lo, the high and low words of the 128-bit product a b, from four
   32 x 32-bit partial products */
static void multiply(uint64_t a, uint64_t b, uint64_t *hi, uint64_t *lo)
{
    uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    *lo = mid << 32 | (p00 & 0xFFFFFFFFu);
}

/* The double nearest (-1)^negative w 10^q, w < 2^64, as its bits.  Past the
   table w 10^q rounds to 0 (below 2^64 10^-343, under half the least subnormal)
   or to infinity.  powers[2 (q + 342)] and the word after it are the leading 128
   bits of 10^q, those of 5^q, rounded as in the table of Lemire's fast_float;
   the second product is the last one needed, as Mushtak and Lemire prove. */
static uint64_t eisel_lemire(uint64_t w, int64_t q, int negative, const uint64_t *powers)
{
    const uint64_t *power;
    uint64_t hi, lo, hi2, lo2, bits;
    int lz = 0, s, upper, shift;
    int64_t exponent;
    if (w == 0 || q < LEAST_POWER || q > MOST_POWER)
        return (uint64_t)(w && q > MOST_POWER ? 0x7FF : 0) << 52 | (uint64_t)negative << 63;
    power = powers + 2 * (q - LEAST_POWER);
    for (s = 32; s > 0; s >>= 1)  /* normalise w: its top bit set */
        if (!(w >> (64 - s))) w <<= s, lz += s;
    multiply(w, power[0], &hi, &lo);
    if ((hi & 0x1FF) == 0x1FF) {  /* the 55 bits kept may take a carry from below */
        multiply(w, power[1], &hi2, &lo2);
        lo += hi2;
        hi += lo < hi2;
    }
    upper = (int)(hi >> 63);
    shift = upper + 9;  /* 54 bits kept: 53 and a rounding bit */
    bits = hi >> shift;
    /* floor(q log2 10) + 63 by a product, then the bias 1023 */
    exponent = ((217706 * q) >> 16) + 63 + upper - lz + 1023;
    if (exponent <= 0) {  /* subnormal, or zero */
        bits = -exponent + 1 < 64 ? bits >> (-exponent + 1) : 0;
        bits = (bits + (bits & 1)) >> 1;
        exponent = bits >= (UINT64_C(1) << 52);  /* rounded up to the least normal */
    } else {
        /* a tie between two doubles, exact only where 5^q fits in 64 bits: to even */
        if (lo <= 1 && q >= -4 && q <= 23 && (bits & 3) == 1 && bits << shift == hi)
            bits &= ~UINT64_C(1);
        bits = (bits + (bits & 1)) >> 1;
        if (bits >= (UINT64_C(2) << 52)) bits = UINT64_C(1) << 52, exponent++;
        bits &= ~(UINT64_C(1) << 52);
        if (exponent >= 0x7FF) bits = 0, exponent = 0x7FF;  /* infinity */
    }
    return bits | (uint64_t)exponent << 52 | (uint64_t)negative << 63;
}

/* The grammar of the C reader's cell [s, end), [+-]digits[.digits][(e|E)[+-]digits],
   which strtod and float() read too, so no locale, hex, inf or nan: one walk
   matches it and gathers the significant digits w and the exponent q.  -1 for
   any other cell, left to the line loop; 0 for more than 19 significant digits,
   left to strtod; else 1, the double in *out.  The walk stops at end, whose byte
   (a blank, \n, \r or NUL) is outside the grammar. */
static int decimal(const char *s, const char *end, const uint64_t *powers, double *out)
{
    const char *p = s + (*s == '+' || *s == '-');
    uint64_t w = 0, bits;
    int64_t q = 0, e = 0;
    int digits = 0, negative = *s == '-';
    if (!DIGIT(*p)) return -1;
    while (*p == '0') p++;
    for (; DIGIT(*p); p++, digits++) w = 10 * w + (uint64_t)(*p - '0');
    if (*p == '.') {
        if (!DIGIT(*++p)) return -1;
        for (; w == 0 && *p == '0'; p++) q--;  /* zeros before the first digit */
        for (; DIGIT(*p); p++, digits++, q--) w = 10 * w + (uint64_t)(*p - '0');
    }
    if (*p == 'e' || *p == 'E') {
        int below = *++p == '-';
        p += *p == '+' || *p == '-';
        if (!DIGIT(*p)) return -1;
        for (; DIGIT(*p); p++)
            if (e < 100000) e = 10 * e + (*p - '0');  /* far past the table either way */
        q += below ? -e : e;
    }
    if (p != end) return -1;
    if (digits > 19) return 0;  /* w has wrapped */
    bits = eisel_lemire(w, q, negative, powers);
    memcpy(out, &bits, sizeof bits);
    return 1;
}

/* The line at p, ended by \n, \r or `limit`, the end of the data: 1 with its
   value in *out, 0 for a blank or # line, -1 for a line to leave to the loop,
   2 for a line cut by `limit` before the end of the file.  *next is the next
   line. */
static int parse_line(char *p, const char *limit, int eof, const uint64_t *powers,
                      char **next, double *out)
{
    char *cell = p, *end = p, *stop;
    int commas = 0, found;
    for (;; end++) {  /* the one scan of the line */
        unsigned char c = (unsigned char)*end;
        if (c == '\n' || c == '\r') break;
        if (c == ',') {
            if (++commas > 1) return -1;
            cell = end + 1;
        } else if ((c < ' ' && c != '\t') || c > '~') {
            if (end != limit) return -1;  /* a control byte, NUL or non-ASCII */
            if (!eof) return 2;
            break;  /* the last line has no newline; *limit is a NUL */
        }
    }
    *next = end == limit ? end : end + 1;
    while (p < end && BLANK(*p)) p++;
    if (p == end || *p == '#') return 0;
    while (BLANK(*cell)) cell++;
    while (end > cell && BLANK(end[-1])) end--;
    if ((found = decimal(cell, end, powers, out)) < 0) return -1;
    if (!found) {  /* strtod, which must stop at the same end */
        *out = strtod(cell, &stop);
        if (stop != end) return -1;
    }
    return isfinite(*out) ? 1 : -1;
}

/* The values of the lines after the first `skip` (a line ends at \n, \r or
   \r\n), at most `cap`, into out: their count, or -1.  powers is the table of
   eisel_lemire, 2 (308 + 342 + 1) words. */
int64_t read_last_cells(const char *path, int64_t skip, double *out, int64_t cap,
                        const uint64_t *powers)
{
    char *buf = malloc(BUFFER + 1), *p, *limit, *next;
    FILE *f = buf ? fopen(path, "rb") : NULL;
    int64_t rows = 0;
    size_t have = 0, got;
    int eof = 0, cr = 0, status = 0;
    while (f && !eof && status >= 0) {
        got = fread(buf + have, 1, BUFFER - have, f);
        eof = got < BUFFER - have;
        status = ferror(f) ? -1 : 0;
        limit = buf + have + got;
        *limit = '\0';
        for (p = buf; skip > 0 && p < limit; p++) {
            if (*p == '\r' || (*p == '\n' && !cr)) skip--;
            cr = *p == '\r';
        }
        while (status >= 0 && p < limit) {
            double value;
            if ((status = parse_line(p, limit, eof, powers, &next, &value)) < 0 || status == 2)
                break;
            if (status == 1 && rows == cap) status = -1;
            else if (status == 1) out[rows++] = value;
            p = next;
        }
        if (status == 2 && p == buf) status = -1;  /* a line longer than the buffer */
        memmove(buf, p, have = (size_t)(limit - p));
    }
    if (f) fclose(f);
    free(buf);
    return !f || status < 0 || skip > 0 ? -1 : rows;
}

/* numpy's pairwise sum of float64: 8 accumulators up to 128 values, halves above */
static double pairwise(const double *a, int64_t n)
{
    double r[8], res = -0.0;
    int64_t i, j, half = n / 2 - n / 2 % 8;
    for (i = 0; n < 8 && i < n; i++) res += a[i];
    if (n < 8) return res;
    if (n > 128) return pairwise(a, half) + pairwise(a + half, n - half);
    for (j = 0; j < 8; j++) r[j] = a[j];
    for (i = 8; i < n - n % 8; i += 8)
        for (j = 0; j < 8; j++) r[j] += a[i + j];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++) res += a[i];
    return res;
}

/* np.add.reduceat's sum of the run r[0 .. count): r[0] plus numpy's pairwise sum
   of the rest, whose serial loop below 8 values is inlined (-0.0 + r[1] is r[1]) */
static double run_sum(const double *r, int64_t count)
{
    double s;
    int64_t i;
    if (count > 8) return r[0] + pairwise(r + 1, count - 1);
    if (count == 1) return r[0];
    for (s = r[1], i = 2; i < count; i++) s += r[i];
    return r[0] + s;
}

/* T_p into even and T_{p+1} into odd, in place from T_{p-2} and T_{p-1}, each by
   numpy's two roundings, the product by twice = 2 d and then the difference */
static void sweep(double *restrict even, double *restrict odd, const double *restrict twice,
                  int64_t len)
{
    int64_t i;
    for (i = 0; i < len; i++) {
        double t = twice[i] * odd[i] - even[i];
        even[i] = t;
        odd[i] = twice[i] * t - odd[i];
    }
}

/* moments[p * size + b] += the sum of T_p(d_j) over bin b, chunk by chunk: 0, or
   -1 if memory ran out, a bin fell outside [0, size) or size is no power of 2
   (m / size is then not m * (1 / size)).  After a stable counting sort by bin,
   the sorted d_j are taken in tiles of whole bins, at most TILE samples unless
   one bin holds more.  A tile's rows (2 d, the even and the odd terms, the odd
   ones in place of the sorted d) stay in L1 while the sweeps make T_2, T_3, ...
   two at a time and each run is summed for both; T_0's run sum is its count.
   Three rows of the chunk are all the scratch. */
int bin_moments(const double *x, int64_t n, int64_t size, double scale, int64_t terms,
                int64_t chunk, double *moments)
{
    int64_t width = n < chunk ? n : chunk, lo, i, b, j, k, next, p, runs;
    double *rows, inverse = 1.0 / (double)size;
    int64_t *bins;
    if (size & (size - 1)) return -1;
    rows = malloc((size_t)(3 * width) * sizeof(double));
    bins = malloc((size_t)(width + size + 1) * sizeof(int64_t));
    for (lo = 0; rows && bins && lo < n; lo += chunk) {
        int64_t len = n - lo < chunk ? n - lo : chunk, start = 0, *ends = bins + width;
        double *twice = rows, *even = rows + width, *sorted = rows + 2 * width;
        memset(ends, 0, (size_t)size * sizeof(int64_t));
        for (i = 0; i < len; i++) {
            double q = x[lo + i] * scale, m;
            q = q < -0x1p1000 ? -0x1p1000 : q > 0x1p1000 ? 0x1p1000 : q;
            m = rint(q);
            twice[i] = 2.0 * (q - m);  /* d_j in sample order, until sorted */
            m -= (double)size * floor(m * inverse);
            if (!(m >= 0.0 && m < (double)size)) break;  /* a NaN, left to numpy */
            ends[bins[i] = (int64_t)m]++;
        }
        if (i < len) break;  /* so lo < n: the call fails */
        for (b = 0; b < size; b++) start = ends[b] += start;  /* ends[b]: end of bin b */
        for (i = len - 1; i >= 0; i--) sorted[--ends[bins[i]]] = twice[i];  /* stable */
        ends[size] = len;  /* ends[b] is now the start of bin b */
        for (b = runs = 0; b < size; b++) if (ends[b + 1] > ends[b]) bins[runs++] = b;
        for (k = 0; k < runs; k = next) {  /* the tile of runs k .. next - 1 */
            int64_t first = ends[bins[k]], count;
            double *odd = sorted + first;  /* T_1, then the odd terms */
            for (next = k + 1; next < runs && ends[bins[next] + 1] - first <= TILE; next++)
                continue;
            count = ends[bins[next - 1] + 1] - first;
            for (i = 0; i < count; i++) twice[i] = odd[i] + odd[i], even[i] = 1.0;
            for (p = 0; p < terms; p += 2) {
                if (p >= 2 && p + 1 < terms) sweep(even, odd, twice, count);
                for (i = 0; p >= 2 && p + 1 == terms && i < count; i++)
                    even[i] = twice[i] * odd[i] - even[i];
                for (j = k; j < next; j++) {  /* each run summed as np.add.reduceat does */
                    int64_t at = ends[bins[j]] - first, run = ends[bins[j] + 1] - first - at;
                    moments[p * size + bins[j]] += p ? run_sum(even + at, run) : (double)run;
                    if (p + 1 < terms)
                        moments[(p + 1) * size + bins[j]] += run_sum(odd + at, run);
                }
            }
        }
    }
    free(rows);
    free(bins);
    return lo < n || !rows || !bins ? -1 : 0;
}

/* out[count + k] = phi_hat(k step) and out[count - k] its conjugate for k = 0..count,
   as (re, im) pairs, from the rFFT rows spectrum[p] (size / 2 + 1 pairs each) and
   weights[p] (count + 1 each), p < terms.  Each k repeats numpy's operations in
   numpy's order: the conjugate, or the mirrored bin past size / 2; the complex
   times real weight as numpy's complex multiply forms it; the even-p and odd-p
   sums in p order, each from its first row; the 1j product; numpy's complex
   division by n, a product with 1 / (n + 0 * 0); and out[count] = 1.  The k run
   in blocks of BLOCK on one side of size / 2, p outside k, so each row is read in order. */
void ecf_contract(const double *spectrum, int64_t size, const double *weights, int64_t terms,
                  int64_t count, double n, double *out)
{
    int64_t lo, len, i, p, row = size / 2 + 1;
    const double scl = 1.0 / (n + 0.0 * 0.0), rat = 0.0 / n;
    double sum[4][BLOCK];  /* even re, even im, odd re, odd im */
    for (lo = 1; lo <= count; lo += len) {
        int64_t mirror = lo > size / 2, end = mirror || count < size / 2 ? count : size / 2;
        len = end - lo + 1 < BLOCK ? end - lo + 1 : BLOCK;
        for (p = 0; p < terms; p++) {
            const double *s = spectrum + 2 * p * row, *w = weights + p * (count + 1) + lo;
            double *re = sum[2 * (p % 2)], *im = sum[2 * (p % 2) + 1];
            for (i = 0; i < len; i++) {
                int64_t j = mirror ? size - lo - i : lo + i;
                double sr = s[2 * j], si = mirror ? s[2 * j + 1] : -s[2 * j + 1];
                double tr = sr * w[i] - si * 0.0, ti = sr * 0.0 + si * w[i];
                re[i] = p < 2 ? tr : re[i] + tr;
                im[i] = p < 2 ? ti : im[i] + ti;
            }
        }
        for (i = 0; i < len; i++) {
            double *up = out + 2 * (count + lo + i), *down = out + 2 * (count - lo - i);
            double re = sum[0][i] + (0.0 * sum[2][i] - 1.0 * sum[3][i]);
            double im = sum[1][i] + (0.0 * sum[3][i] + 1.0 * sum[2][i]);
            up[0] = down[0] = (re + im * rat) * scl;
            up[1] = (im - re * rat) * scl;
            down[1] = -up[1];
        }
    }
    out[2 * count] = 1.0;
    out[2 * count + 1] = 0.0;
}
