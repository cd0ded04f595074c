/* Shortest round-trip formatting of doubles, in the layout of Python's repr.
 *
 * cf_format_rows writes a (rows x cols) matrix of doubles as CSV text: ','
 * between values and '\n' after each row, every value exactly as repr()
 * writes it (sys.float_repr_style 'short').  The caller owns the output
 * buffer and sizes it at 25 bytes per value (24 for the longest repr, one
 * for the separator); the function returns the number of bytes written.
 *
 * The digits are those of repr: the shortest decimal that reads back as the
 * same double, and of those the nearest to it, ties to an even last digit.
 * They come from the Schubfach algorithm (R. Giulietti, "The Schubfach way
 * to render doubles", 2020): v = c 2^q is scaled by a 126-bit
 * over-approximation of 10^-k (the table in _pow10.h, written by
 * _pow10_gen.py) with the product rounded to odd, which keeps every
 * comparison against the rounding interval of v exact.  k is chosen so that
 * the interval holds at least one multiple of 10^k and at most one of
 * 10^(k+1); that one wins when there is one, else the multiple of 10^k
 * nearest v.  Java's Double.toString keeps at least two digits (4.9E-324)
 * and scales the smallest subnormals by 10 to get them; repr keeps one
 * (5e-324), so here every value takes the same path.
 *
 * Layout: plain digits when the decimal exponent lies in [-4, 15], with a
 * trailing ".0" on integral values; otherwise d.ddde+XX with a signed
 * exponent of at least two digits; "-0.0", "inf", "-inf", and "nan" for
 * every NaN whatever its sign.
 *
 * A value with the same bits as the value above it in its column (within
 * one call, in the first REUSE_COLS columns) takes a copy of that value's
 * text instead of being formatted again.
 *
 * cf_snapshot_rows writes the rows t,x,S,u1,u2,u3,T_dot_epsbar of
 * snapshots.csv for a block of whole snapshots, straight from the run's
 * arrays, in the same layout and with the same 25 bytes per value.  It
 * assembles the displacement u of each snapshot itself, with the
 * operations of elasticity.assemble_displacement in their order, so every
 * value is the same bits as there; the text of x is formatted on the first
 * call for a file and copied after that, the text of t once per snapshot,
 * and the other columns reuse the text of the value above as
 * cf_format_rows does.
 */

#include <stdint.h>
#include <string.h>

#include "_pow10.h"

#define C_MIN (1ULL << 52)      /* hidden bit of a normal significand */
#define Q_MIN (-1074)
#define MASK63 ((1ULL << 63) - 1)

typedef unsigned __int128 u128;

/* Fixed-point logarithms, exact over the range of binary64 (checked by
 * _pow10_gen.py); the right shifts of negative products are arithmetic. */
static inline int flog10pow2(int q)
{
    return (int)((int64_t)q * 661971961083LL >> 41);
}

static inline int flog10_three_quarters_pow2(int q)
{
    return (int)(((int64_t)q * 661971961083LL - 274743187321LL) >> 41);
}

static inline int flog2pow10(int e)
{
    return (int)((int64_t)e * 913124641741LL >> 38);
}

/* (g1 2^63 + g0) cp / 2^127, rounded to odd. */
static inline uint64_t rop(uint64_t g1, uint64_t g0, uint64_t cp)
{
    uint64_t x1 = (uint64_t)((u128)g0 * cp >> 64);
    u128 y = (u128)g1 * cp;
    uint64_t z = ((uint64_t)y >> 1) + x1;
    uint64_t vbp = (uint64_t)(y >> 64) + (z >> 63);
    return vbp | ((z & MASK63) + MASK63) >> 63;
}

/* The repr digits of c 2^q, as d 10^e (d may end in zeros). */
static uint64_t to_decimal(int q, uint64_t c, int *e)
{
    uint64_t out = c & 1, cb = c << 2, cbr = cb + 2, cbl;
    int k;
    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = flog10pow2(q);
    } else {  /* the lower neighbour is half as far away */
        cbl = cb - 1;
        k = flog10_three_quarters_pow2(q);
    }
    int h = q + flog2pow10(-k) + 2;
    const uint64_t *g = cf_pow10_g[k - CF_POW10_KMIN];
    uint64_t vb = rop(g[0], g[1], cb << h);
    uint64_t vbl = rop(g[0], g[1], cbl << h);
    uint64_t vbr = rop(g[0], g[1], cbr << h);
    uint64_t s = vb >> 2;
    *e = k;

    /* one digit fewer: the multiple of 10^(k+1) in the interval, if any */
    uint64_t sp10 = s / 10 * 10, tp10 = sp10 + 10;
    int upin = vbl + out <= sp10 << 2;
    int wpin = (tp10 << 2) + out <= vbr;
    if (upin != wpin)
        return upin ? sp10 : tp10;

    /* s or s + 1, whichever is in the interval, else the nearer */
    int uin = vbl + out <= s << 2;
    int win = ((s + 1) << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : s + 1;
    uint64_t mid = (2 * s + 1) << 1;
    return vb < mid || (vb == mid && (s & 1) == 0) ? s : s + 1;
}

static const char digit_pairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

static char *write_double(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t t = bits & (C_MIN - 1);
    int bq = (int)(bits >> 52) & 0x7ff;
    if (bq == 0x7ff && t != 0) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (bq == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (bq == 0 && t == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }

    int e;
    uint64_t d;
    if (bq != 0)
        d = to_decimal(bq - 1075, C_MIN | t, &e);
    else
        d = to_decimal(Q_MIN, t, &e);
    while (d % 10 == 0) {
        d /= 10;
        e++;
    }

    char buf[20], *end = buf + sizeof buf, *dig = end;
    while (d >= 100) {  /* two digits at a time */
        dig -= 2;
        memcpy(dig, digit_pairs + 2 * (d % 100), 2);
        d /= 100;
    }
    if (d >= 10) {
        dig -= 2;
        memcpy(dig, digit_pairs + 2 * d, 2);
    } else {
        *--dig = (char)('0' + d);
    }
    int n = (int)(end - dig);
    int decpt = n + e;  /* value = 0.<digits> 10^decpt */

    if (decpt > -4 && decpt <= 16) {
        if (decpt <= 0) {
            *p++ = '0';
            *p++ = '.';
            memset(p, '0', (size_t)-decpt);
            p += -decpt;
            memcpy(p, dig, (size_t)n);
            p += n;
        } else if (decpt < n) {
            memcpy(p, dig, (size_t)decpt);
            p += decpt;
            *p++ = '.';
            memcpy(p, dig + decpt, (size_t)(n - decpt));
            p += n - decpt;
        } else {
            memcpy(p, dig, (size_t)n);
            p += n;
            memset(p, '0', (size_t)(decpt - n));
            p += decpt - n;
            *p++ = '.';
            *p++ = '0';
        }
        return p;
    }

    *p++ = dig[0];
    if (n > 1) {
        *p++ = '.';
        memcpy(p, dig + 1, (size_t)(n - 1));
        p += n - 1;
    }
    int x10 = decpt - 1;
    *p++ = 'e';
    *p++ = x10 < 0 ? '-' : '+';
    if (x10 < 0)
        x10 = -x10;
    if (x10 >= 100)
        *p++ = (char)('0' + x10 / 100);
    *p++ = (char)('0' + x10 / 10 % 10);
    *p++ = (char)('0' + x10 % 10);
    return p;
}

/* The bits and the text of the last value written in a column; text is
 * NULL before the first. */
struct column {
    uint64_t bits;
    const char *text;
    long len;
};

/* x, as a copy of the text of the value above when the bits are the same,
 * else formatted; x is then the value above. */
static inline char *write_reusing(char *p, double x, struct column *col)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    char *start = p;
    if (col->text != NULL && bits == col->bits) {
        memcpy(p, col->text, (size_t)col->len);
        p += col->len;
    } else {
        p = write_double(p, x);
    }
    col->bits = bits;
    col->text = start;
    col->len = p - start;
    return p;
}

/* Columns whose text a row can reuse: the monitors.csv writer has 11. */
#define REUSE_COLS 16

long cf_format_rows(const double *v, long rows, long cols, char *out)
{
    char *p = out;
    struct column above[REUSE_COLS] = {{0, NULL, 0}};
    for (long i = 0; i < rows; i++) {
        for (long j = 0; j < cols; j++) {
            if (j != 0)
                *p++ = ',';
            double x = v[i * cols + j];
            p = j < REUSE_COLS ? write_reusing(p, x, &above[j]) : write_double(p, x);
        }
        *p++ = '\n';
    }
    return (long)(p - out);
}

/* The term of node j (j >= 1) in the running trapezoid of f. */
static inline double trapezoid_term(const double *f, long j, double half_dx)
{
    return half_dx * (f[j] + f[j - 1]);
}

/* The snapshots.csv rows of ``snaps`` snapshots of ``nodes`` nodes (at
 * least one): t (snaps), the state s, the coupling field seff and the
 * coupling stress tdot (each snaps x nodes), with x and ramp = (x - a) /
 * (d - a) per node, the direction u_star (3) and the correction w
 * (nodes x 3).  u = profile u_star + w, where profile = run - ramp run[-1]
 * and run is the running trapezoid of seff: 0 at the first node, then a sum
 * in node order that starts from its first term, as numpy's cumsum does,
 * so that a -0.0 stays -0.0.  x_text (25 bytes per node) and x_len (one
 * per node) hold the text of x, each with its comma: x_len[0] == 0 asks
 * the call to write them, and later calls for the same file copy them.
 * Returns the number of bytes written to out (25 per value at most). */
long cf_snapshot_rows(const double *t, const double *x, const double *ramp,
                      const double *s, const double *seff, const double *tdot,
                      const double *u_star, const double *w, double dx,
                      long snaps, long nodes, char *x_text, long *x_len,
                      char *out)
{
    if (x_len[0] == 0) {
        char *q = x_text;
        for (long j = 0; j < nodes; j++) {
            char *start = q;
            q = write_double(q, x[j]);
            *q++ = ',';
            x_len[j] = q - start;
        }
    }
    const double half_dx = 0.5 * dx;
    char *p = out;
    struct column above[5] = {{0, NULL, 0}};  /* S, u1, u2, u3, tdot */
    for (long i = 0; i < snaps; i++) {
        const double *si = s + i * nodes, *fi = seff + i * nodes;
        const double *ti = tdot + i * nodes;
        double last = nodes > 1 ? trapezoid_term(fi, 1, half_dx) : 0.0;
        for (long j = 2; j < nodes; j++)  /* run at the last node */
            last += trapezoid_term(fi, j, half_dx);
        char t_text[32];
        long t_len = write_double(t_text, t[i]) - t_text;
        t_text[t_len++] = ',';
        const char *xq = x_text;
        double run = 0.0;
        for (long j = 0; j < nodes; j++) {
            if (j == 1)
                run = trapezoid_term(fi, j, half_dx);
            else if (j > 1)
                run += trapezoid_term(fi, j, half_dx);
            double profile = run - ramp[j] * last;
            memcpy(p, t_text, (size_t)t_len);
            p += t_len;
            memcpy(p, xq, (size_t)x_len[j]);
            p += x_len[j];
            xq += x_len[j];
            p = write_reusing(p, si[j], &above[0]);
            for (int k = 0; k < 3; k++) {
                *p++ = ',';
                p = write_reusing(p, profile * u_star[k] + w[3 * j + k], &above[1 + k]);
            }
            *p++ = ',';
            p = write_reusing(p, ti[j], &above[4]);
            *p++ = '\n';
        }
    }
    return (long)(p - out);
}
