/* Fused forward-Euler chunk loop of the cfphase solver.
 *
 * One call advances the interior nodes of S by up to budget explicit
 * steps along the run's emission plan, and records a row at every planned
 * emission on the way.  The steps have the same arithmetic as the numpy
 * step formula solver._rhs_and_budget, which the tests' reference kernel
 * runs: flux-form diffusion through the flux primitive of the one-sided
 * gradients, the configurational reaction with the central-gradient
 * weight, and the adaptive step-size budget (diffusion limit capped by the
 * reaction Lipschitz estimate).  The monitor integrands of each pre-step
 * state are summed on the fly into acc (a run with a source skips the
 * first five, see below):
 *
 *   acc[0] dissipation   acc[1] reciprocal   acc[2] 4/3-power
 *   acc[3] weight^2      acc[4] |D+S|^(8/3)  acc[5] max |S_t|_2^2
 *   acc[6] running sup   acc[7] last dt      acc[8] last |S_t|_2^2
 *
 * The emission plan is the run driver's (solver._drive):
 *   interval plan (stride 0)  a row when t reaches each stop time in turn,
 *           stops[next_stop], of the n_stops planned (the last is t_end);
 *   stride plan (stride > 0)  a row after every stride-th step of the run
 *           (steps counts them over all calls), and at t_end, its one stop.
 * The call is one loop, walk_plan.  Each trip takes one step towards the
 * next stop, unless t is already within 1e-14 (|stop| + 1) of it (a step
 * that would end within that of the stop is cut to it), and then records a
 * row where the plan has one.  The loop has three exits: t_end (t within
 * 1e-14 (t_end + 1) of it), a non-finite state, and a used-up budget or
 * row store.  It reads the context into locals once per call; the counts
 * of steps, stops and rows stay in the context.  Row i of the record is
 *   rec_scalars[(1 + ACC_SLOTS) i ..]
 *                        t and acc[0..8] as they stand, which
 *                        MonitorAccumulator.build names by ACC_SLOTS (the
 *                        caller puts the initial |S_t|_2^2 in acc[8]
 *                        before the first row);
 *   rec_S[n i ..]        the state;
 *   rec_seff[n i ..]     in modes 1 and 2, the coupling field seff at t.
 * A call writes rows from n_rows on while there is room (row_cap rows); the
 * caller makes room for all stops, or for the rows the call's steps can
 * record, and a call that fills the store returns.
 *
 * The 4/3-power integrand x^(4/3) is x * cbrt(x), and p43_sum holds the
 * one cbrt, a port of glibc's, so the sum makes no library call per node.
 * The step loop stores x = w0 |d2| for P43_BLOCK nodes at a time, and
 * p43_sum computes the products two nodes at a time in SSE2 lanes and adds
 * them to the sum in node order: the same bits as x * cbrt(x) with libm's
 * cbrt on glibc, summed node by node.
 *
 * The loop is bound by the divider: each node takes two weights
 * sqrt(kappa^2 + p^2), the division dp / kappa and the square root and
 * division of asinh's argument, and the reciprocal integrand's division by
 * the central weight.  So for each block of P43_BLOCK nodes divider_pass
 * computes these first, in two passes: the divisions and square roots,
 * which gcc vectorizes into SSE2 pairs (with -fno-math-errno, which keeps
 * sqrt free of its errno branch), then the scalar asinh calls, which take
 * libm's log of the pass's argument on glibc asinh's log branch and libm's
 * asinh on the others.  The node loop reads the values and keeps its sums
 * and maxima in node order; every value keeps its IEEE operations, so the
 * step has the bits of the scalar formula.
 *
 * Once dt is fixed, a step without a source and without dt_override clamps
 * each interior node's new value to the [min, max] of the old S[j - 1],
 * S[j] and S[j + 1] (clamped_update), a node-local maximum-principle
 * limiter (Zhang and Shu, JCP 229 (2010)).  Where every mesh Peclet number
 * is at most 1 the central update is already a convex combination of those
 * three values and the clamp changes no bit.  A step whose |S_t|_2^2 is
 * not finite is not clamped, so an inf or a NaN reaches the check that ends
 * the run.  The monitors keep the unclamped right-hand side: rhs_prev and
 * the sums behind acc[1], acc[5] and acc[8].
 *
 * Everything a run carries from call to call (the arrays, the grid and
 * model constants, the coupling and source data, the causal history, the
 * emission plan and the record) lives in a struct cf_ctx that the caller
 * fills once per run; each call passes only the struct, t and the step
 * budget.  The struct layout is mirrored field for field by
 * _native.Context, which _native._CompiledKernel fills; _native checks its
 * size against cf_context_size() when it loads the library.
 *
 * The stress sees the coupling field s_eff only through
 * alpha s_eff - beta mean(s_eff) + sig_eps, and the node loop reads s_eff
 * from one buffer whatever the mode: S in mode 0 (direct), seff in modes 1
 * and 2, with its mean in seff_mean.  The mode only picks the work done
 * between steps:
 *   mode 0  the trapezoid mean of S, before each step;
 *   mode 1  after each step, table_refresh writes the field at the new t
 *           into seff and seff_mean, interpolated linearly in time from a
 *           table of n_tab rows spaced tab_dt apart from tab_t0 (the global
 *           fixed-point sweeps);
 *   mode 2  after each step, the causal kernel average of the past states
 *           at the new t (mollified coupling) over a thinned history (the
 *           tests' numpy copy is oracles._CausalHistory): the history starts
 *           with the state at t = 0 and keeps states at least hist_spacing
 *           apart in hist_times/hist_rows (capacity hist_cap, live rows
 *           [hist_lo, hist_hi)), and the loop appends the new state and
 *           averages into seff, with its trapezoid mean in seff_mean.
 *           The history always covers the window: after each step
 *           history_append either keeps the new state, so the last kept
 *           time hist_last is t, or skips it because t lies less than
 *           hist_spacing past hist_last, and t stays finite, since each
 *           step is cut to its stop.  So the window [max(0, t - kappa), t]
 *           ends less than a spacing after the last kept state, on a sliver
 *           where the causal kernel vanishes at its leading edge, and the
 *           average holds the last kept state there.
 * In modes 1 and 2 the caller seeds seff and seff_mean with the field at
 * the starting time; the next step and the record read what the last step
 * left there.
 *
 * The kernel average has one implementation, window_average, expanded for
 * the causal kernel of mode 2 and, through cf_kernel_average, for the
 * centered one of the fixed-point sweeps' tables (the tests' numpy
 * reference is oracles.mollify_arrays).  It is written so that gcc
 * vectorizes it, with the same bits as plain scalar loops: the kernel
 * weights go in three passes (the bump's exponent at every point, the
 * scalar libm exp calls, the scaling), and the row sum keeps 16 nodes at a
 * time in register accumulators, each summed over the rows in order from
 * 0.0, with the leftover nodes one at a time.
 *
 * With src nonzero, each step adds the manufactured source of the decaying
 * sine mode s = exp(-t) sin(arg(x)) to the right-hand side: the residual
 * s_t - c nu w s_xx - c (alpha s - beta mean - psi'(s)) (w - kappa) with
 * w = sqrt(kappa^2 + s_x^2), from the rows src_sin = sin(arg) and
 * src_cos = cos(arg), the wave number src_k (d/dx arg) and the mean of
 * sin(arg) over the domain, src_mean.  The products keep the operand order
 * of convergence.manufactured_source, with two exceptions a rounding apart:
 * the mean is exp(-t) * src_mean here and (exp(-t) * 2) / pi there, and w
 * is a square root here and np.hypot there.
 *
 * cf_chunk_loop expands walk_plan twice, once for each constant src.  The
 * runs with a source are those of convergence.manufactured_run, which read
 * only the states, so the src expansion computes none of the five running
 * integrals acc[0..4] (their slots stay as the caller left them, NaN).
 * Four places test src for this: the reciprocal division in divider_node,
 * the 4/3-power store, the p43_sum call and the block that updates
 * acc[0..4].  The other integrands (d2, the sums m_w, m_wsq and m_recip,
 * gmax with its pow) feed only that block, so they are dead code in the
 * src expansion and the compiler drops them; the expansion without src
 * compiles to the same code as a loop without the tests.  Both expansions
 * keep all that drives the state or ends the run: wmax and w0max (the step
 * size), rhs_prev, the sum of r^2 behind st_l2 (the one NaN check on the
 * right-hand side; acc[5] and acc[8]), sup_new (acc[6]) and acc[7].
 *
 * Returns the number of steps taken; ctx->t receives the new time and
 * ctx->status 0 (t_end reached), 1 (non-finite state) or 2 (the steps or
 * the rows of the call used up).
 * Build without -ffast-math: the NaN checks rely on IEEE comparisons.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* The monitor slots of acc, estimates.ACC_SLOTS; a record row holds t and
 * these. */
#define ACC_SLOTS 9

struct cf_ctx {
    double *S;              /* n, updated in place */
    double *rhs_prev;       /* n */
    double *acc;            /* ACC_SLOTS */
    long n;
    double dx, kappa, c, nu, alpha, beta, inv_len;
    const double *sig_eps;  /* n */
    const double *dcoeffs;  /* ncoef, psi' coefficients, highest first */
    long ncoef;
    double react_coef, safety, dt_override;
    long mode;
    double *seff;           /* n, modes 1 and 2: the coupling field at t */
    double seff_mean;
    /* mode 1 */
    double tab_t0, tab_dt;
    const double *tab_vals; /* n_tab x n */
    long n_tab;
    const double *tab_means;
    /* manufactured source */
    long src;
    const double *src_sin, *src_cos;
    double src_k, src_mean;
    /* mode 2 */
    double *hist_times;     /* hist_cap */
    double *hist_rows;      /* hist_cap x n */
    long hist_cap, hist_lo, hist_hi;
    double hist_last, hist_spacing, bump_mass;
    long samples;
    double *mol_w;          /* samples */
    double *mol_coef;       /* 2 hist_cap */
    /* the emission plan and the record */
    const double *stops;    /* n_stops, interval plan */
    long n_stops, next_stop;
    long stride, steps;     /* stride plan (stride > 0); steps of the run */
    double t_end;
    double *rec_scalars;    /* 1 + ACC_SLOTS per row */
    double *rec_S;          /* n per row */
    double *rec_seff;       /* n per row, modes 1 and 2 */
    long n_rows, row_cap;
    /* results of the last call */
    double t;
    long status;
};

long cf_context_size(void)
{
    return (long)sizeof(struct cf_ctx);
}

/* Nodes per call of p43_sum in the step loop. */
#define P43_BLOCK 64

typedef double v2df __attribute__((vector_size(16)));
typedef uint64_t v2du __attribute__((vector_size(16)));

/* 2^((xe % 3) / 3), indexed by 2 + xe % 3. */
static const double cbrt_factor[5] = {
    1.0 / 1.5874010519681994748, /* 2^(-2/3) */
    1.0 / 1.2599210498948731648, /* 2^(-1/3) */
    1.0,
    1.2599210498948731648,       /* 2^(1/3) */
    1.5874010519681994748,       /* 2^(2/3) */
};

/* Replaces x[0..n) by x * cbrt(x) and returns acc plus the products, added
 * in order.  The values go two at a time in SSE2 lanes (GCC vector
 * extensions); a lone last value rides with a zero second lane, which is
 * neither stored nor summed.  Each lane computes cbrt as glibc 2.36 does
 * (sysdeps/ieee754/dbl-64/s_cbrt.c, the generic code x86_64 runs), with its
 * operations in their order: the 6th-degree initial guess u on the frexp
 * significand xm in [0.5, 1), u * u * u, the single Halley quotient, the
 * factor 2^((xe % 3) / 3) with C's truncating % and /, and glibc's ldexp by
 * xe / 3 as a product with 2^(xe / 3), exact because the root of a normal x
 * is normal; -ym is ym (which is positive) with the sign bit of x set.  So
 * the product of a normal x has the bits of x * cbrt(x) with libm's cbrt on
 * glibc.  glibc scales a subnormal by 2^54 first and returns x + x for
 * zero, +-inf and NaN; the lanes do neither and still give libm's
 * products, because their root is finite with the sign of x: +-0 and
 * subnormals give +0 (|x root| < 2^-1000 rounds to zero), +-inf gives +inf
 * and NaN gives x quieted.  Needs -ffp-contract=off: a fused Halley step
 * would round differently.  Not inlined: the step loop makes one call per
 * block. */
static __attribute__((noinline)) double p43_sum(double *x, long n, double acc)
{
    const v2du mant = {0x000fffffffffffffULL, 0x000fffffffffffffULL};
    const v2du half = {0x3fe0000000000000ULL, 0x3fe0000000000000ULL};
    const v2du sign = {0x8000000000000000ULL, 0x8000000000000000ULL};
    for (long i = 0; i < n; i += 2) {
        const int pair = i + 1 < n;
        v2df xv = {x[i], pair ? x[i + 1] : 0.0};
        const v2du bits = (v2du)xv;
        const int xe0 = (int)((bits[0] >> 52) & 0x7ff) - 1022;
        const int xe1 = (int)((bits[1] >> 52) & 0x7ff) - 1022;
        const v2df xm = (v2df)((bits & mant) | half);
        const v2df u = (0.354895765043919860
                        + ((1.50819193781584896
                            + ((-2.11499494167371287
                                + ((2.44693122563534430
                                    + ((-1.83469277483613086
                                        + (0.784932344976639262 - 0.145263899385486377 * xm) * xm)
                                       * xm))
                                   * xm))
                               * xm))
                           * xm));
        const v2df t2 = u * u * u;
        const v2df factor = {cbrt_factor[2 + xe0 % 3], cbrt_factor[2 + xe1 % 3]};
        const v2df ym = u * (t2 + 2.0 * xm) / (2.0 * t2 + xm) * factor;
        const v2du pbits = {(uint64_t)(xe0 / 3 + 1023) << 52,
                            (uint64_t)(xe1 / 3 + 1023) << 52};
        const v2df root = (v2df)((v2du)ym | (bits & sign)) * (v2df)pbits;
        xv = xv * root;
        x[i] = xv[0];
        acc += xv[0];
        if (pair) {
            x[i + 1] = xv[1];
            acc += xv[1];
        }
    }
    return acc;
}

/* x * cbrt(x) of n values into prod, in blocks of P43_BLOCK as the chunk
 * loop sums them; returns their sum from 0.0 in order.  For testing the
 * pass against libm. */
double cf_p43_rows(const double *x, long n, double *prod)
{
    double acc = 0.0;
    memcpy(prod, x, (size_t)n * sizeof(double));
    for (long i = 0; i < n; i += P43_BLOCK)
        acc = p43_sum(prod + i, n - i < P43_BLOCK ? n - i : P43_BLOCK, acc);
    return acc;
}

/* The glibc 2.36 asinh (sysdeps/ieee754/dbl-64/s_asinh.c) takes the log of
 * this argument on its log branch, 2 + 2^-19 <= |x| < 2^28 + 2^8: 2|x| +
 * 1 / (sqrt(x^2 + 1) + |x|), with its operations in their order.  A plain
 * expression, so the divider pass computes it two nodes at a time. */
static inline double asinh_arg(double x)
{
    const double xa = fabs(x);
    return 2.0 * xa + 1.0 / (sqrt(xa * xa + 1.0) + xa);
}

/* Replaces arg[b] = asinh_arg(x[b]) by asinh(x[b]) for b < n, with the bits
 * of libm's asinh on glibc: on the log branch, chosen by glibc's test of the
 * high word ix (the bound values alone pick the branch wrongly near 2 + 2^-19
 * and 2^28 + 2^8), libm's log of the argument with the sign of x, which is
 * what glibc's asinh computes there; libm's asinh on every other branch. */
static inline void asinh_pass(const double *x, double *arg, long n)
{
    for (long b = 0; b < n; b++) {
        uint64_t bits;
        memcpy(&bits, &x[b], sizeof bits);
        const uint32_t ix = (uint32_t)(bits >> 32) & 0x7fffffff;
        arg[b] = ix > 0x40000000 && ix <= 0x41b00000 ? copysign(log(arg[b]), x[b])
                                                     : asinh(x[b]);
    }
}

/* asinh of n values into out, as the step loop computes it; for testing the
 * passes against libm. */
void cf_asinh_rows(const double *x, long n, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = asinh_arg(x[i]);
    asinh_pass(x, out, n);
}

/* Nodes per trip of the divider pass's vectorized loop. */
#define NODE_LANES 8

/* The divisions and square roots of up to P43_BLOCK nodes of a step. */
struct divider_block {
    double wp[P43_BLOCK];     /* the one-sided weight |D+S|_kappa */
    double w0[P43_BLOCK];     /* the central weight */
    double recip[P43_BLOCK];  /* rhs_prev^2 / w0; not with src */
    double x[P43_BLOCK];      /* D+S / kappa */
    double ash[P43_BLOCK];    /* asinh's argument, then asinh(x) */
};

/* Node j of a step into slot b of v, each value with the operations of the
 * step formula in their order (the node loop's dp_prev is the backward
 * difference here, computed the same way). */
static inline __attribute__((always_inline)) void
divider_node(struct divider_block *v, const double *S, const double *rhs_prev,
             long j, long b, double inv_dx, double kappa, double kap2, const int src)
{
    const double dp = (S[j + 1] - S[j]) * inv_dx;
    const double d0 = 0.5 * (dp + (S[j] - S[j - 1]) * inv_dx);
    const double w0 = sqrt(kap2 + d0 * d0);
    const double x = dp / kappa;
    v->wp[b] = sqrt(kap2 + dp * dp);
    v->w0[b] = w0;
    if (!src)
        v->recip[b] = rhs_prev[j] * rhs_prev[j] / w0;
    v->x[b] = x;
    v->ash[b] = asinh_arg(x);
}

/* The nodes j0 .. j0 + len - 1 (len <= P43_BLOCK) of a step into v: the
 * divisions and square roots NODE_LANES nodes at a time, a constant trip
 * that gcc vectorizes, the leftover nodes one at a time, then the asinh
 * calls. */
static inline __attribute__((always_inline)) void
divider_pass(struct divider_block *v, const double *S, const double *rhs_prev,
             long j0, long len, double inv_dx, double kappa, double kap2, const int src)
{
    long b = 0;
    for (; b + NODE_LANES <= len; b += NODE_LANES)
        for (int k = 0; k < NODE_LANES; k++)
            divider_node(v, S, rhs_prev, j0 + b + k, b + k, inv_dx, kappa, kap2, src);
    for (; b < len; b++)
        divider_node(v, S, rhs_prev, j0 + b, b, inv_dx, kappa, kap2, src);
    asinh_pass(v->x, v->ash, len);
}

/* numpy's pairwise summation (its float64 add reduction), so that the
 * kernel weights are totalled as np.sum totals them. */
static double pairwise_sum(const double *a, long n)
{
    if (n < 8) {
        double res = -0.0;
        for (long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Point i of np.linspace(s0, s1, samples). */
static inline double linspace_at(double s0, double s1, long samples, long i)
{
    if (samples > 1 && i == samples - 1)
        return s1;
    return samples > 1 ? (double)i * ((s1 - s0) / (double)(samples - 1)) + s0 : s0;
}

/* model._bracket for one point s of the m live times (m >= 2): the
 * left row of searchsorted(side="right") - 1 clipped to [0, m-2], starting
 * the search at *pos (points must come in increasing order), and the
 * clipped interpolation weight of the row after it. */
static inline long bracket(const double *times, long m, double s, long *pos,
                           double *theta)
{
    long p = *pos;
    while (p < m && times[p] <= s)
        p++;
    *pos = p;
    long idx = p - 1;
    if (idx < 0)
        idx = 0;
    if (idx > m - 2)
        idx = m - 2;
    double denom = times[idx + 1] - times[idx];
    double th = (s - times[idx]) / (denom > 0.0 ? denom : 1.0);
    if (th < 0.0)
        th = 0.0;
    if (th > 1.0)
        th = 1.0;
    *theta = th;
    return idx;
}

/* model._sample_rows at the single point s, into out. */
static void sample_row(const double *times, const double *rows, long m, long n,
                       double s, double *out)
{
    if (m == 1) {
        memcpy(out, rows, (size_t)n * sizeof(double));
        return;
    }
    long pos = 0;
    double th;
    long idx = bracket(times, m, s, &pos, &th);
    const double *r0 = rows + idx * n, *r1 = r0 + n;
    for (long j = 0; j < n; j++)
        out[j] = (1.0 - th) * r0[j] + th * r1[j];
}

/* The trapezoid mean of the n values v over the domain: the rule's sum
 * times dx / length. */
static inline double trapezoid_mean(const double *v, long n, double dx, double inv_len)
{
    double acc = 0.5 * (v[0] + v[n - 1]);
    for (long j = 1; j < n - 1; j++)
        acc += v[j];
    return acc * dx * inv_len;
}

/* Keep (t, S) if it lies at least a spacing after the last kept state, then
 * drop the states before the window (the tests' numpy copy is
 * oracles._CausalHistory.append). */
static void history_append(struct cf_ctx *ctx, double t, const double *S)
{
    const long n = ctx->n;
    long lo = ctx->hist_lo, hi = ctx->hist_hi;
    double *times = ctx->hist_times, *rows = ctx->hist_rows;
    if (t - ctx->hist_last < ctx->hist_spacing)
        return;
    if (hi == ctx->hist_cap) {
        long live = hi - lo;
        memmove(times, times + lo, (size_t)live * sizeof(double));
        memmove(rows, rows + lo * n, (size_t)(live * n) * sizeof(double));
        lo = 0;
        hi = live;
    }
    times[hi] = t;
    memcpy(rows + hi * n, S, (size_t)n * sizeof(double));
    hi++;
    ctx->hist_last = t;
    double edge = t - ctx->kappa - 4.0 * ctx->hist_spacing;
    while (hi - lo > 2 && times[lo + 1] < edge)
        lo++;
    ctx->hist_lo = lo;
    ctx->hist_hi = hi;
}

/* The hot loops of window_average are written so that gcc vectorizes them
 * at -O2, whose cost model takes only loops of a constant trip count: the
 * arithmetic runs in blocks of a constant number of nodes or points, and
 * the leftover ones go one at a time.  Every value keeps its own sequence
 * of IEEE operations, so the results have the same bits as plain loops. */
#define ROW_BLOCK 16
#define POINT_BLOCK 8

/* The bump's exponent -1 / (1 - tau^2) at the point s of the kernel's
 * window at t, with tau = (t - s) / kappa for the centered kernel and
 * 2 (t - s) / kappa - 1 for the causal one: negative exactly where
 * |tau| < 1 (1 - tau^2 rounds to at least 2^-53 there), -inf at |tau| = 1,
 * where exp gives the bump's 0, and +0, positive or NaN elsewhere.  So
 * bump_weights takes exp of the negative exponents and 0 for the rest, and
 * this pass needs no branch. */
static inline double bump_exponent(double t, double s, double kappa, const int centered)
{
    double tau = centered ? (t - s) / kappa : 2.0 * (t - s) / kappa - 1.0;
    return -1.0 / (1.0 - tau * tau);
}

/* The kernel weights f bump(tau) / norm at the points of
 * np.linspace(s0, s1, samples), into w, with f = 1 for the centered kernel
 * and 2 for the causal one, in three passes: the exponent at every point
 * (linspace_at inlined; exact integer lane offsets keep (double)i), the
 * scalar libm exp calls, and the scaling. */
static inline __attribute__((always_inline)) void
bump_weights(double *w, long samples, double s0, double s1, double t,
             double kappa, double norm, const int centered)
{
    static const double lane[POINT_BLOCK] = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
    const double f = centered ? 1.0 : 2.0;
    const long lastp = samples - 1;
    const double step = lastp > 0 ? (s1 - s0) / (double)lastp : 0.0;
    long i = 0;
    for (; i + POINT_BLOCK <= lastp; i += POINT_BLOCK) {
        const double base = (double)i;
        for (int b = 0; b < POINT_BLOCK; b++)
            w[i + b] = bump_exponent(t, (base + lane[b]) * step + s0, kappa, centered);
    }
    for (; i < lastp; i++)
        w[i] = bump_exponent(t, (double)i * step + s0, kappa, centered);
    w[lastp] = bump_exponent(t, lastp > 0 ? s1 : s0, kappa, centered);

    for (i = 0; i < samples; i++)
        w[i] = w[i] < 0.0 ? exp(w[i]) : 0.0;

    for (i = 0; i + POINT_BLOCK <= samples; i += POINT_BLOCK)
        for (int b = 0; b < POINT_BLOCK; b++)
            w[i + b] = f * w[i + b] / norm;
    for (; i < samples; i++)
        w[i] = f * w[i] / norm;
}

/* out[j] = sum of coef[k] * rows[k][j] over the rows k = first..last,
 * each node summed from 0.0 in row order, ROW_BLOCK nodes at a time in
 * register accumulators.  The unrolling (16 = ROW_BLOCK: the pragma takes
 * no macro) is what keeps the accumulators in registers. */
static inline __attribute__((always_inline)) void
row_sum(const double *coef, const double *rows, long first, long last, long n,
        double *out)
{
    long j = 0;
    for (; j + ROW_BLOCK <= n; j += ROW_BLOCK) {
        double acc[ROW_BLOCK];
#pragma GCC unroll 16
        for (int b = 0; b < ROW_BLOCK; b++)
            acc[b] = 0.0;
        for (long k = first; k <= last; k++) {
            const double ck = coef[k];
            const double *row = rows + k * n + j;
#pragma GCC unroll 16
            for (int b = 0; b < ROW_BLOCK; b++)
                acc[b] += ck * row[b];
        }
#pragma GCC unroll 16
        for (int b = 0; b < ROW_BLOCK; b++)
            out[j + b] = acc[b];
    }
    for (; j < n; j++) {
        double acc = 0.0;
        for (long k = first; k <= last; k++)
            acc += coef[k] * rows[k * n + j];
        out[j] = acc;
    }
}

/* The kernel average at t of the m rows of n values stored at times into
 * out: the trapezoid rule at samples points of the window, the kernel's
 * support clipped to [0, t_end], each row linearly interpolated in time and
 * the weights renormalized to unit mass.  A window of at most 1e-15 scale
 * is the one row at its start, and one where the bump underflows
 * everywhere the row at its heaviest point.  norm is the bump's mass times
 * kappa; w holds samples values, and coef 2 m. */
static inline __attribute__((always_inline)) void
window_average(const double *times, const double *rows, long m, long n,
               double t, double t_end, double kappa, double norm, long samples,
               double *w, double *coef, double *out, const int centered)
{
    const double s0 = t - kappa > 0.0 ? t - kappa : 0.0;
    const double reach = centered ? t + kappa : t;
    const double s1 = reach < t_end ? reach : t_end;
    if (s1 - s0 <= 1e-15 * (t_end > 1.0 ? t_end : 1.0)) {
        sample_row(times, rows, m, n, s0, out);
        return;
    }
    bump_weights(w, samples, s0, s1, t, kappa, norm, centered);
    w[0] *= 0.5;
    w[samples - 1] *= 0.5;
    double total = pairwise_sum(w, samples);
    if (total <= 0.0 || !isfinite(total)) {
        /* the bump underflows on the whole window: a point mass at the
         * first heaviest point, as np.argmax picks it */
        long best = 0;
        for (long i = 1; i < samples && !isnan(w[best]); i++)
            if (w[i] > w[best] || isnan(w[i]))
                best = i;
        sample_row(times, rows, m, n, linspace_at(s0, s1, samples, best), out);
    } else if (m == 1) {
        for (long i = 0; i < samples; i++)
            w[i] = w[i] / total;
        double mass = pairwise_sum(w, samples);
        for (long j = 0; j < n; j++)
            out[j] = mass * rows[j];
    } else {
        /* each point hands a (1 - theta) to its left row and a theta to
         * the right one, summed per row in point order as np.bincount
         * does; then one pass over the touched rows */
        double *c0 = coef, *c1 = coef + m;
        for (long k = 0; k < m; k++)
            c0[k] = c1[k] = 0.0;
        long pos = 0, first = -1, last = 0;
        for (long i = 0; i < samples; i++) {
            double a = w[i] / total, th;
            long idx = bracket(times, m, linspace_at(s0, s1, samples, i), &pos, &th);
            if (first < 0)
                first = idx;
            last = idx + 1;
            c0[idx] += a * (1.0 - th);
            c1[idx + 1] += a * th;
        }
        for (long k = first; k <= last; k++)
            c0[k] += c1[k];
        row_sum(c0, rows, first, last, n, out);
    }
}

/* The causal kernel average of the live history at t (horizon t), into
 * ctx->seff and its trapezoid mean into ctx->seff_mean.  The history ends
 * within a spacing of t (see the header).  Aligned to a cache line, so its
 * loops keep their place whatever code comes before it: moved from a
 * 64-byte boundary to 48 bytes past one, it ran about 1.5 % slower. */
static __attribute__((aligned(64))) void
causal_average(struct cf_ctx *ctx, double t)
{
    const long n = ctx->n, lo = ctx->hist_lo, m = ctx->hist_hi - lo;
    window_average(ctx->hist_times + lo, ctx->hist_rows + lo * n, m, n, t, t,
                   ctx->kappa, ctx->bump_mass * ctx->kappa, ctx->samples,
                   ctx->mol_w, ctx->mol_coef, ctx->seff, 0);
    ctx->seff_mean = trapezoid_mean(ctx->seff, n, ctx->dx, ctx->inv_len);
}

/* The kernel average (see window_average) of the m rows of n values stored
 * at times at each of the nt times ts, into the rows of out (nt x n): the
 * centered kernel if centered is nonzero, else the causal one, at
 * samples >= 1 points.  The caller has checked that the rows cover every
 * window; w holds samples values, and coef 2 m.  Returns nt. */
long cf_kernel_average(const double *times, const double *rows, long m, long n,
                       const double *ts, long nt, double t_end, double kappa,
                       double bump_mass, long centered, long samples, double *w,
                       double *coef, double *out)
{
    for (long i = 0; i < nt; i++)
        if (centered)
            window_average(times, rows, m, n, ts[i], t_end, kappa, bump_mass * kappa,
                           samples, w, coef, out + i * n, 1);
        else
            window_average(times, rows, m, n, ts[i], t_end, kappa, bump_mass * kappa,
                           samples, w, coef, out + i * n, 0);
    return nt;
}

/* The coupling table interpolated linearly in time at t, into seff and its
 * mean into seff_mean: the rows idx and idx + 1 that bracket t, weighted
 * 1 - theta and theta, with theta clipped to [0, 1]. */
static void table_refresh(struct cf_ctx *ctx, double t)
{
    const long n = ctx->n;
    double pos = (t - ctx->tab_t0) / ctx->tab_dt;
    long idx = 0;
    if (pos >= (double)(ctx->n_tab - 2))
        idx = ctx->n_tab - 2;
    else if (pos > 0.0)
        idx = (long)pos;
    double th = pos - (double)idx;
    if (th < 0.0)
        th = 0.0;
    if (th > 1.0)
        th = 1.0;
    const double *r0 = ctx->tab_vals + idx * n, *r1 = r0 + n;
    double *seff = ctx->seff;
    for (long j = 0; j < n; j++)
        seff[j] = (1.0 - th) * r0[j] + th * r1[j];
    ctx->seff_mean = (1.0 - th) * ctx->tab_means[idx] + th * ctx->tab_means[idx + 1];
}

/* The new value of a node whose old value o lies between the old values
 * l and r of its neighbours, after the increment d: o + d clamped to the
 * range of l, o and r.  Each comparison keeps o + d, bit for bit, wherever
 * it lies in that range, and gcc compiles each to one minpd or maxpd. */
static inline __attribute__((always_inline)) double
in_range(double l, double o, double r, double d)
{
    double lo = l < o ? l : o, hi = o < l ? l : o;
    lo = r < lo ? r : lo;
    hi = hi < r ? r : hi;
    double v = o + d;
    v = v < lo ? lo : v;
    return hi < v ? hi : v;
}

/* The update S[j] += dt rhs[j] of the nodes 1 .. nm1 - 1 with the
 * local-range clamp (see the header); returns the largest |S| it writes.
 * Each node reads its neighbours' old values, so each block of NODE_LANES
 * new values goes into S only after the next block has read them; the
 * blocks are constant-trip loops, which gcc vectorizes into SSE2 pairs,
 * with one running maximum per lane (a maximum does not round, so any
 * order gives the same bits). */
static inline __attribute__((always_inline)) double
clamped_update(double *S, const double *rhs, long nm1, double dt)
{
    double nv[2][NODE_LANES], sup[NODE_LANES] = {0.0};
    long j = 1;
    int b = 0;
    for (; j + NODE_LANES <= nm1; j += NODE_LANES, b ^= 1) {
        for (int k = 0; k < NODE_LANES; k++) {
            nv[b][k] = in_range(S[j + k - 1], S[j + k], S[j + k + 1], dt * rhs[j + k]);
            const double a = fabs(nv[b][k]);
            sup[k] = sup[k] < a ? a : sup[k];
        }
        if (j > 1)
            for (int k = 0; k < NODE_LANES; k++)
                S[j - NODE_LANES + k] = nv[b ^ 1][k];
    }
    const long tail = nm1 - j;
    for (long k = 0; k < tail; k++) {
        nv[b][k] = in_range(S[j + k - 1], S[j + k], S[j + k + 1], dt * rhs[j + k]);
        const double a = fabs(nv[b][k]);
        sup[k] = sup[k] < a ? a : sup[k];
    }
    if (j > 1)
        for (int k = 0; k < NODE_LANES; k++)
            S[j - NODE_LANES + k] = nv[b ^ 1][k];
    double sup_new = 0.0;
    for (int k = 0; k < NODE_LANES; k++) {
        if (k < tail)
            S[j + k] = nv[b][k];
        if (sup[k] > sup_new)
            sup_new = sup[k];
    }
    return sup_new;
}

/* Row n_rows of the record, at t (see the header). */
static inline void record_row(struct cf_ctx *ctx, double t)
{
    const long n = ctx->n, i = ctx->n_rows;
    double *const row = ctx->rec_scalars + (1 + ACC_SLOTS) * i;
    row[0] = t;
    memcpy(row + 1, ctx->acc, ACC_SLOTS * sizeof(double));
    memcpy(ctx->rec_S + i * n, ctx->S, (size_t)n * sizeof(double));
    if (ctx->mode != 0)
        memcpy(ctx->rec_seff + i * n, ctx->seff, (size_t)n * sizeof(double));
    ctx->n_rows = i + 1;
}

/* The loop (see the header), expanded by cf_chunk_loop once for each
 * constant src, so no loop carries a per-node check of it: at most budget
 * steps along the emission plan.  Each trip takes one step towards the next
 * stop (t_end under the stride plan), unless t is already within
 * 1e-14 (|stop| + 1) of it, and then records a row where the plan has
 * one. */
static inline __attribute__((always_inline)) long
walk_plan(struct cf_ctx *ctx, double t, long budget, const int src)
{
    double *const S = ctx->S, *const rhs_prev = ctx->rhs_prev;
    double *const acc = ctx->acc;
    const long n = ctx->n, ncoef = ctx->ncoef, mode = ctx->mode;
    const double dx = ctx->dx, kappa = ctx->kappa, c = ctx->c, nu = ctx->nu;
    const double alpha = ctx->alpha, beta = ctx->beta, inv_len = ctx->inv_len;
    const double *const sig_eps = ctx->sig_eps, *const dcoeffs = ctx->dcoeffs;
    const double react_coef = ctx->react_coef, safety = ctx->safety;
    const double dt_override = ctx->dt_override;
    const double *const src_sin = ctx->src_sin, *const src_cos = ctx->src_cos;
    const double src_k = ctx->src_k, src_mean = ctx->src_mean;
    const double *const seff = mode == 0 ? S : ctx->seff;
    const double *const stops = ctx->stops;
    const long n_stops = ctx->n_stops, stride = ctx->stride, row_cap = ctx->row_cap;
    const double t_end = ctx->t_end;

    const long nm1 = n - 1;
    const double inv_dx = 1.0 / dx;
    const double kap2 = kappa * kappa;
    const double cnu = c * nu;
    const double diff_coef = safety * dx * dx / (2.0 * cnu);
    const double end_tiny = 1e-14 * (t_end + 1.0);
    const int clamp = !src && !(dt_override > 0.0);
    long done = 0;
    long status = 2;

    while (done < budget && ctx->n_rows < row_cap
           && (stride > 0 || ctx->next_stop < n_stops)) {
        const double t_stop = stride > 0 ? t_end : stops[ctx->next_stop];
        const double tiny = 1e-14 * (fabs(t_stop) + 1.0);
        int reached = t_stop - t <= tiny;
        if (!reached) {
            double e = 0.0, ek = 0.0, ekk = 0.0, mean = 0.0;
            if (src) {
                e = exp(-t);
                ek = e * src_k;
                ekk = ek * src_k;
                mean = e * src_mean;
            }
            const double ibar = mode == 0 ? trapezoid_mean(S, n, dx, inv_len)
                                          : ctx->seff_mean;

            double dp_prev = (S[1] - S[0]) * inv_dx;
            double wp = sqrt(kap2 + dp_prev * dp_prev);
            double wmax = wp;
            double gmax = fabs(dp_prev);
            double f_prev = 0.5 * (dp_prev * wp + kap2 * asinh(dp_prev / kappa));
            double w0max = kappa;
            double m_w = 0.0, m_p43 = 0.0, m_wsq = 0.0, m_rhs = 0.0, m_recip = 0.0;
            double p43[P43_BLOCK];
            struct divider_block blk;
            for (long j0 = 1; j0 < nm1; j0 += P43_BLOCK) {
                const long j1 = nm1 - j0 < P43_BLOCK ? nm1 : j0 + P43_BLOCK;
                divider_pass(&blk, S, rhs_prev, j0, j1 - j0, inv_dx, kappa, kap2, src);
                for (long j = j0; j < j1; j++) {
                    const long b = j - j0;
                    double dp = (S[j + 1] - S[j]) * inv_dx;
                    wp = blk.wp[b];
                    if (wp > wmax)
                        wmax = wp;
                    double g = fabs(dp);
                    if (g > gmax)
                        gmax = g;
                    double f = 0.5 * (dp * wp + kap2 * blk.ash[b]);
                    double w0 = blk.w0[b];
                    if (w0 > w0max)
                        w0max = w0;
                    double d2 = (dp - dp_prev) * inv_dx;
                    double sj = S[j];
                    double psi_p = dcoeffs[0];
                    for (long k = 1; k < ncoef; k++)
                        psi_p = psi_p * sj + dcoeffs[k];
                    double tdot = alpha * seff[j] - beta * ibar + sig_eps[j];
                    double r = cnu * (f - f_prev) * inv_dx
                               + c * (tdot - psi_p) * (w0 - kappa);
                    if (src) {
                        double s = e * src_sin[j];
                        double s_x = ek * src_cos[j];
                        double s_xx = -(ekk * src_sin[j]);
                        double w = sqrt(kap2 + s_x * s_x);
                        double psi_s = dcoeffs[0];
                        for (long k = 1; k < ncoef; k++)
                            psi_s = psi_s * s + dcoeffs[k];
                        double tdot_s = alpha * s - beta * mean;
                        r = r + (-s - cnu * w * s_xx
                                 - c * (tdot_s - psi_s) * (w - kappa));
                    }
                    m_recip += blk.recip[b];
                    rhs_prev[j] = r;
                    m_w += w0 * d2 * d2;
                    if (!src)
                        p43[j - j0] = w0 * fabs(d2);
                    m_wsq += w0 * w0;
                    m_rhs += r * r;
                    dp_prev = dp;
                    f_prev = f;
                }
                if (!src)
                    m_p43 = p43_sum(p43, j1 - j0, m_p43);
            }

            double dt = diff_coef / wmax;
            double gain = react_coef * (w0max - kappa);
            if (gain > 0.0) {
                double dt_r = safety / gain;
                if (dt_r < dt)
                    dt = dt_r;
            }
            if (dt_override > 0.0)
                dt = dt_override;
            if (t + dt >= t_stop - tiny)
                dt = t_stop - t;

            if (!src) {
                acc[0] += dt * dx * m_w;
                acc[2] += dt * dx * m_p43;
                acc[3] += dt * dx * m_wsq;
                acc[4] += dt * pow(gmax, 8.0 / 3.0);
                if (acc[7] > 0.0)
                    acc[1] += acc[7] * dx * m_recip;
            }
            double st_l2 = dx * m_rhs;
            if (st_l2 > acc[5])
                acc[5] = st_l2;
            acc[7] = dt;
            acc[8] = st_l2;

            double sup_new = 0.0;
            if (clamp && st_l2 <= DBL_MAX) {
                sup_new = clamped_update(S, rhs_prev, nm1, dt);
            } else {
                for (long j = 1; j < nm1; j++) {
                    S[j] = S[j] + dt * rhs_prev[j];
                    double aj = fabs(S[j]);
                    if (aj > sup_new)
                        sup_new = aj;
                }
            }
            if (sup_new > acc[6])
                acc[6] = sup_new;
            t = t + dt;
            done++;
            ctx->steps++;
            if (!(sup_new == sup_new) || sup_new > 1e150 || !(st_l2 == st_l2)) {
                status = 1;
                break;
            }
            if (mode == 1) {
                table_refresh(ctx, t);
            } else if (mode == 2) {
                history_append(ctx, t, S);
                causal_average(ctx, t);
            }
            reached = t_stop - t <= tiny;
        }
        const int at_end = t >= t_end - end_tiny;
        if (stride > 0 ? ctx->steps % stride == 0 || at_end : reached) {
            record_row(ctx, t);
            ctx->next_stop++;
        }
        if (at_end) {
            status = 0;
            break;
        }
    }
    ctx->t = t;
    ctx->status = status;
    return done;
}

long cf_chunk_loop(struct cf_ctx *ctx, double t, long budget)
{
    return ctx->src ? walk_plan(ctx, t, budget, 1) : walk_plan(ctx, t, budget, 0);
}
