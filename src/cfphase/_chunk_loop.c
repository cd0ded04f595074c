/* Fused forward-Euler chunk loop of the cfphase solver.
 *
 * Advances the interior nodes of S by up to max_chunk explicit steps, or
 * until t reaches t_stop, with the same arithmetic as the numpy engine in
 * solver.py: flux-form diffusion through the flux primitive of the one-sided
 * gradients, the configurational reaction with the central-gradient weight,
 * and the adaptive step-size budget (diffusion limit capped by the reaction
 * Lipschitz estimate).  The monitor integrands of each pre-step state are
 * summed on the fly into acc:
 *
 *   acc[0] dissipation   acc[1] reciprocal   acc[2] 4/3-power
 *   acc[3] weight^2      acc[4] |D+S|^(8/3)  acc[5] max |S_t|_2^2
 *   acc[6] running sup   acc[7] previous dt  acc[8] last |S_t|_2^2
 *   acc[9] last dt
 *
 * Everything that stays fixed during a run (the arrays, the grid and model
 * constants, the coupling and source data, the causal history) lives in a
 * struct cf_ctx that the caller fills once per run; each call passes only
 * the struct, t, t_stop and the step budget.  The struct layout is mirrored
 * by _native.Context, which checks it against cf_context_size().
 *
 * The coupling field s_eff that enters the stress is
 *   mode 0  S itself (direct);
 *   mode 1  interpolated linearly in time from a table of n_tab rows spaced
 *           tab_dt apart from tab_t0 (the global fixed-point sweeps);
 *   mode 2  the causal kernel average of the past states (mollified
 *           coupling).  A port of solver._CausalHistory and
 *           mollifier._mollify_arrays: the history keeps states at least
 *           hist_spacing apart in hist_times/hist_rows (capacity hist_cap,
 *           live rows [hist_lo, hist_hi)), and after every step the loop
 *           appends the new state and averages at the new t into seff, with
 *           its trapezoid mean in seff_mean, which the next step and the
 *           caller's emission read.  The caller seeds seff and seff_mean
 *           with the average at the starting time.
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
 * Returns the number of steps taken; ctx->t receives the new time and
 * ctx->status 0 (t_stop reached), 1 (non-finite state), 2 (chunk
 * exhausted) or 3 (the causal history ends short of the kernel window).
 * Build without -ffast-math: the NaN checks rely on IEEE comparisons.
 */

#include <math.h>
#include <string.h>

struct cf_ctx {
    double *S;              /* n, updated in place */
    double *rhs_prev;       /* n */
    double *dts_buf;        /* dts_cap */
    long dts_cap;
    double *acc;            /* 10 */
    long n;
    double dx, kappa, c, nu, alpha, beta, inv_len;
    const double *sig_eps;  /* n */
    const double *dcoeffs;  /* ncoef, psi' coefficients, highest first */
    long ncoef;
    double react_coef, safety, dt_override;
    long mode;
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
    double *seff;           /* n */
    double seff_mean;
    /* results of the last call */
    double t;
    long status;
};

long cf_context_size(void)
{
    return (long)sizeof(struct cf_ctx);
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

/* mollifier._bracket for one point s of the m live times (m >= 2): the
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

/* mollifier._sample_rows at the single point s, into out. */
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

/* solver._CausalHistory.append: keep (t, S) if it lies at least a spacing
 * after the last kept state, then drop the states before the window. */
static void history_append(struct cf_ctx *ctx, double t, const double *S)
{
    const long n = ctx->n;
    long lo = ctx->hist_lo, hi = ctx->hist_hi;
    double *times = ctx->hist_times, *rows = ctx->hist_rows;
    if (!(t - ctx->hist_last >= ctx->hist_spacing || hi == 0))
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

/* mollifier._mollify_arrays of the live history with the causal kernel at
 * t (horizon t, cover slack 4 spacings), into ctx->seff and its trapezoid
 * mean into ctx->seff_mean.  Returns 0, or 3 when the history ends short
 * of the window. */
static long causal_average(struct cf_ctx *ctx, double t)
{
    const long n = ctx->n, samples = ctx->samples;
    const long m = ctx->hist_hi - ctx->hist_lo;
    const double *times = ctx->hist_times + ctx->hist_lo;
    const double *rows = ctx->hist_rows + ctx->hist_lo * n;
    const double kappa = ctx->kappa;
    const double norm = ctx->bump_mass * kappa;
    double *out = ctx->seff;
    double *w = ctx->mol_w;

    double s0 = t - kappa > 0.0 ? t - kappa : 0.0;
    double s1 = t;
    double scale = t > 1.0 ? t : 1.0;
    /* s0 <= s1 for t >= 0, so the window is never empty */
    if (s1 > times[m - 1] + 4.0 * ctx->hist_spacing + 1e-12 * scale)
        return 3;
    if (s1 - s0 <= 1e-15 * scale) {
        sample_row(times, rows, m, n, s0, out);
    } else {
        for (long i = 0; i < samples; i++) {
            double tau = 2.0 * (t - linspace_at(s0, s1, samples, i)) / kappa - 1.0;
            double b = fabs(tau) < 1.0 ? exp(-1.0 / (1.0 - tau * tau)) : 0.0;
            w[i] = 2.0 * b / norm;
        }
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
            /* each point hands a (1 - theta) to its left row and a theta
             * to the right one, summed per row in point order as
             * np.bincount does; then one pass over the touched rows */
            double *c0 = ctx->mol_coef, *c1 = c0 + ctx->hist_cap;
            for (long k = 0; k < m; k++)
                c0[k] = c1[k] = 0.0;
            long pos = 0, first = -1, last = 0;
            for (long i = 0; i < samples; i++) {
                double a = w[i] / total, th;
                long idx = bracket(times, m, linspace_at(s0, s1, samples, i),
                                   &pos, &th);
                if (first < 0)
                    first = idx;
                last = idx + 1;
                c0[idx] += a * (1.0 - th);
                c1[idx + 1] += a * th;
            }
            for (long j = 0; j < n; j++)
                out[j] = 0.0;
            for (long k = first; k <= last; k++) {
                double coef = c0[k] + c1[k];
                const double *row = rows + k * n;
                for (long j = 0; j < n; j++)
                    out[j] += coef * row[j];
            }
        }
    }
    double accm = 0.5 * (out[0] + out[n - 1]);
    for (long j = 1; j < n - 1; j++)
        accm += out[j];
    ctx->seff_mean = accm * ctx->dx * ctx->inv_len;
    return 0;
}

/* The loop body, expanded by cf_chunk_loop once for each constant pair
 * (mode, src), so no loop carries a per-node check of either. */
static inline __attribute__((always_inline)) long
advance(struct cf_ctx *ctx, double t, double t_stop, long max_chunk,
        const int mode, const int src)
{
    double *const S = ctx->S, *const rhs_prev = ctx->rhs_prev;
    double *const dts_buf = ctx->dts_buf, *const acc = ctx->acc;
    const long n = ctx->n, ncoef = ctx->ncoef;
    const double dx = ctx->dx, kappa = ctx->kappa, c = ctx->c, nu = ctx->nu;
    const double alpha = ctx->alpha, beta = ctx->beta, inv_len = ctx->inv_len;
    const double *const sig_eps = ctx->sig_eps, *const dcoeffs = ctx->dcoeffs;
    const double react_coef = ctx->react_coef, safety = ctx->safety;
    const double dt_override = ctx->dt_override;
    const double tab_t0 = ctx->tab_t0, tab_dt = ctx->tab_dt;
    const double *const tab_vals = ctx->tab_vals, *const tab_means = ctx->tab_means;
    const long n_tab = ctx->n_tab;
    const double *const src_sin = ctx->src_sin, *const src_cos = ctx->src_cos;
    const double src_k = ctx->src_k, src_mean = ctx->src_mean;
    const double *const seff_buf = ctx->seff;

    const long nm1 = n - 1;
    const double inv_dx = 1.0 / dx;
    const double kap2 = kappa * kappa;
    const double cnu = c * nu;
    const double diff_coef = safety * dx * dx / (2.0 * cnu);
    const double tiny = 1e-14 * (fabs(t_stop) + 1.0);
    long done = 0;
    long status = 2;

    while (done < max_chunk) {
        if (t_stop - t <= tiny) {
            status = 0;
            break;
        }
        double ibar;
        double theta = 0.0;
        long idx = 0;
        const double *row0 = tab_vals, *row1 = tab_vals;
        double e = 0.0, ek = 0.0, ekk = 0.0, mean = 0.0;
        if (src) {
            e = exp(-t);
            ek = e * src_k;
            ekk = ek * src_k;
            mean = e * src_mean;
        }
        if (mode == 0) {
            double accm = 0.5 * (S[0] + S[nm1]);
            for (long i = 1; i < nm1; i++)
                accm += S[i];
            ibar = accm * dx * inv_len;
        } else if (mode == 1) {
            double pos = (t - tab_t0) / tab_dt;
            if (pos >= (double)(n_tab - 2))
                idx = n_tab - 2;
            else if (pos > 0.0)
                idx = (long)pos;
            theta = pos - (double)idx;
            if (theta < 0.0)
                theta = 0.0;
            if (theta > 1.0)
                theta = 1.0;
            ibar = (1.0 - theta) * tab_means[idx] + theta * tab_means[idx + 1];
            row0 = tab_vals + idx * n;
            row1 = row0 + n;
        } else {
            ibar = ctx->seff_mean;
        }

        double dp_prev = (S[1] - S[0]) * inv_dx;
        double wp = sqrt(kap2 + dp_prev * dp_prev);
        double wmax = wp;
        double gmax = fabs(dp_prev);
        double f_prev = 0.5 * (dp_prev * wp + kap2 * asinh(dp_prev / kappa));
        double w0max = kappa;
        double m_w = 0.0, m_p43 = 0.0, m_wsq = 0.0, m_rhs = 0.0, m_recip = 0.0;
        for (long j = 1; j < nm1; j++) {
            double dp = (S[j + 1] - S[j]) * inv_dx;
            wp = sqrt(kap2 + dp * dp);
            if (wp > wmax)
                wmax = wp;
            double g = fabs(dp);
            if (g > gmax)
                gmax = g;
            double f = 0.5 * (dp * wp + kap2 * asinh(dp / kappa));
            double d0 = 0.5 * (dp + dp_prev);
            double w0 = sqrt(kap2 + d0 * d0);
            if (w0 > w0max)
                w0max = w0;
            double d2 = (dp - dp_prev) * inv_dx;
            double sj = S[j];
            double psi_p = dcoeffs[0];
            for (long k = 1; k < ncoef; k++)
                psi_p = psi_p * sj + dcoeffs[k];
            double seff = mode == 0   ? sj
                          : mode == 1 ? (1.0 - theta) * row0[j] + theta * row1[j]
                                      : seff_buf[j];
            double tdot = alpha * seff - beta * ibar + sig_eps[j];
            double r = cnu * (f - f_prev) * inv_dx + c * (tdot - psi_p) * (w0 - kappa);
            if (src) {
                double s = e * src_sin[j];
                double s_x = ek * src_cos[j];
                double s_xx = -(ekk * src_sin[j]);
                double w = sqrt(kap2 + s_x * s_x);
                double psi_s = dcoeffs[0];
                for (long k = 1; k < ncoef; k++)
                    psi_s = psi_s * s + dcoeffs[k];
                double tdot_s = alpha * s - beta * mean;
                r = r + (-s - cnu * w * s_xx - c * (tdot_s - psi_s) * (w - kappa));
            }
            double rpj = rhs_prev[j];
            m_recip += rpj * rpj / w0;
            rhs_prev[j] = r;
            m_w += w0 * d2 * d2;
            double x = w0 * fabs(d2);
            m_p43 += x * cbrt(x);
            m_wsq += w0 * w0;
            m_rhs += r * r;
            dp_prev = dp;
            f_prev = f;
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

        acc[0] += dt * dx * m_w;
        acc[2] += dt * dx * m_p43;
        acc[3] += dt * dx * m_wsq;
        acc[4] += dt * pow(gmax, 8.0 / 3.0);
        if (acc[7] > 0.0)
            acc[1] += acc[7] * dx * m_recip;
        double st_l2 = dx * m_rhs;
        if (st_l2 > acc[5])
            acc[5] = st_l2;
        acc[7] = dt;
        acc[8] = st_l2;
        acc[9] = dt;

        double sup_new = 0.0;
        for (long j = 1; j < nm1; j++) {
            S[j] = S[j] + dt * rhs_prev[j];
            double aj = fabs(S[j]);
            if (aj > sup_new)
                sup_new = aj;
        }
        if (sup_new > acc[6])
            acc[6] = sup_new;
        t = t + dt;
        dts_buf[done] = dt;
        done++;
        if (!(sup_new == sup_new) || sup_new > 1e150 || !(st_l2 == st_l2)) {
            status = 1;
            break;
        }
        if (mode == 2) {
            history_append(ctx, t, S);
            long failed = causal_average(ctx, t);
            if (failed) {
                status = failed;
                break;
            }
        }
        if (t_stop - t <= tiny) {
            status = 0;
            break;
        }
    }
    ctx->t = t;
    ctx->status = status;
    return done;
}

long cf_chunk_loop(struct cf_ctx *ctx, double t, double t_stop, long max_chunk)
{
    if (max_chunk > ctx->dts_cap)
        max_chunk = ctx->dts_cap;
    switch (2 * ctx->mode + (ctx->src != 0)) {
    case 0: return advance(ctx, t, t_stop, max_chunk, 0, 0);
    case 1: return advance(ctx, t, t_stop, max_chunk, 0, 1);
    case 2: return advance(ctx, t, t_stop, max_chunk, 1, 0);
    case 3: return advance(ctx, t, t_stop, max_chunk, 1, 1);
    case 4: return advance(ctx, t, t_stop, max_chunk, 2, 0);
    default: return advance(ctx, t, t_stop, max_chunk, 2, 1);
    }
}
