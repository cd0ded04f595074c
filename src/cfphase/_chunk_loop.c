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
 * mode 0 couples to S itself (direct); mode 1 interpolates the coupling
 * field and its mean linearly in time from a table of n_tab rows spaced
 * tab_dt apart from tab_t0 (the global fixed-point sweeps).
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
 * Returns the number of steps taken; *t_out receives the new time and
 * *status_out 0 (t_stop reached), 1 (non-finite state) or 2 (chunk
 * exhausted).  Build without -ffast-math: the NaN checks rely on IEEE
 * comparisons.
 */

#include <math.h>

/* The loop body, inlined twice by cf_chunk_loop with src a constant 0 or 1,
 * so the source-free loop carries no per-node source check. */
static inline __attribute__((always_inline)) long
advance(double *S, double *rhs_prev, long n, double dx, double kappa,
        double c, double nu, double alpha, double beta, double inv_len,
        const double *sig_eps, const double *dcoeffs, long ncoef,
        double react_coef, double safety, double t, double t_stop,
        double dt_override, long max_chunk, long mode, double tab_t0,
        double tab_dt, const double *tab_vals, long n_tab,
        const double *tab_means, const int src, const double *src_sin,
        const double *src_cos, double src_k, double src_mean,
        double *dts_buf, double *acc, double *t_out, long *status_out)
{
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
        } else {
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
            double seff = mode == 0 ? sj
                                    : (1.0 - theta) * row0[j] + theta * row1[j];
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
        if (t_stop - t <= tiny) {
            status = 0;
            break;
        }
    }
    *t_out = t;
    *status_out = status;
    return done;
}

long cf_chunk_loop(double *S, double *rhs_prev, long n, double dx,
                   double kappa, double c, double nu, double alpha,
                   double beta, double inv_len, const double *sig_eps,
                   const double *dcoeffs, long ncoef, double react_coef,
                   double safety, double t, double t_stop,
                   double dt_override, long max_chunk, long mode,
                   double tab_t0, double tab_dt, const double *tab_vals,
                   long n_tab, const double *tab_means, long src,
                   const double *src_sin, const double *src_cos,
                   double src_k, double src_mean, double *dts_buf,
                   double *acc, double *t_out, long *status_out)
{
    if (src)
        return advance(S, rhs_prev, n, dx, kappa, c, nu, alpha, beta, inv_len,
                       sig_eps, dcoeffs, ncoef, react_coef, safety, t, t_stop,
                       dt_override, max_chunk, mode, tab_t0, tab_dt, tab_vals,
                       n_tab, tab_means, 1, src_sin, src_cos, src_k, src_mean,
                       dts_buf, acc, t_out, status_out);
    return advance(S, rhs_prev, n, dx, kappa, c, nu, alpha, beta, inv_len,
                   sig_eps, dcoeffs, ncoef, react_coef, safety, t, t_stop,
                   dt_override, max_chunk, mode, tab_t0, tab_dt, tab_vals,
                   n_tab, tab_means, 0, src_sin, src_cos, src_k, src_mean,
                   dts_buf, acc, t_out, status_out);
}
