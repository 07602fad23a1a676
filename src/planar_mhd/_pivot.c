/* Compiled kernels behind planar_mhd's time step and diagnostics.

   solve_flux_system is the subtraction-free pivot recursion behind
   planar_mhd.operators.solve_flux_system.  step_explicit runs stages 1-4
   of solver.step and the explicit part of stage 5; conduction_solve runs
   the Picard loop of solver.conduction_update.  All three go through the
   one copy of the recursion, pivot_solve.  residual_rows, norm_rows and
   ledger_rows write the integrands of solver.consistency_residuals,
   diagnostics.norm_suite and diagnostics.dissipation_ledger for the
   columns of a diagnostics window; numpy sums them.

   Every floating-point operation happens in the same order as in the
   numpy reference (operators._solve_flux_system_py, solver._explicit_stages,
   solver._numpy_solve and the numpy bodies of the diagnostics), so the
   two agree bit for bit.  That holds only
   without FMA contraction and without value-changing optimizations: build
   with -O3 -ffp-contract=off, never -ffast-math.  No libm function is
   called but sqrt, because numpy's transcendental loops need not give
   libm's bits; sqrt is correctly rounded under IEEE 754, so it gives
   np.sqrt's.  Every pow, exp and log comes in evaluated by numpy, and so
   does every sum: numpy's pairwise summation stays in numpy.
   kappa(theta) is computed here only at q_exp = 2, as kappa_a + kappa_b *
   (theta * theta), which is how numpy evaluates theta ** 2.0; for any
   other exponent it comes in evaluated by numpy. */

#include <math.h>
#include <stddef.h>

/* n cells, k right-hand-side columns.  x holds the right-hand side on
   entry (row-major n x k) and the solution on return.  work holds 2n
   doubles (the multipliers g and the pivots p).  The forward sweep of x
   rides in the pivot loop, which hides its latency behind the divisions.
   Returns 0, or 1 on a zero pivot, in which case x is left half swept. */
static int pivot_solve(ptrdiff_t n, ptrdiff_t k, const double *cap,
                       const double *off, double *x, double *work)
{
    double *g = work, *p = work + n;
    double e = cap[0] + off[0];
    p[0] = e + off[1];
    for (ptrdiff_t i = 1; i < n; i++) {
        if (p[i - 1] <= 0.0)
            return 1;
        g[i] = off[i] / p[i - 1];
        e = cap[i] + g[i] * e;
        p[i] = e + off[i + 1];
        for (ptrdiff_t j = 0; j < k; j++)
            x[i * k + j] += g[i] * x[(i - 1) * k + j];
    }
    if (p[n - 1] <= 0.0)
        return 1;
    for (ptrdiff_t j = 0; j < k; j++)
        x[(n - 1) * k + j] /= p[n - 1];
    for (ptrdiff_t i = n - 2; i >= 0; i--)
        for (ptrdiff_t j = 0; j < k; j++)
            x[i * k + j] = (x[i * k + j] + off[i + 1] * x[(i + 1) * k + j]) / p[i];
    return 0;
}

int solve_flux_system(ptrdiff_t n, ptrdiff_t k, const double *cap,
                      const double *off, double *x, double *work)
{
    return pivot_solve(n, k, cap, off, x, work);
}

/* Component c of cell i of a field of n cells with k interleaved
   components, with one ghost cell on each side (i = -1 and i = n):
   operators.pad_ghosts, odd reflection negating the edge value and even
   reflection copying it. */
static double cell(const double *f, ptrdiff_t n, ptrdiff_t k, ptrdiff_t i,
                   ptrdiff_t c, int odd)
{
    double v = f[(i < 0 ? 0 : i >= n ? n - 1 : i) * k + c];
    return odd && (i < 0 || i >= n) ? -v : v;
}

/* operators.cell_grad at cell i, component c: the central difference
   over the ghost-extended field. */
static double grad(const double *f, ptrdiff_t n, ptrdiff_t k, ptrdiff_t i,
                   ptrdiff_t c, int odd, double dx)
{
    return (cell(f, n, k, i + 1, c, odd) - cell(f, n, k, i - 1, c, odd)) / (2.0 * dx);
}

/* operators.face_average on the n+1 faces. */
static void face_average(ptrdiff_t n, ptrdiff_t k, const double *f, int odd,
                         double *out)
{
    for (ptrdiff_t j = 0; j <= n; j++)
        for (ptrdiff_t c = 0; c < k; c++)
            out[j * k + c] = 0.5 * (cell(f, n, k, j - 1, c, odd) + cell(f, n, k, j, c, odd));
}

/* operators.upwind_face_flux: face velocity vf times the upwind cell
   value of q, exactly zero through the walls. */
static void upwind_flux(ptrdiff_t n, ptrdiff_t k, const double *vf,
                        const double *q, double *flux)
{
    for (ptrdiff_t j = 0; j <= n; j++)
        for (ptrdiff_t c = 0; c < k; c++)
            flux[j * k + c] = j == 0 || j == n ? 0.0
                : vf[j] * (vf[j] >= 0.0 ? q[(j - 1) * k + c] : q[j * k + c]);
}

/* operators.div_faces at cell i, component c. */
static double div_faces(const double *flux, ptrdiff_t k, ptrdiff_t i,
                        ptrdiff_t c, double dx)
{
    return (flux[(i + 1) * k + c] - flux[i * k + c]) / dx;
}

/* operators.flux_laplacian: exterior values are zero. */
static void flux_laplacian(ptrdiff_t n, ptrdiff_t k, const double *off,
                           const double *q, double *out)
{
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t c = 0; c < k; c++) {
            double left = i > 0 ? q[(i - 1) * k + c] : 0.0;
            double mid = q[i * k + c];
            double right = i < n - 1 ? q[(i + 1) * k + c] : 0.0;
            out[i * k + c] = off[i + 1] * (right - mid) - off[i] * (mid - left);
        }
}

/* solver._implicit into out: tilde + (diag(cap) - L)^-1 L tilde.
   Returns 1 on a zero pivot. */
static int implicit(ptrdiff_t n, ptrdiff_t k, const double *cap,
                    const double *off, const double *tilde, double *out,
                    double *work)
{
    flux_laplacian(n, k, off, tilde, out);
    if (pivot_solve(n, k, cap, off, out, work))
        return 1;
    for (ptrdiff_t i = 0; i < n * k; i++)
        out[i] = tilde[i] + out[i];
    return 0;
}

/* Face j touches a vacuum cell (solver._vacuum_faces). */
static int vacuum_face(const double *rho, ptrdiff_t n, ptrdiff_t j, double vacuum_rho)
{
    return (j > 0 && rho[j - 1] <= vacuum_rho) || (j < n && rho[j] <= vacuum_rho);
}

/* operators.face_couplings(n, coeff, dx, ODD), with the faces touching
   vacuum zeroed when rho is not NULL. */
static void couplings(ptrdiff_t n, double coeff, double dx, const double *rho,
                      double vacuum_rho, double *off)
{
    for (ptrdiff_t j = 0; j <= n; j++)
        off[j] = coeff / (dx * dx);
    off[0] *= 2.0;
    off[n] *= 2.0;
    if (rho)
        for (ptrdiff_t j = 0; j <= n; j++)
            if (vacuum_face(rho, n, j, vacuum_rho))
                off[j] = 0.0;
}

/* solver._require_nonnegative: 1 when an entry is NaN or infinite, or
   min(0, f) is below -tol.  Otherwise, if some entry is negative, every
   entry is clipped as np.maximum(f, 0.0) clips it, which gives +0.0 for
   -0.0 too. */
static int require_nonnegative(ptrdiff_t n, double *f, double tol)
{
    double low = 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        if (!isfinite(f[i]))
            return 1;
        if (f[i] < low)
            low = f[i];
    }
    if (low < -tol)
        return 1;
    if (low < 0.0)
        for (ptrdiff_t i = 0; i < n; i++)
            f[i] = f[i] > 0.0 ? f[i] : 0.0;
    return 0;
}

/* Stages 1-4 of solver.step and stage 5 up to theta_tilde, as
   solver._explicit_stages does them.

   ws holds 25n + 6 doubles.  On entry its first 7n are the state:
   rho, u, w (n x 2), b (n x 2), theta.  On return the next 7n are rho1,
   u1, w1, b1 and theta_tilde; the rest is scratch.  The force_* arrays
   are the forcing terms already scaled (dt f, and f for the energy), or
   NULL.  Returns the number of cells whose theta_tilde was negative
   before the clip, or -1 when a check of the step fails; the numpy
   stages then say which. */
ptrdiff_t step_explicit(ptrdiff_t n, double dx, double dt, double lambda,
                        double mu, double nu, double gas_R, double c_v,
                        double vacuum_rho, double scale_tol, double theta_tol,
                        const double *force_rho, const double *force_u,
                        const double *force_w, const double *force_b,
                        const double *force_e, double *ws)
{
    const double *rho0 = ws, *u0 = ws + n, *w0 = ws + 2 * n, *b0 = ws + 4 * n,
                 *th0 = ws + 6 * n;
    double *rho1 = ws + 7 * n, *u1 = ws + 8 * n, *w1 = ws + 9 * n, *b1 = ws + 11 * n,
           *theta_tilde = ws + 13 * n;
    double *uf = ws + 14 * n, *bf = uf + (n + 1), *flux = bf + 2 * (n + 1),
           *off = flux + 2 * (n + 1), *cap = off + (n + 1), *tilde = cap + n,
           *work = tilde + 2 * n;

    /* stage 1: continuity */
    face_average(n, 1, u0, 1, uf);
    face_average(n, 2, b0, 1, bf);
    upwind_flux(n, 1, uf, rho0, flux);
    for (ptrdiff_t i = 0; i < n; i++) {
        rho1[i] = rho0[i] - dt * div_faces(flux, 1, i, 0, dx);
        if (force_rho)
            rho1[i] = rho1[i] + force_rho[i];
    }
    if (require_nonnegative(n, rho1, scale_tol))
        return -1;
    for (ptrdiff_t i = 0; i < n; i++)
        cap[i] = rho1[i] <= vacuum_rho ? 1.0 : rho1[i] / dt;

    /* stage 2: longitudinal momentum; work holds the total pressure */
    for (ptrdiff_t i = 0; i < n; i++) {
        tilde[i] = rho0[i] * u0[i];
        work[i] = gas_R * rho0[i] * th0[i]
                  + 0.5 * (b0[2 * i] * b0[2 * i] + b0[2 * i + 1] * b0[2 * i + 1]);
    }
    upwind_flux(n, 1, uf, tilde, flux);
    for (ptrdiff_t i = 0; i < n; i++) {
        double m = tilde[i] - dt * div_faces(flux, 1, i, 0, dx)
                   - dt * grad(work, n, 1, i, 0, 0, dx);
        if (force_u)
            m = m + force_u[i];
        tilde[i] = rho1[i] <= vacuum_rho ? 0.0 : m / rho1[i];
    }
    couplings(n, lambda, dx, rho1, vacuum_rho, off);
    if (implicit(n, 1, cap, off, tilde, u1, work))
        return -1;

    /* stage 3: transverse momentum (the -b part rides in the same flux) */
    for (ptrdiff_t i = 0; i < 2 * n; i++)
        tilde[i] = rho0[i / 2] * w0[i];
    upwind_flux(n, 2, uf, tilde, flux);
    for (ptrdiff_t j = 0; j < 2 * (n + 1); j++)
        flux[j] = flux[j] - bf[j];
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t c = 0; c < 2; c++) {
            double m = tilde[2 * i + c] - dt * div_faces(flux, 2, i, c, dx);
            if (force_w)
                m = m + force_w[2 * i + c];
            tilde[2 * i + c] = rho1[i] <= vacuum_rho ? 0.0 : m / rho1[i];
        }
    couplings(n, mu, dx, rho1, vacuum_rho, off);
    if (implicit(n, 2, cap, off, tilde, w1, work))
        return -1;

    /* stage 4: induction, with the freshest velocities */
    for (ptrdiff_t j = 0; j <= n; j++) {
        double uf1 = 0.5 * (cell(u1, n, 1, j - 1, 0, 1) + cell(u1, n, 1, j, 0, 1));
        for (ptrdiff_t c = 0; c < 2; c++)
            flux[2 * j + c] = uf1 * bf[2 * j + c]
                              - 0.5 * (cell(w1, n, 2, j - 1, c, 1) + cell(w1, n, 2, j, c, 1));
    }
    for (ptrdiff_t i = 0; i < 2 * n; i++) {
        tilde[i] = b0[i] - dt * div_faces(flux, 2, i / 2, i % 2, dx);
        if (force_b)
            tilde[i] = tilde[i] + force_b[i];
    }
    for (ptrdiff_t i = 0; i < n; i++)
        cap[i] = 1.0 / dt;
    couplings(n, nu, dx, NULL, vacuum_rho, off);
    if (implicit(n, 2, cap, off, tilde, b1, work))
        return -1;
    for (ptrdiff_t i = 0; i < 5 * n; i++)  /* u1, w1 and b1 lie end to end */
        if (!isfinite(u1[i]))
            return -1;

    /* stage 5: internal energy; off holds the mechanical heating on faces */
    for (ptrdiff_t i = 0; i < n; i++)
        tilde[i] = c_v * rho0[i] * th0[i];
    upwind_flux(n, 1, uf, tilde, flux);
    for (ptrdiff_t j = 0; j <= n; j++) {
        int gas = !vacuum_face(rho1, n, j, vacuum_rho);
        double du = gas ? (cell(u1, n, 1, j, 0, 1) - cell(u1, n, 1, j - 1, 0, 1)) / dx : 0.0;
        double dw[2], db[2];
        for (ptrdiff_t c = 0; c < 2; c++) {
            dw[c] = gas ? (cell(w1, n, 2, j, c, 1) - cell(w1, n, 2, j - 1, c, 1)) / dx : 0.0;
            db[c] = (cell(b1, n, 2, j, c, 1) - cell(b1, n, 2, j - 1, c, 1)) / dx;
        }
        off[j] = lambda * du * du + mu * (dw[0] * dw[0] + dw[1] * dw[1])
                 + nu * (db[0] * db[0] + db[1] * db[1]);
    }
    ptrdiff_t clipped = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        double u_x = grad(u1, n, 1, i, 0, 1, dx);
        double source = 0.5 * (off[i] + off[i + 1]) - gas_R * rho1[i] * th0[i] * u_x;
        if (force_e)
            source = source + force_e[i];
        double energy = tilde[i] - dt * div_faces(flux, 1, i, 0, dx) + dt * source;
        theta_tilde[i] = rho1[i] <= vacuum_rho ? th0[i] : energy / (c_v * rho1[i]);
        clipped += theta_tilde[i] < 0.0;
    }
    if (require_nonnegative(n, theta_tilde, theta_tol))
        return -1;
    return clipped;
}

/* The Picard loop of solver.conduction_update, as solver._numpy_solve
   runs it, with its stop test and its non-finite test.

   ws holds 8n + 4 doubles: theta_tilde, rho, the iterate theta_k
   (theta_tilde at first), scratch, then three report slots: the passes
   run so far (0 before the first call), and the last pass's
   max|theta_next - theta_k| and max|theta_k| + 1e-30, the scale of the
   stop test (a max is NaN if any entry is NaN, as numpy's max).  With
   kappa NULL (q_exp = 2), each pass takes kappa_a + kappa_b * (m * m) with
   m = max(theta_k, 0), a NaN kept, and passes run until one of the
   returns below or until max_passes have run; otherwise kappa holds
   kappa(max(theta_k, 0)) per cell and one pass runs.  Returns 0 when the
   stop test holds, 1 when it does not, 2 when the change is not finite,
   3 on a zero pivot. */
int conduction_solve(ptrdiff_t n, double dx, double c_v, double dt, double vacuum_rho,
                     double kappa_a, double kappa_b, double tol, ptrdiff_t max_passes,
                     const double *kappa, double *ws)
{
    const double *theta_tilde = ws, *rho = ws + n;
    double *theta_k = ws + 2 * n, *x = ws + 3 * n, *cap = ws + 4 * n, *off = ws + 5 * n,
           *work = off + (n + 1), *report = work + 2 * n;

    for (ptrdiff_t i = 0; i < n; i++)
        cap[i] = rho[i] <= vacuum_rho ? 1.0 : c_v * rho[i] / dt;
    while (report[0] < max_passes) {
        report[0] += 1.0;
        if (!kappa)  /* x is free until the flux Laplacian fills it */
            for (ptrdiff_t i = 0; i < n; i++) {
                double m = theta_k[i] > 0.0 || theta_k[i] != theta_k[i] ? theta_k[i] : 0.0;
                x[i] = kappa_a + kappa_b * (m * m);
            }
        const double *kap = kappa ? kappa : x;
        for (ptrdiff_t j = 0; j <= n; j++)  /* walls and vacuum faces are insulated */
            off[j] = j == 0 || j == n || vacuum_face(rho, n, j, vacuum_rho) ? 0.0
                : 0.5 * (kap[j - 1] + kap[j]) / (dx * dx);
        flux_laplacian(n, 1, off, theta_tilde, x);
        if (pivot_solve(n, 1, cap, off, x, work))
            return 3;
        double change = 0.0, scale = 0.0;
        for (ptrdiff_t i = 0; i < n; i++) {
            double next = theta_tilde[i] + x[i];
            double d = fabs(next - theta_k[i]), a = fabs(theta_k[i]);
            change = d > change || d != d ? d : change;
            scale = a > scale || a != a ? a : scale;
            theta_k[i] = next;
        }
        scale += 1e-30;
        report[1] = change;
        report[2] = scale;
        if (!isfinite(change))
            return 2;
        if (change <= tol * scale)
            return 0;
        if (kappa)
            return 1;
    }
    return 1;
}


/* ------------------------------------------------------------------------
   Diagnostics integrands.  The fields of the K states of a window
   (diagnostics._Stack) lie as rows: rho, u, theta, p and kappa are K x n,
   w and b K x n x 2; p and kappa are the stack's pressure(params) and
   kappa(params), evaluated by numpy.  Each entry reads k columns of them,
   after column cols_a[j] and before column cols_b[j] with step dts[j], and
   writes row r of column j at out[(r * k + j) * n + i]; the caller sums
   each row. */
struct rows {
    const double *rho, *u, *w, *b, *theta, *p, *kappa;
};

/* Column c of struct rows on n cells. */
static struct rows column(const struct rows *r, ptrdiff_t c, ptrdiff_t n)
{
    struct rows col = {r->rho + c * n, r->u + c * n, r->w + 2 * c * n, r->b + 2 * c * n,
                       r->theta + c * n, r->p + c * n, r->kappa + c * n};
    return col;
}

/* The square of length(v) of diagnostics.norm_suite: the square of
   sqrt(v0 * v0 + v1 * v1), not the sum itself. */
static double length_sq(double v0, double v1)
{
    double length = sqrt(v0 * v0 + v1 * v1);
    return length * length;
}

/* operators.second_diff_onesided at cell i, component c. */
static double onesided(const double *f, ptrdiff_t n, ptrdiff_t k, ptrdiff_t i,
                       ptrdiff_t c, double dx)
{
    if (i == 0)
        return (f[c] - 2.0 * f[k + c] + f[2 * k + c]) / (dx * dx);
    ptrdiff_t m = i < n - 1 ? i : n - 2;
    return (f[(m + 1) * k + c] - 2.0 * f[m * k + c] + f[(m - 1) * k + c]) / (dx * dx);
}

/* u b - w of solver.consistency_residuals at cell i (ghosts included),
   component c: the odd reflection negates the edge value. */
static double induction(const double *u, const double *w, const double *b,
                        ptrdiff_t n, ptrdiff_t i, ptrdiff_t c)
{
    ptrdiff_t m = i < 0 ? 0 : i >= n ? n - 1 : i;
    double v = u[m] * b[2 * m + c] - w[2 * m + c];
    return i < 0 || i >= n ? -v : v;
}

/* b . b_x on face j and the flux u P - (gas_R / c_v) kappa theta_x on
   face j, as solver.consistency_residuals forms them. */
static void residual_faces(const double *u, const double *b, const double *theta,
                           const double *p, const double *kappa, ptrdiff_t n,
                           ptrdiff_t j, double dx, double r_over_cv, double *bbx,
                           double *flux)
{
    for (ptrdiff_t c = 0; c < 2; c++) {
        double left = cell(b, n, 2, j - 1, c, 1), right = cell(b, n, 2, j, c, 1);
        double term = 0.5 * (left + right) * ((right - left) / dx);
        *bbx = c ? *bbx + term : term;
    }
    double cond = 0.5 * (cell(kappa, n, 1, j - 1, 0, 0) + cell(kappa, n, 1, j, 0, 0))
                  * ((cell(theta, n, 1, j, 0, 0) - cell(theta, n, 1, j - 1, 0, 0)) / dx);
    *flux = 0.5 * (cell(u, n, 1, j - 1, 0, 1) + cell(u, n, 1, j, 0, 1))
            * (0.5 * (cell(p, n, 1, j - 1, 0, 0) + cell(p, n, 1, j, 0, 0)))
            - r_over_cv * cond;
}

/* The squares of r_mag and r_pressure of solver.consistency_residuals:
   rows 0 and 1. */
void residual_rows(ptrdiff_t n, ptrdiff_t k, double dx, double lambda, double mu,
                   double nu, double gas_R, double c_v, const struct rows *bef,
                   const ptrdiff_t *cols_b, const struct rows *aft,
                   const ptrdiff_t *cols_a, const double *dts, double *out)
{
    double r_over_cv = gas_R / c_v;
    for (ptrdiff_t j = 0; j < k; j++) {
        struct rows a = column(aft, cols_a[j], n), z = column(bef, cols_b[j], n);
        const double *u = a.u, *w = a.w, *b = a.b, *theta = a.theta, *p = a.p,
                     *kappa = a.kappa, *b0 = z.b, *p0 = z.p;
        double dt = dts[j];
        double *r_mag = out + j * n, *r_pre = out + (k + j) * n;
        double bbx, flux, bbx_next, flux_next;
        residual_faces(u, b, theta, p, kappa, n, 0, dx, r_over_cv, &bbx, &flux);
        for (ptrdiff_t i = 0; i < n; i++) {
            residual_faces(u, b, theta, p, kappa, n, i + 1, dx, r_over_cv, &bbx_next,
                           &flux_next);
            double b_sq = b[2 * i] * b[2 * i] + b[2 * i + 1] * b[2 * i + 1];
            double b0_sq = b0[2 * i] * b0[2 * i] + b0[2 * i + 1] * b0[2 * i + 1];
            double advect = 0.0, bx[2], wx[2];
            for (ptrdiff_t c = 0; c < 2; c++) {
                double g = (induction(u, w, b, n, i + 1, c) - induction(u, w, b, n, i - 1, c))
                           / (2.0 * dx);
                advect = c ? advect + b[2 * i + c] * g : b[2 * i + c] * g;
                bx[c] = grad(b, n, 2, i, c, 1, dx);
                wx[c] = grad(w, n, 2, i, c, 1, dx);
            }
            double rm = 0.5 * (b_sq - b0_sq) / dt + advect - nu * ((bbx_next - bbx) / dx)
                        + nu * (bx[0] * bx[0] + bx[1] * bx[1]);
            double ux = grad(u, n, 1, i, 0, 1, dx);
            double mech = lambda * ux * ux + mu * (wx[0] * wx[0] + wx[1] * wx[1])
                          + nu * (bx[0] * bx[0] + bx[1] * bx[1]);
            double rp = (p[i] - p0[i]) / dt + (flux_next - flux) / dx
                        - r_over_cv * (mech - p[i] * ux);
            r_mag[i] = rm * rm;
            r_pre[i] = rp * rp;
            bbx = bbx_next;
            flux = flux_next;
        }
    }
}

/* Integrand r of norm_rows at cell i, for after column a and before z. */
static double norm_integrand(int r, ptrdiff_t n, ptrdiff_t i, double dx, double dt,
                             double c_v, const struct rows *a, const struct rows *z,
                             const double *tq2, const double *phi)
{
    double f, v[2];
    switch (r) {
    case 0:
        for (ptrdiff_t c = 0; c < 2; c++)
            v[c] = (a->b[2 * i + c] - z->b[2 * i + c]) / dt;
        return length_sq(v[0], v[1]);
    case 1:
        return length_sq(grad(a->b, n, 2, i, 0, 1, dx), grad(a->b, n, 2, i, 1, 1, dx));
    case 2:
        return length_sq(onesided(a->b, n, 2, i, 0, dx), onesided(a->b, n, 2, i, 1, dx));
    case 3:
        f = a->kappa[i] * grad(a->theta, n, 1, i, 0, 0, dx);
        return f * f;
    case 4:
        return a->p[i] * a->p[i];
    case 5:
        f = (a->rho[i] - z->rho[i]) / dt;
        return f * f;
    case 6:
        return a->rho[i] * tq2[i];
    case 7:  /* np.gradient: one-sided first differences at the walls */
        f = i == 0 ? (a->rho[1] - a->rho[0]) / dx
            : i == n - 1 ? (a->rho[n - 1] - a->rho[n - 2]) / dx
            : (a->rho[i + 1] - a->rho[i - 1]) / (2.0 * dx);
        return f * f;
    case 8:
        f = sqrt(a->rho[i]) * ((a->theta[i] - z->theta[i]) / dt);
        return f * f;
    case 9:
        f = sqrt(a->rho[i]) * ((a->u[i] - z->u[i]) / dt);
        return f * f;
    case 10:
        for (ptrdiff_t c = 0; c < 2; c++)
            v[c] = sqrt(a->rho[i]) * ((a->w[2 * i + c] - z->w[2 * i + c]) / dt);
        return length_sq(v[0], v[1]);
    case 11:
        f = onesided(a->theta, n, 1, i, 0, dx);
        return f * f;
    case 12:
        f = grad(a->u, n, 1, i, 0, 1, dx);
        return f * f;
    case 13:
        f = onesided(a->u, n, 1, i, 0, dx);
        return f * f;
    case 14:
        return length_sq(grad(a->w, n, 2, i, 0, 1, dx), grad(a->w, n, 2, i, 1, 1, dx));
    case 15:
        return length_sq(onesided(a->w, n, 2, i, 0, dx), onesided(a->w, n, 2, i, 1, dx));
    case 16:
        return a->rho[i];
    case 17:
        f = 0.5 * (a->u[i] * a->u[i] + (a->w[2 * i] * a->w[2 * i]
                                        + a->w[2 * i + 1] * a->w[2 * i + 1]));
        return a->rho[i] * (c_v * a->theta[i] + f)
               + 0.5 * (a->b[2 * i] * a->b[2 * i] + a->b[2 * i + 1] * a->b[2 * i + 1]);
    default:
        f = grad(phi, n, 1, i, 0, 0, dx) - a->rho[i] * a->u[i];
        return f * f;
    }
}

/* The sixteen integrands of diagnostics.norm_suite in its order, rows
   0-15: squares, but row 6, rho theta^(q_exp + 2), with theta_q2 the
   stack's theta ** (q_exp + 2) from numpy.  With phi (k x n, column j's
   potential) not NULL, rows 16-18 are the integrands of total_mass,
   total_energy and the square of phi_momentum_residual's defect.  Each
   row is written in one sweep: rows k * n doubles apart, written side by
   side, would share cache sets. */
void norm_rows(ptrdiff_t n, ptrdiff_t k, double dx, double c_v, const struct rows *bef,
               const ptrdiff_t *cols_b, const struct rows *aft, const ptrdiff_t *cols_a,
               const double *dts, const double *theta_q2, const double *phi, double *out)
{
    int rows = phi ? 19 : 16;
    for (ptrdiff_t j = 0; j < k; j++) {
        struct rows a = column(aft, cols_a[j], n), z = column(bef, cols_b[j], n);
        const double *tq2 = theta_q2 + cols_a[j] * n, *phi_j = phi ? phi + j * n : NULL;
        for (int r = 0; r < rows; r++) {
            double *row = out + (r * k + j) * n;
            for (ptrdiff_t i = 0; i < n; i++)
                row[i] = norm_integrand(r, n, i, dx, dts[j], c_v, &a, &z, tq2, phi_j);
        }
    }
}

/* The six integrands of diagnostics.dissipation_ledger in its order, rows
   0-5, with theta_safe = max(theta, THETA_FLOOR) and its powers
   theta_safe ** alpha, ** q_exp and ** (1 + alpha) from numpy, all K x n.
   Row 6 is the phi increment of the update, ptilde of the before column
   times dt. */
void ledger_rows(ptrdiff_t n, ptrdiff_t k, double dx, double lambda, double mu,
                 double nu, const struct rows *bef, const ptrdiff_t *cols_b,
                 const struct rows *aft, const ptrdiff_t *cols_a, const double *dts,
                 const double *theta_safe, const double *pow_alpha, const double *pow_q,
                 const double *pow_1_alpha, double *out)
{
    ptrdiff_t next = k * n;
    for (ptrdiff_t j = 0; j < k; j++) {
        ptrdiff_t at = cols_a[j] * n;
        struct rows a = column(aft, cols_a[j], n), z = column(bef, cols_b[j], n);
        const double *u = a.u, *w = a.w, *b = a.b, *theta = a.theta, *kappa = a.kappa,
                     *ts = theta_safe + at, *ta = pow_alpha + at, *tq = pow_q + at,
                     *t1a = pow_1_alpha + at, *rho0 = z.rho, *u0 = z.u, *b0 = z.b, *p0 = z.p;
        double dt = dts[j];
        double *row = out + j * n;
        for (ptrdiff_t i = 0; i < n; i++) {
            double ux = grad(u, n, 1, i, 0, 1, dx), tx = grad(theta, n, 1, i, 0, 0, dx);
            double wx0 = grad(w, n, 2, i, 0, 1, dx), wx1 = grad(w, n, 2, i, 1, 1, dx);
            double bx0 = grad(b, n, 2, i, 0, 1, dx), bx1 = grad(b, n, 2, i, 1, 1, dx);
            double ux2 = ux * ux, wx2 = wx0 * wx0 + wx1 * wx1, bx2 = bx0 * bx0 + bx1 * bx1;
            double ratio = tx / ts[i];
            double heat = kappa[i] * ratio * ratio;
            double mech = lambda * ux2 + mu * wx2 + nu * bx2;
            row[i] = ux2;
            row[next + i] = wx2;
            row[2 * next + i] = bx2;
            row[3 * next + i] = heat;
            row[4 * next + i] = mech / ta[i] + (1.0 + tq[i]) * tx * tx / t1a[i];
            row[5 * next + i] = mech / ts[i] + heat;
            double b0_sq = b0[2 * i] * b0[2 * i] + b0[2 * i + 1] * b0[2 * i + 1];
            double ptilde = lambda * grad(u0, n, 1, i, 0, 1, dx) - rho0[i] * u0[i] * u0[i]
                            - p0[i] - 0.5 * b0_sq;
            row[6 * next + i] = ptilde * dt;
        }
    }
}
