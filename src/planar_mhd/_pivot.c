/* Compiled kernels behind planar_mhd's time step, diagnostics and output.

   solve_flux_system is the subtraction-free pivot recursion behind
   planar_mhd.operators.solve_flux_system.  step_explicit runs stages 1-4
   of solver.step and the explicit part of stage 5; conduction_solve runs
   the Picard loop of solver.conduction_update.  The two step entries read
   the scalars of the run from one constants block and share one workspace
   per step, and they make the step's checks: step_explicit computes
   scale_tol and checks the density, the velocities and field, and the
   convected temperature; conduction_solve checks each pass's change and
   reports the lowest value of the temperature it returns, NaN if one is
   not finite, so that Python scans it only to clip or to fail.
   solver.step stays one call per step, into these two, because perfbench's
   step counter, its tracer and the tests count and wrap those calls.
   residual_rows, norm_rows and ledger_rows write the integrands of
   solver.consistency_residuals, diagnostics.norm_suite and
   diagnostics.dissipation_ledger for the columns of a diagnostics window;
   numpy sums them.  format_rows writes the rows of diagnostics.csv and of
   the state tables as Python's %.17g does, independent of the locale.

   The pivot recursion lives in three places, each written so that the
   work that does not wait for its chain of divisions runs beside it:
   - solve_flux_system, held to operators._solve_flux_system_py by
     tests/test_operators.py::test_solve_flux_system_is_bitwise_the_python_loop;
   - factor_three, back_substitute_two and solve_factored, the u, w and b
     solves of step_explicit, held to the numpy step
     (solver._explicit_stages, which solves with the Python loop) by the
     step tests of tests/test_compiled_step.py, among them
     test_library_scenarios_step_alike and
     test_a_vacuum_cell_at_the_loop_edges_steps_alike;
   - the pass of conduction_solve, held to solver._numpy_solve by the same
     step tests and by the conduction tests there
     (test_conduction_that_does_not_converge_fails_alike and those after
     it).

   Every floating-point operation happens in the same order as in the
   numpy reference (operators._solve_flux_system_py, solver._explicit_stages,
   solver._numpy_solve and the numpy bodies of the diagnostics), so the
   two agree bit for bit.  That holds only without FMA contraction and
   without value-changing optimizations: build with
   -O3 -ffp-contract=off -fno-math-errno, never -ffast-math or an -m flag
   that picks the instruction set.  -fno-math-errno only stops sqrt from
   setting errno, which lets gcc vectorize it.  +, -, *, / and sqrt are
   correctly rounded in each SIMD lane as in a scalar register, so the
   elementwise loops (FOR_EDGED below) run two cells per SSE2 instruction
   with the same bits; the kernels reduce only by max, by counts and by
   flags, never by a sum.  To see which loops gcc vectorized:

       cc -O3 -ffp-contract=off -fno-math-errno -shared -fPIC -o /dev/null \
          src/planar_mhd/_pivot.c -fopt-info-vec-optimized

   No libm function is called but sqrt, because numpy's transcendental
   loops need not give libm's bits; sqrt is correctly rounded under IEEE
   754, so it gives np.sqrt's.  Every pow, exp and log comes in evaluated
   by numpy, and so does every sum: numpy's pairwise summation stays in
   numpy.  kappa(theta) is computed here only at q_exp = 2, as kappa_a +
   kappa_b * (theta * theta), which is how numpy evaluates theta ** 2.0;
   for any other exponent it comes in evaluated by numpy. */

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* Inlined always, so that the constant `wall` and component counts of
   each call fold into the caller's loop. */
#define INLINE static inline __attribute__((always_inline))

/* Runs the statement for i = 0, ..., count - 1 with `wall` a constant: 0
   for the interior, 1 at the two edges i = 0 and count - 1, which run
   after it.  A statement whose neighbour loads go through at() then has a
   branch-free interior loop, which gcc vectorizes, and one copy of its
   formula. */
#define FOR_EDGED(i, count, ...)                                          \
    do {                                                                  \
        ptrdiff_t last_ = (count) - 1;                                    \
        for (ptrdiff_t i = 1; i < last_; i++) {                           \
            const int wall = 0;                                           \
            (void) wall;                                                  \
            __VA_ARGS__;                                                  \
        }                                                                 \
        for (ptrdiff_t i = 0; i <= last_; i += last_ > 0 ? last_ : 1) {   \
            const int wall = 1;                                           \
            (void) wall;                                                  \
            __VA_ARGS__;                                                  \
        }                                                                 \
    } while (0)

/* n cells, k right-hand-side columns.  x holds the right-hand side on
   entry (row-major n x k) and the solution on return.  work holds 2n
   doubles (the multipliers g and the pivots p).  The forward sweep of x
   rides in the pivot loop, which hides its latency behind the divisions.
   Returns 0, or 1 on a zero pivot, in which case x is left half swept. */
int solve_flux_system(ptrdiff_t n, ptrdiff_t k, const double *cap, const double *off,
                      double *x, double *work)
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

/* Component c of cell i of a field of n cells with k interleaved
   components.  With wall set, i may be a ghost cell (i = -1 or i = n):
   operators.pad_ghosts, odd reflection negating the edge value and even
   reflection copying it.  Without it, i lies inside and the load is
   direct. */
INLINE double at(const double *f, ptrdiff_t n, ptrdiff_t k, ptrdiff_t i, ptrdiff_t c,
                 int odd, int wall)
{
    if (!wall)
        return f[i * k + c];
    double v = f[(i < 0 ? 0 : i >= n ? n - 1 : i) * k + c];
    return odd && (i < 0 || i >= n) ? -v : v;
}

/* *out = cond ? yes : no, as a store and a conditional store.  gcc
   vectorizes this form even where no is a division; the plain select it
   turns into a branch around the division, which keeps the loop scalar. */
INLINE void pick(double *out, int cond, double yes, double no)
{
    *out = no;
    if (cond)
        *out = yes;
}

/* operators.cell_grad at cell i, component c: the central difference
   over the ghost-extended field. */
INLINE double grad(const double *f, ptrdiff_t n, ptrdiff_t k, ptrdiff_t i, ptrdiff_t c,
                   int odd, double dx, int wall)
{
    return (at(f, n, k, i + 1, c, odd, wall) - at(f, n, k, i - 1, c, odd, wall)) / (2.0 * dx);
}

/* operators.face_average on the n+1 faces. */
INLINE void face_average(ptrdiff_t n, ptrdiff_t k, const double *restrict f, int odd,
                         double *restrict out)
{
    FOR_EDGED(j, n + 1, for (ptrdiff_t c = 0; c < k; c++)
              out[j * k + c] = 0.5 * (at(f, n, k, j - 1, c, odd, wall)
                                      + at(f, n, k, j, c, odd, wall)));
}

/* operators.upwind_face_flux: face velocity vf times the upwind cell
   value of q, exactly zero through the walls. */
INLINE void upwind_flux(ptrdiff_t n, ptrdiff_t k, const double *restrict vf,
                        const double *restrict q, double *restrict flux)
{
    FOR_EDGED(j, n + 1, for (ptrdiff_t c = 0; c < k; c++) {
        double left = at(q, n, k, j - 1, c, 0, wall), right = at(q, n, k, j, c, 0, wall);
        flux[j * k + c] = wall ? 0.0 : vf[j] * (vf[j] >= 0.0 ? left : right);
    });
}

/* operators.div_faces at cell i, component c. */
INLINE double div_faces(const double *flux, ptrdiff_t k, ptrdiff_t i, ptrdiff_t c, double dx)
{
    return (flux[(i + 1) * k + c] - flux[i * k + c]) / dx;
}

/* Component c of cell i of q, zero outside: the exterior of
   operators.flux_laplacian. */
INLINE double inside(const double *q, ptrdiff_t n, ptrdiff_t k, ptrdiff_t i, ptrdiff_t c,
                     int wall)
{
    return wall && (i < 0 || i >= n) ? 0.0 : q[i * k + c];
}

/* operators.flux_laplacian at cell i, component c. */
INLINE double laplacian(const double *off, const double *q, ptrdiff_t n, ptrdiff_t k,
                        ptrdiff_t i, ptrdiff_t c, int wall)
{
    double left = inside(q, n, k, i - 1, c, wall), mid = q[i * k + c],
           right = inside(q, n, k, i + 1, c, wall);
    return off[i + 1] * (right - mid) - off[i] * (mid - left);
}

/* Face j touches a vacuum cell (solver._vacuum_faces); with wall unset,
   j is an interior face. */
INLINE int vacuum_face(const double *rho, ptrdiff_t n, ptrdiff_t j, double vacuum_rho,
                       int wall)
{
    if (!wall)
        return (rho[j - 1] <= vacuum_rho) | (rho[j] <= vacuum_rho);
    return (j > 0 && rho[j - 1] <= vacuum_rho) || (j < n && rho[j] <= vacuum_rho);
}

/* operators.face_couplings(n, coeff, dx, ODD), with the faces touching
   vacuum zeroed when rho is not NULL. */
static void couplings(ptrdiff_t n, double coeff, double dx, const double *restrict rho,
                      double vacuum_rho, double *restrict off)
{
    double inner = coeff / (dx * dx), edge = inner * 2.0;
    if (rho)
        FOR_EDGED(j, n + 1, off[j] = vacuum_face(rho, n, j, vacuum_rho, wall) ? 0.0
                                     : wall ? edge : inner);
    else
        FOR_EDGED(j, n + 1, off[j] = wall ? edge : inner);
}

/* 1 when an entry of f is NaN or infinite. */
static int any_nonfinite(ptrdiff_t n, const double *f)
{
    int bad = 0;
    for (ptrdiff_t i = 0; i < n; i++)
        bad |= !(fabs(f[i]) <= DBL_MAX);
    return bad;
}

/* solver._require_nonnegative: -1 when an entry is NaN or infinite, or
   min(0, f) is below -tol.  Otherwise the number of negative entries; if
   there are some, every entry is clipped as np.maximum(f, 0.0) clips it,
   which gives +0.0 for -0.0 too. */
static ptrdiff_t require_nonnegative(ptrdiff_t n, double *f, double tol)
{
    ptrdiff_t below = 0, negative = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        below += f[i] < -tol;
        negative += f[i] < 0.0;
    }
    if (below || any_nonfinite(n, f))
        return -1;
    if (negative)
        for (ptrdiff_t i = 0; i < n; i++)
            f[i] = f[i] > 0.0 ? f[i] : 0.0;
    return negative;
}

/* min(0, f) as numpy's f.min(initial=0.0), or NaN when f holds a NaN or
   an infinity: what the check of solver.step after conduction reads. */
static double lowest(ptrdiff_t n, const double *f)
{
    double low = 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        if (!isfinite(f[i]))
            return NAN;
        if (f[i] < low)
            low = f[i];
    }
    return low;
}

/* The scalars of a (grid, params, cfg) in the one read-only block that
   solver._constants packs, in this order. */
enum { N_CELLS, DX, LAMBDA, MU, NU, GAS_R, C_V, VACUUM_RHO, THETA_TOL, KAPPA_A, KAPPA_B,
       PICARD_TOL, MAX_PASSES };

/* The workspace of one step, which step_explicit and conduction_solve
   share, 25n + 13 doubles: the report (the passes run so far, the last
   pass's max|theta_next - theta_k| and max|theta_k| + 1e-30, the lowest of
   the theta returned, and the step's scale_tol), then theta_tilde and rho,
   the incoming state (rho, u, w (n x 2), b (n x 2) and theta: 7n), which
   solver.step copies in, and the scratch (16n + 8): step_explicit's face
   velocity and field, flux, the couplings of u, w and b, the capacity, the
   explicit u and w (w's later holds b's), and the kept pivots of u and w
   and multipliers and pivots of b; conduction_solve's x, capacity,
   couplings and pivots in its first 4n + 1. */
enum { PASSES, CHANGE, SCALE, LOWEST, SCALE_TOL, REPORT };
#define STATE(n) (REPORT + 2 * (n))
#define SCRATCH(n) (REPORT + 9 * (n))

/* The factor loop of the u, w and b systems of stages 2-4, whose pivots
   depend on the capacities and couplings alone, so their three chains of
   divisions run side by side.  u and w share cap; b's capacity is cap_b in
   every cell.  Each system takes the steps of solve_flux_system, on the right-
   hand side of solver._implicit: the flux Laplacian of tilde_u (n) and of
   tilde_w (n x 2), whose rows the loop computes into xu and xw just before
   it sweeps them forward.  The pivots of u and w are kept in pu and pw; b's
   right-hand side is not known yet, so its multipliers and pivots are kept
   in gb and pb.  Returns 1 on a zero pivot. */
static int factor_three(ptrdiff_t n, const double *restrict cap, double cap_b,
                        const double *restrict off_u, const double *restrict off_w,
                        const double *restrict off_b, const double *restrict tilde_u,
                        const double *restrict tilde_w, double *restrict xu,
                        double *restrict xw, double *restrict pu, double *restrict pw,
                        double *restrict gb, double *restrict pb)
{
    double eu = 0.0, ew = 0.0, eb = 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        double ru = laplacian(off_u, tilde_u, n, 1, i, 0, 1),
               rw0 = laplacian(off_w, tilde_w, n, 2, i, 0, 1),
               rw1 = laplacian(off_w, tilde_w, n, 2, i, 1, 1);
        if (i == 0) {
            eu = cap[0] + off_u[0];
            ew = cap[0] + off_w[0];
            eb = cap_b + off_b[0];
        } else {
            if (pu[i - 1] <= 0.0 || pw[i - 1] <= 0.0 || pb[i - 1] <= 0.0)
                return 1;
            double gu = off_u[i] / pu[i - 1], gw = off_w[i] / pw[i - 1];
            gb[i] = off_b[i] / pb[i - 1];
            eu = cap[i] + gu * eu;
            ew = cap[i] + gw * ew;
            eb = cap_b + gb[i] * eb;
            ru += gu * xu[i - 1];
            rw0 += gw * xw[2 * i - 2];
            rw1 += gw * xw[2 * i - 1];
        }
        pu[i] = eu + off_u[i + 1];
        pw[i] = ew + off_w[i + 1];
        pb[i] = eb + off_b[i + 1];
        xu[i] = ru;
        xw[2 * i] = rw0;
        xw[2 * i + 1] = rw1;
    }
    return pu[n - 1] <= 0.0 || pw[n - 1] <= 0.0 || pb[n - 1] <= 0.0;
}

/* The back substitutions of the u and w systems of factor_three in one
   loop.  Each cell's solution x goes out as tilde + x, solver._implicit's
   result. */
static void back_substitute_two(ptrdiff_t n, const double *restrict off_u,
                                const double *restrict pu, const double *restrict tilde_u,
                                double *restrict xu, const double *restrict off_w,
                                const double *restrict pw, const double *restrict tilde_w,
                                double *restrict xw)
{
    double su = 0.0, sw0 = 0.0, sw1 = 0.0;  /* the solution of cell i + 1 */
    for (ptrdiff_t i = n - 1; i >= 0; i--) {
        if (i == n - 1) {
            su = xu[i] / pu[i];
            sw0 = xw[2 * i] / pw[i];
            sw1 = xw[2 * i + 1] / pw[i];
        } else {
            su = (xu[i] + off_u[i + 1] * su) / pu[i];
            sw0 = (xw[2 * i] + off_w[i + 1] * sw0) / pw[i];
            sw1 = (xw[2 * i + 1] + off_w[i + 1] * sw1) / pw[i];
        }
        xu[i] = tilde_u[i] + su;
        xw[2 * i] = tilde_w[2 * i] + sw0;
        xw[2 * i + 1] = tilde_w[2 * i + 1] + sw1;
    }
}

/* The b system of factor_three, now that its right-hand side, the flux
   Laplacian of tilde (n x 2), is known: the forward sweep computes each
   row and sweeps it, and the back substitution writes tilde + x, as
   back_substitute_two does. */
static void solve_factored(ptrdiff_t n, const double *restrict off, const double *restrict g,
                           const double *restrict p, const double *restrict tilde,
                           double *restrict x)
{
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t c = 0; c < 2; c++) {
            double r = laplacian(off, tilde, n, 2, i, c, 1);
            x[2 * i + c] = i == 0 ? r : r + g[i] * x[2 * i - 2 + c];
        }
    double s0 = 0.0, s1 = 0.0;  /* the solution of cell i + 1 */
    for (ptrdiff_t i = n - 1; i >= 0; i--) {
        if (i == n - 1) {
            s0 = x[2 * i] / p[i];
            s1 = x[2 * i + 1] / p[i];
        } else {
            s0 = (x[2 * i] + off[i + 1] * s0) / p[i];
            s1 = (x[2 * i + 1] + off[i + 1] * s1) / p[i];
        }
        x[2 * i] = tilde[2 * i] + s0;
        x[2 * i + 1] = tilde[2 * i + 1] + s1;
    }
}

/* Stages 1-4 of solver.step and stage 5 up to theta_tilde, as
   solver._explicit_stages does them, with the scale_tol of solver.step:
   (64 eps) max(1, max rho0), max taken as numpy takes it.

   The incoming state is the workspace's.  out gets rho1, u1, w1 and b1
   end to end (the new State's block), and
   the workspace theta_tilde, a copy of rho1, scale_tol and zero passes,
   where conduction_solve takes them.  The force_* arrays are the forcing
   terms already scaled (dt f, and f for the energy), or NULL.  Returns
   the number of cells whose theta_tilde was negative before the clip, or
   -1 when a check of the step fails; the numpy stages then say which. */
ptrdiff_t step_explicit(const double *k, double dt, const double *force_rho,
                        const double *force_u, const double *force_w, const double *force_b,
                        const double *force_e, double *ws, double *out)
{
    ptrdiff_t n = (ptrdiff_t) k[N_CELLS];
    double dx = k[DX], lambda = k[LAMBDA], mu = k[MU], nu = k[NU], gas_R = k[GAS_R],
           c_v = k[C_V], vacuum_rho = k[VACUUM_RHO];
    const double *rho0 = ws + STATE(n), *u0 = rho0 + n, *w0 = rho0 + 2 * n, *b0 = rho0 + 4 * n,
                 *th0 = rho0 + 6 * n;
    double *rho1 = out, *u1 = out + n, *w1 = out + 2 * n, *b1 = out + 4 * n,
           *theta_tilde = ws + REPORT;
    double *uf = ws + SCRATCH(n), *bf = uf + (n + 1), *flux = bf + 2 * (n + 1),
           *off_u = flux + 2 * (n + 1), *off_w = off_u + (n + 1), *off_b = off_w + (n + 1),
           *cap = off_b + (n + 1), *tilde_u = cap + n, *tilde = tilde_u + n,
           *pu = tilde + 2 * n, *pw = pu + n, *gb = pw + n, *pb = gb + n;

    double top = 0.0;
    for (ptrdiff_t i = 0; i < n; i++)
        top = rho0[i] > top || rho0[i] != rho0[i] ? rho0[i] : top;
    double scale_tol = 64.0 * DBL_EPSILON * (top > 1.0 ? top : 1.0);
    ws[PASSES] = 0.0;
    ws[SCALE_TOL] = scale_tol;

    /* stage 1: continuity */
    face_average(n, 1, u0, 1, uf);
    face_average(n, 2, b0, 1, bf);
    upwind_flux(n, 1, uf, rho0, flux);
    for (ptrdiff_t i = 0; i < n; i++) {
        rho1[i] = rho0[i] - dt * div_faces(flux, 1, i, 0, dx);
        if (force_rho)
            rho1[i] = rho1[i] + force_rho[i];
    }
    if (require_nonnegative(n, rho1, scale_tol) < 0)
        return -1;
    for (ptrdiff_t i = 0; i < n; i++)
        pick(&cap[i], rho1[i] <= vacuum_rho, 1.0, rho1[i] / dt);

    /* stage 2: longitudinal momentum; the second half of flux holds the
       total pressure */
    double *ptot = flux + (n + 1);
    for (ptrdiff_t i = 0; i < n; i++) {
        tilde_u[i] = rho0[i] * u0[i];
        ptot[i] = gas_R * rho0[i] * th0[i]
                  + 0.5 * (b0[2 * i] * b0[2 * i] + b0[2 * i + 1] * b0[2 * i + 1]);
    }
    upwind_flux(n, 1, uf, tilde_u, flux);
    FOR_EDGED(i, n, {
        double m = tilde_u[i] - dt * div_faces(flux, 1, i, 0, dx)
                   - dt * grad(ptot, n, 1, i, 0, 0, dx, wall);
        if (force_u)
            m = m + force_u[i];
        pick(&tilde_u[i], rho1[i] <= vacuum_rho, 0.0, m / rho1[i]);
    });
    couplings(n, lambda, dx, rho1, vacuum_rho, off_u);

    /* stage 3: transverse momentum (the -b part rides in the same flux) */
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t c = 0; c < 2; c++)
            tilde[2 * i + c] = rho0[i] * w0[2 * i + c];
    upwind_flux(n, 2, uf, tilde, flux);
    for (ptrdiff_t j = 0; j < 2 * (n + 1); j++)
        flux[j] = flux[j] - bf[j];
    for (ptrdiff_t c = 0; c < 2; c++)  /* components outermost, which gcc vectorizes */
        for (ptrdiff_t i = 0; i < n; i++) {
            double m = tilde[2 * i + c] - dt * div_faces(flux, 2, i, c, dx);
            if (force_w)
                m = m + force_w[2 * i + c];
            pick(&tilde[2 * i + c], rho1[i] <= vacuum_rho, 0.0, m / rho1[i]);
        }
    couplings(n, mu, dx, rho1, vacuum_rho, off_w);

    /* stages 2-4: the three factorizations at once, then u and w */
    double cap_b = 1.0 / dt;
    couplings(n, nu, dx, NULL, vacuum_rho, off_b);
    if (factor_three(n, cap, cap_b, off_u, off_w, off_b, tilde_u, tilde, u1, w1, pu, pw, gb, pb))
        return -1;
    back_substitute_two(n, off_u, pu, tilde_u, u1, off_w, pw, tilde, w1);

    /* stage 4: induction, with the freshest velocities */
    FOR_EDGED(j, n + 1, {
        double uf1 = 0.5 * (at(u1, n, 1, j - 1, 0, 1, wall) + at(u1, n, 1, j, 0, 1, wall));
        for (ptrdiff_t c = 0; c < 2; c++)
            flux[2 * j + c] = uf1 * bf[2 * j + c]
                              - 0.5 * (at(w1, n, 2, j - 1, c, 1, wall)
                                       + at(w1, n, 2, j, c, 1, wall));
    });
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t c = 0; c < 2; c++) {
            tilde[2 * i + c] = b0[2 * i + c] - dt * div_faces(flux, 2, i, c, dx);
            if (force_b)
                tilde[2 * i + c] = tilde[2 * i + c] + force_b[2 * i + c];
        }
    solve_factored(n, off_b, gb, pb, tilde, b1);
    if (any_nonfinite(5 * n, u1))  /* u1, w1 and b1 lie end to end */
        return -1;

    /* stage 5: internal energy; off_u holds the mechanical heating on faces */
    double *heat = off_u;
    for (ptrdiff_t i = 0; i < n; i++)
        tilde[i] = c_v * rho0[i] * th0[i];
    upwind_flux(n, 1, uf, tilde, flux);
    double still = lambda * 0.0 * 0.0 + mu * (0.0 * 0.0 + 0.0 * 0.0);  /* du = dw = 0 */
    FOR_EDGED(j, n + 1, {
        double du = (at(u1, n, 1, j, 0, 1, wall) - at(u1, n, 1, j - 1, 0, 1, wall)) / dx;
        double dw[2], db[2];
        for (ptrdiff_t c = 0; c < 2; c++) {
            dw[c] = (at(w1, n, 2, j, c, 1, wall) - at(w1, n, 2, j - 1, c, 1, wall)) / dx;
            db[c] = (at(b1, n, 2, j, c, 1, wall) - at(b1, n, 2, j - 1, c, 1, wall)) / dx;
        }
        pick(&heat[j], vacuum_face(rho1, n, j, vacuum_rho, wall), still,
             lambda * du * du + mu * (dw[0] * dw[0] + dw[1] * dw[1]));
        heat[j] = heat[j] + nu * (db[0] * db[0] + db[1] * db[1]);
    });
    double *source = pu;  /* free since u and w are solved */
    FOR_EDGED(i, n, {
        double u_x = grad(u1, n, 1, i, 0, 1, dx, wall);
        source[i] = 0.5 * (heat[i] + heat[i + 1]) - gas_R * rho1[i] * th0[i] * u_x;
        if (force_e)
            source[i] = source[i] + force_e[i];
    });
    for (ptrdiff_t i = 0; i < n; i++) {
        double energy = tilde[i] - dt * div_faces(flux, 1, i, 0, dx) + dt * source[i];
        pick(&theta_tilde[i], rho1[i] <= vacuum_rho, th0[i], energy / (c_v * rho1[i]));
    }
    memcpy(theta_tilde + n, rho1, (size_t) n * sizeof *rho1);  /* the rho of conduction_solve */
    return require_nonnegative(n, theta_tilde, k[THETA_TOL]);
}

/* kappa of cell i of conduction_solve: kappa[i], or with kappa NULL
   kappa_a + kappa_b * (m * m) with m = max(theta_k[i], 0), a NaN kept. */
INLINE double kappa_of(const double *kappa, const double *theta_k, ptrdiff_t i, double kappa_a,
                       double kappa_b)
{
    if (kappa)
        return kappa[i];
    double m = theta_k[i] > 0.0 || theta_k[i] != theta_k[i] ? theta_k[i] : 0.0;
    return kappa_a + kappa_b * (m * m);
}

/* The Picard loop of solver.conduction_update, as solver._numpy_solve
   runs it, with its stop test and its non-finite test, on the workspace's
   theta_tilde and rho.  The iterate theta_k is theta_tilde before the
   first pass and theta after it; each pass writes its result to theta.
   The report gets the passes run (0 before the first call), the last
   pass's max|theta_next - theta_k| and max|theta_k| + 1e-30, the scale of
   the stop test (a max is NaN if any entry is NaN, as numpy's max), and,
   once the stop test holds, lowest(theta).  With kappa NULL (q_exp = 2),
   each pass takes kappa_a + kappa_b * (m * m) with m = max(theta_k, 0), a
   NaN kept, and passes run until one of the returns below or until
   MAX_PASSES have run; otherwise kappa holds kappa(max(theta_k, 0)) per
   cell and one pass runs.  Returns 0 when the stop test holds, 1 when it
   does not, 2 when the change is not finite, 3 on a zero pivot.

   A pass is solve_flux_system on the flux Laplacian of theta_tilde, with the
   work that does not wait for the chain of divisions inside its two
   loops: the factor loop computes face i + 1's coupling (zero at the
   walls and at faces touching vacuum) and cell i's row of the Laplacian
   before its pivot, and the back substitution computes theta, the change
   and the scale of each cell as it solves it. */
int conduction_solve(const double *k, double dt, const double *kappa, double *ws,
                     double *theta)
{
    ptrdiff_t n = (ptrdiff_t) k[N_CELLS];
    double dx = k[DX], vacuum_rho = k[VACUUM_RHO], kappa_a = k[KAPPA_A], kappa_b = k[KAPPA_B],
           c_v = k[C_V];
    const double *restrict theta_tilde = ws + REPORT, *restrict rho = theta_tilde + n;
    double *restrict x = ws + SCRATCH(n), *restrict cap = x + n, *restrict off = cap + n,
           *restrict p = off + (n + 1);

    for (ptrdiff_t i = 0; i < n; i++)
        pick(&cap[i], rho[i] <= vacuum_rho, 1.0, c_v * rho[i] / dt);
    while (ws[PASSES] < k[MAX_PASSES]) {
        const double *theta_k = ws[PASSES] > 0.0 ? theta : theta_tilde;
        ws[PASSES] += 1.0;
        /* the pivot and the swept row of cell i - 1, and kappa of cell i */
        double p_prev = 0.0, x_prev = 0.0, e = 0.0,
               kap = kappa_of(kappa, theta_k, 0, kappa_a, kappa_b);
        off[0] = 0.0;  /* walls and faces touching vacuum are insulated */
        for (ptrdiff_t i = 0; i < n; i++) {
            double kap_next = i + 1 < n ? kappa_of(kappa, theta_k, i + 1, kappa_a, kappa_b) : 0.0;
            off[i + 1] = i + 1 == n || vacuum_face(rho, n, i + 1, vacuum_rho, 0) ? 0.0
                         : 0.5 * (kap + kap_next) / (dx * dx);
            kap = kap_next;
            double xi = laplacian(off, theta_tilde, n, 1, i, 0, 1);
            if (i == 0) {
                e = cap[0] + off[0];
            } else {
                if (p_prev <= 0.0)
                    return 3;
                double g = off[i] / p_prev;
                e = cap[i] + g * e;
                xi += g * x_prev;
            }
            p[i] = p_prev = e + off[i + 1];
            x[i] = x_prev = xi;
        }
        if (p_prev <= 0.0)
            return 3;
        double change = 0.0, scale = 0.0, solved = 0.0;
        for (ptrdiff_t i = n - 1; i >= 0; i--) {
            solved = i == n - 1 ? x[i] / p[i] : (x[i] + off[i + 1] * solved) / p[i];
            double next = theta_tilde[i] + solved;
            double d = fabs(next - theta_k[i]), a = fabs(theta_k[i]);
            change = d > change || d != d ? d : change;
            scale = a > scale || a != a ? a : scale;
            theta[i] = next;
        }
        scale += 1e-30;
        ws[CHANGE] = change;
        ws[SCALE] = scale;
        if (!isfinite(change))
            return 2;
        if (change <= k[PICARD_TOL] * scale) {
            ws[LOWEST] = lowest(n, theta);
            return 0;
        }
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
   each row.  Every cell loop is a FOR_EDGED one, so its interior runs two
   cells per SSE2 instruction, divisions and square roots included. */
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

INLINE double square(double f)
{
    return f * f;
}

/* The square of length(v) of diagnostics.norm_suite: the square of
   sqrt(v0 * v0 + v1 * v1), not the sum itself. */
INLINE double length_sq(double v0, double v1)
{
    double length = sqrt(v0 * v0 + v1 * v1);
    return length * length;
}

/* operators.second_diff_onesided at cell i, component c; only the wall
   cells take the one-sided copies. */
INLINE double onesided(const double *f, ptrdiff_t n, ptrdiff_t k, ptrdiff_t i, ptrdiff_t c,
                       double dx, int wall)
{
    if (wall && i == 0)
        return (f[c] - 2.0 * f[k + c] + f[2 * k + c]) / (dx * dx);
    ptrdiff_t m = wall && i >= n - 1 ? n - 2 : i;
    return (f[(m + 1) * k + c] - 2.0 * f[m * k + c] + f[(m - 1) * k + c]) / (dx * dx);
}

/* u b - w of solver.consistency_residuals at cell i (a ghost where wall
   is set), component c: the odd reflection negates the edge value. */
INLINE double induction(const double *u, const double *w, const double *b, ptrdiff_t n,
                        ptrdiff_t i, ptrdiff_t c, int wall)
{
    ptrdiff_t m = wall ? (i < 0 ? 0 : i >= n ? n - 1 : i) : i;
    double v = u[m] * b[2 * m + c] - w[2 * m + c];
    return wall && (i < 0 || i >= n) ? -v : v;
}

/* b . b_x on face j and the flux u P - (gas_R / c_v) kappa theta_x on
   face j, as solver.consistency_residuals forms them. */
INLINE void residual_face(const struct rows *a, ptrdiff_t n, ptrdiff_t j, double dx,
                          double r_over_cv, int wall, double *bbx, double *flux)
{
    for (ptrdiff_t c = 0; c < 2; c++) {
        double left = at(a->b, n, 2, j - 1, c, 1, wall), right = at(a->b, n, 2, j, c, 1, wall);
        double term = 0.5 * (left + right) * ((right - left) / dx);
        *bbx = c ? *bbx + term : term;
    }
    double cond = 0.5 * (at(a->kappa, n, 1, j - 1, 0, 0, wall) + at(a->kappa, n, 1, j, 0, 0, wall))
                  * ((at(a->theta, n, 1, j, 0, 0, wall) - at(a->theta, n, 1, j - 1, 0, 0, wall))
                     / dx);
    *flux = 0.5 * (at(a->u, n, 1, j - 1, 0, 1, wall) + at(a->u, n, 1, j, 0, 1, wall))
            * (0.5 * (at(a->p, n, 1, j - 1, 0, 0, wall) + at(a->p, n, 1, j, 0, 0, wall)))
            - r_over_cv * cond;
}

/* The squares of r_mag and r_pressure of solver.consistency_residuals:
   rows 0 and 1.  Each cell computes both of its faces, so no value is
   carried from one cell to the next. */
void residual_rows(ptrdiff_t n, ptrdiff_t k, double dx, double lambda, double mu,
                   double nu, double gas_R, double c_v, const struct rows *bef,
                   const ptrdiff_t *cols_b, const struct rows *aft,
                   const ptrdiff_t *cols_a, const double *dts, double *restrict out)
{
    double r_over_cv = gas_R / c_v;
    for (ptrdiff_t j = 0; j < k; j++) {
        struct rows a = column(aft, cols_a[j], n), z = column(bef, cols_b[j], n);
        const double *u = a.u, *w = a.w, *b = a.b, *p = a.p, *b0 = z.b, *p0 = z.p;
        double dt = dts[j];
        double *r_mag = out + j * n, *r_pre = out + (k + j) * n;
        FOR_EDGED(i, n, {
            double bbx, flux, bbx_next, flux_next;
            residual_face(&a, n, i, dx, r_over_cv, wall, &bbx, &flux);
            residual_face(&a, n, i + 1, dx, r_over_cv, wall, &bbx_next, &flux_next);
            double b_sq = b[2 * i] * b[2 * i] + b[2 * i + 1] * b[2 * i + 1];
            double b0_sq = b0[2 * i] * b0[2 * i] + b0[2 * i + 1] * b0[2 * i + 1];
            double advect = 0.0, bx[2], wx[2];
            for (ptrdiff_t c = 0; c < 2; c++) {
                double g = (induction(u, w, b, n, i + 1, c, wall)
                            - induction(u, w, b, n, i - 1, c, wall)) / (2.0 * dx);
                advect = c ? advect + b[2 * i + c] * g : b[2 * i + c] * g;
                bx[c] = grad(b, n, 2, i, c, 1, dx, wall);
                wx[c] = grad(w, n, 2, i, c, 1, dx, wall);
            }
            double rm = 0.5 * (b_sq - b0_sq) / dt + advect - nu * ((bbx_next - bbx) / dx)
                        + nu * (bx[0] * bx[0] + bx[1] * bx[1]);
            double ux = grad(u, n, 1, i, 0, 1, dx, wall);
            double mech = lambda * ux * ux + mu * (wx[0] * wx[0] + wx[1] * wx[1])
                          + nu * (bx[0] * bx[0] + bx[1] * bx[1]);
            double rp = (p[i] - p0[i]) / dt + (flux_next - flux) / dx
                        - r_over_cv * (mech - p[i] * ux);
            r_mag[i] = rm * rm;
            r_pre[i] = rp * rp;
        });
    }
}

/* Row r of norm_rows for after column a and before column z. */
static void norm_row(int r, ptrdiff_t n, double dx, double dt, double c_v,
                     const struct rows *a, const struct rows *z, const double *tq2,
                     const double *phi, double *restrict row)
{
    const double *rho = a->rho, *u = a->u, *w = a->w, *b = a->b, *theta = a->theta;
#define ROW(...) FOR_EDGED(i, n, row[i] = (__VA_ARGS__)); break
    switch (r) {
    case 0:
        ROW(length_sq((b[2 * i] - z->b[2 * i]) / dt, (b[2 * i + 1] - z->b[2 * i + 1]) / dt));
    case 1:
        ROW(length_sq(grad(b, n, 2, i, 0, 1, dx, wall), grad(b, n, 2, i, 1, 1, dx, wall)));
    case 2:
        ROW(length_sq(onesided(b, n, 2, i, 0, dx, wall), onesided(b, n, 2, i, 1, dx, wall)));
    case 3:
        ROW(square(a->kappa[i] * grad(theta, n, 1, i, 0, 0, dx, wall)));
    case 4:
        ROW(a->p[i] * a->p[i]);
    case 5:
        ROW(square((rho[i] - z->rho[i]) / dt));
    case 6:
        ROW(rho[i] * tq2[i]);
    case 7:  /* np.gradient: one-sided first differences at the walls */
        ROW(square(!wall ? (rho[i + 1] - rho[i - 1]) / (2.0 * dx)
                   : i == 0 ? (rho[1] - rho[0]) / dx : (rho[n - 1] - rho[n - 2]) / dx));
    case 8:
        ROW(square(sqrt(rho[i]) * ((theta[i] - z->theta[i]) / dt)));
    case 9:
        ROW(square(sqrt(rho[i]) * ((u[i] - z->u[i]) / dt)));
    case 10:
        ROW(length_sq(sqrt(rho[i]) * ((w[2 * i] - z->w[2 * i]) / dt),
                      sqrt(rho[i]) * ((w[2 * i + 1] - z->w[2 * i + 1]) / dt)));
    case 11:
        ROW(square(onesided(theta, n, 1, i, 0, dx, wall)));
    case 12:
        ROW(square(grad(u, n, 1, i, 0, 1, dx, wall)));
    case 13:
        ROW(square(onesided(u, n, 1, i, 0, dx, wall)));
    case 14:
        ROW(length_sq(grad(w, n, 2, i, 0, 1, dx, wall), grad(w, n, 2, i, 1, 1, dx, wall)));
    case 15:
        ROW(length_sq(onesided(w, n, 2, i, 0, dx, wall), onesided(w, n, 2, i, 1, dx, wall)));
    case 16:
        ROW(rho[i]);
    case 17:
        ROW(rho[i] * (c_v * theta[i] + 0.5 * (u[i] * u[i] + (w[2 * i] * w[2 * i]
                                                             + w[2 * i + 1] * w[2 * i + 1])))
            + 0.5 * (b[2 * i] * b[2 * i] + b[2 * i + 1] * b[2 * i + 1]));
    default:
        ROW(square(grad(phi, n, 1, i, 0, 0, dx, wall) - rho[i] * u[i]));
    }
#undef ROW
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
        for (int r = 0; r < rows; r++)
            norm_row(r, n, dx, dts[j], c_v, &a, &z, tq2, phi_j, out + (r * k + j) * n);
    }
}

/* The rows of ledger_rows for after column a and before column z, each
   row its own restrict pointer so that gcc knows they do not overlap. */
static void ledger_column(ptrdiff_t n, double dx, double lambda, double mu, double nu,
                          double dt, const struct rows *a, const struct rows *z,
                          const double *ts, const double *ta, const double *tq,
                          const double *t1a, double *restrict ux2_row,
                          double *restrict wx2_row, double *restrict bx2_row,
                          double *restrict heat_row, double *restrict weighted_row,
                          double *restrict entropy_row, double *restrict phi_row)
{
    const double *u = a->u, *w = a->w, *b = a->b, *theta = a->theta, *kappa = a->kappa,
                 *rho0 = z->rho, *u0 = z->u, *b0 = z->b, *p0 = z->p;
    FOR_EDGED(i, n, {
        double ux = grad(u, n, 1, i, 0, 1, dx, wall), tx = grad(theta, n, 1, i, 0, 0, dx, wall);
        double wx0 = grad(w, n, 2, i, 0, 1, dx, wall), wx1 = grad(w, n, 2, i, 1, 1, dx, wall);
        double bx0 = grad(b, n, 2, i, 0, 1, dx, wall), bx1 = grad(b, n, 2, i, 1, 1, dx, wall);
        double ux2 = ux * ux, wx2 = wx0 * wx0 + wx1 * wx1, bx2 = bx0 * bx0 + bx1 * bx1;
        double ratio = tx / ts[i];
        double heat = kappa[i] * ratio * ratio;
        double mech = lambda * ux2 + mu * wx2 + nu * bx2;
        ux2_row[i] = ux2;
        wx2_row[i] = wx2;
        bx2_row[i] = bx2;
        heat_row[i] = heat;
        weighted_row[i] = mech / ta[i] + (1.0 + tq[i]) * tx * tx / t1a[i];
        entropy_row[i] = mech / ts[i] + heat;
        double b0_sq = b0[2 * i] * b0[2 * i] + b0[2 * i + 1] * b0[2 * i + 1];
        double ptilde = lambda * grad(u0, n, 1, i, 0, 1, dx, wall) - rho0[i] * u0[i] * u0[i]
                        - p0[i] - 0.5 * b0_sq;
        phi_row[i] = ptilde * dt;
    });
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
        ptrdiff_t c = cols_a[j] * n;
        struct rows a = column(aft, cols_a[j], n), z = column(bef, cols_b[j], n);
        double *row = out + j * n;
        ledger_column(n, dx, lambda, mu, nu, dts[j], &a, &z, theta_safe + c, pow_alpha + c,
                      pow_q + c, pow_1_alpha + c, row, row + next, row + 2 * next,
                      row + 3 * next, row + 4 * next, row + 5 * next, row + 6 * next);
    }
}


/* ------------------------------------------------------------------------
   Output rows.  format_rows writes a rows x cols block of doubles as text:
   each value as Python's '%.17g' % v writes it, values separated by sep,
   each row ended by a newline (diagnostics.csv and the state tables).  The
   17 significant digits, correctly rounded half to even as Python rounds
   them, come from exact 128-bit integer arithmetic for |v| from about
   1e-16 up to about 2^157, and from snprintf's "%.16e", which rounds the
   same way but costs several times more, for the rest.  The %g layout is made
   here from the digits and the exponent alone, so no radix character of
   LC_NUMERIC shows, and a NaN is nan whatever its sign bit (glibc prints
   -nan).  out holds rows * (cols * 25 + 1) bytes (tables._FIELD).
   Returns the bytes written. */
enum { DIGITS = 17 };
typedef unsigned __int128 u128;

static char *put(char *p, const char *s, ptrdiff_t count)
{
    memcpy(p, s, (size_t) count);
    return p + count;
}

static u128 power_of_5(int k)
{
    u128 power = 1, base = 5;
    for (; k > 0; k >>= 1, base *= base)
        if (k & 1)
            power *= base;
    return power;
}

/* The digits of finite v > 0 rounded to DIGITS significant ones, and the
   decimal exponent of the first, when v = m 2^e scaled to 17 digits,
   m 5^p 2^(e + p) or m 2^(e - q) / 5^q, is exact in 128 bits; 0 otherwise. */
static int exact_digits(double v, char *digits, int *exponent)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int biased = (int) (bits >> 52 & 0x7ff);
    if (biased == 0)
        return 0;  /* subnormal */
    uint64_t m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    int e = biased - 1075, k = e + 52;  /* v = m 2^e and 2^k <= v < 2^(k + 1) */
    int x = k >= 0 ? k * 78913 >> 18 : -((-k * 78913 + (1 << 18) - 1) >> 18);
    const u128 low = (u128) 10000000000000000ULL, high = 10 * low;
    /* x = floor(k log10 2) is floor(log10 v) or one less */
    for (int attempt = 0; attempt < 2; attempt++, x++) {
        int p = DIGITS - 1 - x;  /* v 10^p in [1e16, 1e17) */
        u128 q, rest, half;  /* truncated digits, remainder, and half a unit */
        int even_tie;
        if (p >= 0) {
            int shift = -(e + p);
            if (p > 32 || shift > 127)
                return 0;
            u128 n = (u128) m * power_of_5(p);  /* < 2^53 5^32 < 2^128 */
            if (shift <= 0) {
                if (shift < -10)
                    return 0;
                q = n << -shift, rest = 0, half = 1;
            } else {
                q = n >> shift, rest = n & (((u128) 1 << shift) - 1);
                half = (u128) 1 << (shift - 1);
            }
            even_tie = rest == half;
        } else {
            int shift = e + p;  /* divide m 2^e by 5^-p 2^-p */
            if (-p > 55 || shift < 0 || shift > 74)
                return 0;
            u128 n = (u128) m << shift, divisor = power_of_5(-p);
            q = n / divisor, rest = n % divisor;
            half = divisor / 2 + 1;  /* rest >= half: more than half, divisor odd */
            even_tie = 0;
        }
        if (q >= high)
            continue;
        if (rest > half || (rest == half && !even_tie) || (even_tie && q & 1))
            q++;
        if (q == high)
            q = low, x++;
        uint64_t d = (uint64_t) q;
        for (int i = DIGITS - 1; i >= 0; i--, d /= 10)
            digits[i] = (char) ('0' + d % 10);
        *exponent = x;
        return 1;
    }
    return 0;
}

static char *format_value(double v, char *p)
{
    if (v != v)
        return put(p, "nan", 3);
    if (signbit(v))
        *p++ = '-';
    if (isinf(v))
        return put(p, "inf", 3);
    if (v == 0.0)
        return put(p, "0", 1);
    char digits[DIGITS];
    int exponent;
    if (!exact_digits(fabs(v), digits, &exponent)) {
        char text[64];
        snprintf(text, sizeof text, "%.16e", v);
        const char *s = text;
        int count = 0;
        for (; *s != 'e'; s++)
            if (*s >= '0' && *s <= '9' && count < DIGITS)
                digits[count++] = *s;
        exponent = atoi(s + 1);
    }
    int last = DIGITS - 1;  /* digits[last] is the last nonzero one */
    while (last > 0 && digits[last] == '0')
        last--;
    if (exponent < -4 || exponent >= DIGITS) {
        *p++ = digits[0];
        if (last > 0) {
            *p++ = '.';
            p = put(p, digits + 1, last);
        }
        int magnitude = exponent < 0 ? -exponent : exponent;
        *p++ = 'e';
        *p++ = exponent < 0 ? '-' : '+';
        if (magnitude >= 100)
            *p++ = (char) ('0' + magnitude / 100);
        *p++ = (char) ('0' + magnitude / 10 % 10);
        *p++ = (char) ('0' + magnitude % 10);
    } else if (exponent >= 0) {
        p = put(p, digits, exponent + 1);
        if (last > exponent) {
            *p++ = '.';
            p = put(p, digits + exponent + 1, last - exponent);
        }
    } else {  /* "0." and -exponent - 1 zeros, then the digits */
        p = put(p, "0.000", 1 - exponent);
        p = put(p, digits, last + 1);
    }
    return p;
}

ptrdiff_t format_rows(const double *values, ptrdiff_t rows, ptrdiff_t cols, ptrdiff_t sep,
                      char *out)
{
    char *p = out;
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t c = 0; c < cols; c++) {
            p = format_value(values[r * cols + c], p);
            *p++ = c + 1 < cols ? (char) sep : '\n';
        }
    return p - out;
}
