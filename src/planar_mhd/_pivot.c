/* Compiled kernels behind planar_mhd's time step, diagnostics and output.

   step_explicit runs stages 1-4 of solver.step and the explicit part of
   stage 5; conduction_solve runs the Picard loop of
   solver.conduction_update.  The two step entries read the scalars of the
   run from one constants block and share one workspace per step, and they
   make the step's checks: step_explicit computes scale_tol and checks the
   density, the velocities and field, and the convected temperature;
   conduction_solve checks each pass's change and reports the lowest value
   of the temperature it returns, NaN if one is not finite, so that Python
   scans it only to clip or to fail.  solver.step stays one call per step,
   into these two, because perfbench's step counter, its tracer and the
   tests count and wrap those calls.
   fold_rows writes a diagnostics window's integrands, phi and extrema in
   one call and sums each integrand row as it writes it, with the one
   pairwise helper; numpy evaluates every pow, log and exp (README,
   "Compiled diagnostics").  DiagnosticsAccumulator.flush is its one
   caller; every other diagnostics call runs the numpy bodies.
   format_rows writes the rows of diagnostics.csv and of the state tables
   as Python's %.17g does, independent of the locale.
   mms_table forms the five residuals of a manufactured-solution forcing
   table from the 25 closed-form results that verification.MMSCase._table
   gathers, one call per table; the numpy body of _table is its twin,
   held to it by tests/test_verification.py
   (test_residual_table_matches_nested_stencils_bitwise on both paths).

   The subtraction-free pivot recursion of operators.solve_flux_system,
   which runs as a Python loop (operators._solve_flux_system_py), lives
   here in two places, both in the step, each written so that the work
   that does not wait for its chain of divisions runs beside it:
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
   solver._numpy_solve, the numpy bodies of the diagnostics and of
   MMSCase._table), so the two agree bit for bit.  That holds only without
   FMA contraction and without value-changing optimizations: build with
   -O3 -ffp-contract=off -fno-math-errno, never -ffast-math or an -m flag
   that picks the instruction set.  -fno-math-errno only stops sqrt from
   setting errno, which lets gcc vectorize it.  +, -, *, / and sqrt are
   correctly rounded in each SIMD lane as in a scalar register, so the
   elementwise loops (FOR_EDGED below) run two cells per SSE2 instruction
   with the same bits; the kernels reduce only by max, by counts, by flags
   and by the one pairwise helper, which sums in numpy's order.  To see
   which loops gcc vectorized:

       cc -O3 -ffp-contract=off -fno-math-errno -shared -fPIC -o /dev/null \
          src/planar_mhd/_pivot.c -fopt-info-vec-optimized

   No libm function is called but sqrt, because numpy's transcendental
   loops need not give libm's bits; sqrt is correctly rounded under IEEE
   754, so it gives np.sqrt's.  Every pow, exp and log comes in evaluated
   by numpy; every sum is the one pairwise helper, numpy's pairwise
   summation in its order.  kappa(theta) is computed here, by
   conduction_solve, only at q_exp = 2, as kappa_a + kappa_b * (theta *
   theta), which is how numpy evaluates theta ** 2.0; for any other
   exponent, and always for mms_table, it comes in evaluated by numpy. */

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

/* Built also for AVX2 and AVX-512F on x86-64, the clone picked when the library
   loads: the same correctly rounded operations in wider lanes, the same bits.
   A WIDE function calls only INLINE and WIDE functions: a plain one is built
   once, for the baseline, and a clone calls it with the upper halves of its
   vector registers dirty and no vzeroupper, which slows every SSE
   instruction of the callee (pairwise as a plain static function made a
   fold_rows call at n = 128, W = 64 take 633 against 310 us).
   tests/test_operators.py::test_a_wide_kernel_calls_only_inline_or_wide_helpers
   checks it. */
#if defined(__x86_64__) && defined(__GNUC__)
#define WIDE __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define WIDE
#endif

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

/* x / d for d = dx, 2 dx or dx^2.  With exact set, dx is a power of two,
   so 1 / d is exact and x times it has the quotient's bits: the fold's
   copy of its loops for such n multiplies instead (fold_rows). */
INLINE double by(double x, double d, int exact)
{
    return exact ? x * (1.0 / d) : x / d;
}

/* operators.cell_grad at cell i, component c: the central difference
   over the ghost-extended field. */
INLINE double grad(const double *f, ptrdiff_t n, ptrdiff_t k, ptrdiff_t i, ptrdiff_t c,
                   int odd, double dx, int wall, int exact)
{
    return by(at(f, n, k, i + 1, c, odd, wall) - at(f, n, k, i - 1, c, odd, wall), 2.0 * dx,
              exact);
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
INLINE void couplings(ptrdiff_t n, double coeff, double dx, const double *restrict rho,
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
INLINE int any_nonfinite(ptrdiff_t n, const double *f)
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
INLINE ptrdiff_t require_nonnegative(ptrdiff_t n, double *f, double tol)
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
INLINE double lowest(ptrdiff_t n, const double *f)
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
   every cell.  Each system takes the steps of the pivot recursion, on the
   right-hand side of solver._implicit: the flux Laplacian of tilde_u (n)
   and of tilde_w (n x 2), whose rows the loop computes into xu and xw just
   before it sweeps them forward.  The pivots of u and w are kept in pu and pw; b's
   right-hand side is not known yet, so its multipliers and pivots are kept
   in gb and pb.  Returns 1 on a zero pivot. */
INLINE int factor_three(ptrdiff_t n, const double *restrict cap, double cap_b,
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
INLINE void back_substitute_two(ptrdiff_t n, const double *restrict off_u,
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
INLINE void solve_factored(ptrdiff_t n, const double *restrict off, const double *restrict g,
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
WIDE ptrdiff_t step_explicit(const double *k, double dt, const double *force_rho,
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
                   - dt * grad(ptot, n, 1, i, 0, 0, dx, wall, 0);
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
        double u_x = grad(u1, n, 1, i, 0, 1, dx, wall, 0);
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

   A pass is the pivot recursion on the flux Laplacian of theta_tilde, with
   the work that does not wait for the chain of divisions inside its two
   loops: the factor loop computes face i + 1's coupling (zero at the
   walls and at faces touching vacuum) and cell i's row of the Laplacian
   before its pivot, and the back substitution computes theta, the change
   and the scale of each cell as it solves it. */
WIDE int conduction_solve(const double *k, double dt, const double *kappa, double *ws,
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
   The manufactured-solution table (verification.MMSCase._table, one call
   per table, so one per forced step of an mms run).  ws holds the scalars
   below, then the 25 closed-form results that _table gathers, end to end
   in its order (83n doubles for n points x): theta on the nested stencil
   rows, 5 x 5 x n ([j][r]: x-stencil row r shifted by offset j, so [2] is
   theta on the x-stencil rows); rho and u, 5 x n, and w and b, 5 x n x 2,
   on the x-stencil rows; and the four time rows t + 2h, t + h, t - h and
   t - 2h of rho, u (4 x n), w, b (4 x n x 2) and theta (4 x n).  out gets
   the residuals of rho, u, w, b and e (n, n, 2n, 2n, n) as _table's numpy
   body forms them: each _d1 and _d2 as (-f0 + 8 f1 - 8 f3 + f4) / (12 h)
   and (-f0 + 16 f1 - 30 f2 + 16 f3 - f4) / (12 h h), P as (gas_R rho)
   theta.  kappa holds kappa(theta) of the x-stencil rows (5 x n) by numpy,
   which has already refused a negative theta there.  Returns 1, and writes
   nothing, when rho of an x-stencil row is negative; _table then runs its
   numpy body, whose model.pressure raises on it. */
enum { MMS_N, MMS_H, MMS_LAMBDA, MMS_MU, MMS_NU, MMS_GAS_R, MMS_C_V, MMS_HEAD };

/* verification._d1 of the four off-centre rows a, b, c and d. */
INLINE double d1_of(double a, double b, double c, double d, double h12)
{
    return (-a + 8.0 * b - 8.0 * c + d) / h12;
}

/* _d1 of the five x-stencil rows f[0], f[s], ..., f[4 s] (so f[2 s]
   unread), of the four time rows f[0], ..., f[3 s], and _d2 of the five
   x-stencil rows. */
INLINE double d1_x(const double *f, ptrdiff_t s, double h12)
{
    return d1_of(f[0], f[s], f[3 * s], f[4 * s], h12);
}

INLINE double d1_t(const double *f, ptrdiff_t s, double h12)
{
    return d1_of(f[0], f[s], f[2 * s], f[3 * s], h12);
}

INLINE double d2_x(const double *f, ptrdiff_t s, double hh12)
{
    return (-f[0] + 16.0 * f[s] - 30.0 * f[2 * s] + 16.0 * f[3 * s] - f[4 * s]) / hh12;
}

/* The cells of mms_table.  Each residual is its own restrict parameter,
   which lets gcc vectorize the loops without run-time alias checks. */
INLINE void mms_cells(const double *restrict ws, const double *restrict kappa,
                      double *restrict f_rho, double *restrict f_u, double *restrict f_w,
                      double *restrict f_b, double *restrict f_e)
{
    ptrdiff_t n = (ptrdiff_t) ws[MMS_N];
    double h = ws[MMS_H], lambda = ws[MMS_LAMBDA], mu = ws[MMS_MU], nu = ws[MMS_NU],
           gas_R = ws[MMS_GAS_R], c_v = ws[MMS_C_V];
    double h12 = 12.0 * h, hh12 = 12.0 * h * h;
    const double *nested = ws + MMS_HEAD, *theta = nested + 10 * n, *rho = nested + 25 * n,
                 *u = rho + 5 * n, *w = u + 5 * n, *b = w + 10 * n, *rho_t = b + 10 * n,
                 *u_t = rho_t + 4 * n, *w_t = u_t + 4 * n, *b_t = w_t + 8 * n,
                 *theta_t = b_t + 8 * n;

    for (ptrdiff_t i = 0; i < n; i++) {
        /* per x-stencil row r: m = rho u, the flux of rho u, c_v rho u theta
           and the conduction flux kappa theta_x; per time row, rho u and
           c_v rho theta */
        double m[5], flux_m[5], flux_e[5], cond[5], rho_u[4], rho_e[4];
        for (int r = 0; r < 5; r++) {
            double rr = rho[r * n + i], ur = u[r * n + i], th = theta[r * n + i];
            const double *br = b + 2 * (r * n + i);
            m[r] = rr * ur;
            flux_m[r] = rr * (ur * ur) + (gas_R * rr * th + 0.5 * (br[0] * br[0] + br[1] * br[1]));
            flux_e[r] = c_v * rr * ur * th;
            cond[r] = kappa[r * n + i] * d1_x(nested + r * n + i, 5 * n, h12);
        }
        for (int s = 0; s < 4; s++) {
            rho_u[s] = rho_t[s * n + i] * u_t[s * n + i];
            rho_e[s] = c_v * rho_t[s * n + i] * theta_t[s * n + i];
        }
        f_rho[i] = d1_t(rho_t + i, n, h12) + d1_x(m, 1, h12);
        f_u[i] = d1_t(rho_u, 1, h12) + d1_x(flux_m, 1, h12) - lambda * d2_x(u + i, n, hh12);
        double ux = d1_x(u + i, n, h12), wx0 = d1_x(w + 2 * i, 2 * n, h12),
               wx1 = d1_x(w + 2 * i + 1, 2 * n, h12), bx0 = d1_x(b + 2 * i, 2 * n, h12),
               bx1 = d1_x(b + 2 * i + 1, 2 * n, h12);
        double heating = lambda * ux * ux + mu * (wx0 * wx0 + wx1 * wx1)
                         + nu * (bx0 * bx0 + bx1 * bx1)
                         - gas_R * rho[2 * n + i] * theta[2 * n + i] * ux;
        f_e[i] = d1_t(rho_e, 1, h12) + d1_x(flux_e, 1, h12) - d1_x(cond, 1, h12) - heating;
    }
    for (ptrdiff_t c = 0; c < 2; c++)  /* components outermost, which gcc vectorizes */
        for (ptrdiff_t i = 0; i < n; i++) {
            /* per row: rho w and m w - b, u b - w */
            double rho_w[4], flux_w[5], flux_b[5];
            for (int s = 0; s < 4; s++)
                rho_w[s] = rho_t[s * n + i] * w_t[2 * (s * n + i) + c];
            for (int r = 0; r < 5; r++) {
                ptrdiff_t k = 2 * (r * n + i) + c;
                flux_w[r] = rho[r * n + i] * u[r * n + i] * w[k] - b[k];
                flux_b[r] = u[r * n + i] * b[k] - w[k];
            }
            const double *wc = w + 2 * i + c, *bc = b + 2 * i + c;
            f_w[2 * i + c] = d1_t(rho_w, 1, h12) + d1_x(flux_w, 1, h12)
                             - mu * d2_x(wc, 2 * n, hh12);
            f_b[2 * i + c] = d1_t(b_t + 2 * i + c, 2 * n, h12) + d1_x(flux_b, 1, h12)
                             - nu * d2_x(bc, 2 * n, hh12);
        }
}

/* Built once, for the baseline (two cells per SSE2 instruction), not
   WIDE: its clones grew the library by 86 KiB to save 2-7 us a table at
   n = 64-256, and perfbench's sim-large, which never calls it, then read
   a median 3-4% slower wall_s in fresh processes (2/10 pairs faster, in
   two rounds; 6/10 without the clones). */
int mms_table(const double *ws, const double *kappa, double *out)
{
    ptrdiff_t n = (ptrdiff_t) ws[MMS_N];
    const double *rho = ws + MMS_HEAD + 25 * n;
    int negative = 0;
    for (ptrdiff_t i = 0; i < 5 * n; i++)
        negative |= rho[i] < 0.0;
    if (negative)
        return 1;
    mms_cells(ws, kappa, out, out + n, out + 2 * n, out + 4 * n, out + 6 * n);
    return 0;
}

/* ------------------------------------------------------------------------
   The diagnostics fold (diagnostics._fold, which
   DiagnosticsAccumulator.flush calls once per window).  The fields of the
   window's K states (diagnostics._Stack) lie as rows, rho, u and theta
   K x n, w and b K x n x 2.  Step j reads the after column cols_a[j]
   against the before column cols_b[j] with step dts[j]; record d is step
   due[d].  The residual is skipped when its pointer is NULL, the records
   when there are none.  Each integrand row is written into
   scratch (8n + 2 doubles: six rows, then the residual's 2 (n + 1) faces)
   and only its sum is stored, as numpy's .sum() gives it (total): row r
   of step j at part[r * steps + j], of record d at record[r * records + d]:
   - residual, 2 rows: the squares of solver.consistency_residuals'
     r_mag and r_pressure;
   - ledger, 6 rows: the integrands of diagnostics.dissipation_ledger;
   - phi, W x n: from phi0, each step's potential, the one before it plus
     ptilde of its before column times dt;
   - record, 20 rows: the integrands of diagnostics.norm_suite, the square
     of phi_momentum_residual's defect, and those of total_mass,
     total_energy and entropy_functional;
   - extrema, 3 x W: the max of rho and the min and max of theta at each
     after column, NaN once one is NaN, as numpy's max and min give them.
   P is gas_R * rho * theta as model.pressure forms it.  From numpy, by
   step: kappa(theta), theta_safe = max(theta, THETA_FLOOR) and its powers
   ** alpha, ** q_exp and ** (1 + alpha); by record: theta ** (q_exp + 2)
   and np.log of rho and of theta. */
struct rows {
    const double *rho, *u, *w, *b, *theta;
};

struct fold {
    ptrdiff_t n, steps, records;
    double dx, lambda, mu, nu, gas_R, c_v;
    const struct rows *rows;
    const ptrdiff_t *cols_b, *cols_a, *due;
    const double *dts, *kappa, *theta_safe, *pow_alpha, *pow_q, *pow_1_alpha, *theta_q2,
        *log_rho, *log_theta, *phi0;
    double *phi, *residual, *scratch, *ledger, *record, *extrema;
};

/* numpy's pairwise summation of n contiguous doubles (DOUBLE_pairwise_sum
   of numpy's loops_utils.h.src; Higham, SIAM J. Sci. Comput. 14, 1993): a
   plain loop below 8 values, eight accumulators up to 128, and above that
   two halves split at n / 2 rounded down to a multiple of 8.  Recursive,
   so WIDE rather than INLINE (see the header). */
WIDE static double pairwise(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double s = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            s += a[i];
        return s;
    }
    if (n <= 128) {
        double r[8];
        for (int c = 0; c < 8; c++)
            r[c] = a[c];
        ptrdiff_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int c = 0; c < 8; c++)
                r[c] += a[i + c];
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += a[i];
        return s;
    }
    ptrdiff_t half = n / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* row.sum() of n contiguous doubles: numpy adds the pairwise sum to its
   initial 0.0, which makes a row of -0.0 sum to +0.0. */
INLINE double total(const double *row, ptrdiff_t n)
{
    return 0.0 + pairwise(row, n);
}

/* Column c of struct rows on n cells. */
INLINE struct rows column(const struct rows *r, ptrdiff_t c, ptrdiff_t n)
{
    struct rows col = {r->rho + c * n, r->u + c * n, r->w + 2 * c * n, r->b + 2 * c * n,
                       r->theta + c * n};
    return col;
}

/* P at cell i of column r, a ghost where wall is set (even reflection). */
INLINE double pressure(const struct fold *f, const struct rows *r, ptrdiff_t i, int wall)
{
    return f->gas_R * at(r->rho, f->n, 1, i, 0, 0, wall) * at(r->theta, f->n, 1, i, 0, 0, wall);
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
                       double dx, int wall, int exact)
{
    if (wall && i == 0)
        return by(f[c] - 2.0 * f[k + c] + f[2 * k + c], dx * dx, exact);
    ptrdiff_t m = wall && i >= n - 1 ? n - 2 : i;
    return by(f[(m + 1) * k + c] - 2.0 * f[m * k + c] + f[(m - 1) * k + c], dx * dx, exact);
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

/* The derivatives of cell i in the cell loops below. */
#define D1(g, k, c, odd) grad(g, n, k, i, c, odd, dx, wall, exact)
#define D2(g, k, c) onesided(g, n, k, i, c, dx, wall, exact)

/* b . b_x on face j and the flux u P - (gas_R / c_v) kappa theta_x on
   face j, as solver.consistency_residuals forms them. */
INLINE void residual_face(const struct fold *f, const struct rows *a, const double *kappa,
                          ptrdiff_t j, int wall, int exact, double *bbx, double *flux)
{
    ptrdiff_t n = f->n;
    double dx = f->dx;
    for (ptrdiff_t c = 0; c < 2; c++) {
        double left = at(a->b, n, 2, j - 1, c, 1, wall), right = at(a->b, n, 2, j, c, 1, wall);
        double term = 0.5 * (left + right) * by(right - left, dx, exact);
        *bbx = c ? *bbx + term : term;
    }
    double cond = 0.5 * (at(kappa, n, 1, j - 1, 0, 0, wall) + at(kappa, n, 1, j, 0, 0, wall))
                  * by(at(a->theta, n, 1, j, 0, 0, wall) - at(a->theta, n, 1, j - 1, 0, 0, wall),
                       dx, exact);
    *flux = 0.5 * (at(a->u, n, 1, j - 1, 0, 1, wall) + at(a->u, n, 1, j, 0, 1, wall))
            * (0.5 * (pressure(f, a, j - 1, wall) + pressure(f, a, j, wall)))
            - f->gas_R / f->c_v * cond;
}

/* The residual part of step j: its n + 1 faces first, then its cells. */
INLINE void residual_step(const struct fold *f, const struct rows *a, const struct rows *z,
                          ptrdiff_t j, double *restrict r_mag, double *restrict r_pre,
                          int exact)
{
    ptrdiff_t n = f->n;
    double dx = f->dx, dt = f->dts[j], nu = f->nu, r_over_cv = f->gas_R / f->c_v;
    const double *u = a->u, *w = a->w, *b = a->b, *b0 = z->b, *kappa = f->kappa + j * n;
    double *restrict bbx = f->scratch + 6 * n, *restrict flux = bbx + n + 1;
    FOR_EDGED(i, n + 1, residual_face(f, a, kappa, i, wall, exact, bbx + i, flux + i));
    FOR_EDGED(i, n, {
        double p = pressure(f, a, i, 0);
        double b_sq = b[2 * i] * b[2 * i] + b[2 * i + 1] * b[2 * i + 1];
        double b0_sq = b0[2 * i] * b0[2 * i] + b0[2 * i + 1] * b0[2 * i + 1];
        double advect = 0.0, bx[2], wx[2];
        for (ptrdiff_t c = 0; c < 2; c++) {
            double g = by(induction(u, w, b, n, i + 1, c, wall)
                          - induction(u, w, b, n, i - 1, c, wall), 2.0 * dx, exact);
            advect = c ? advect + b[2 * i + c] * g : b[2 * i + c] * g;
            bx[c] = D1(b, 2, c, 1);
            wx[c] = D1(w, 2, c, 1);
        }
        double rm = 0.5 * (b_sq - b0_sq) / dt + advect - nu * by(bbx[i + 1] - bbx[i], dx, exact)
                    + nu * (bx[0] * bx[0] + bx[1] * bx[1]);
        double ux = D1(u, 1, 0, 1);
        double mech = f->lambda * ux * ux + f->mu * (wx[0] * wx[0] + wx[1] * wx[1])
                      + nu * (bx[0] * bx[0] + bx[1] * bx[1]);
        double rp = (p - pressure(f, z, i, 0)) / dt + by(flux[i + 1] - flux[i], dx, exact)
                    - r_over_cv * (mech - p * ux);
        r_mag[i] = rm * rm;
        r_pre[i] = rp * rp;
    });
}

/* The ledger part of step j, each row its own restrict pointer so that
   gcc knows they do not overlap. */
INLINE void ledger_step(const struct fold *f, const struct rows *a, ptrdiff_t j, int exact,
                        double *restrict ux2_row, double *restrict wx2_row,
                        double *restrict bx2_row, double *restrict heat_row,
                        double *restrict weighted_row, double *restrict entropy_row)
{
    ptrdiff_t n = f->n;
    double dx = f->dx;
    const double *u = a->u, *w = a->w, *b = a->b, *theta = a->theta, *kappa = f->kappa + j * n,
                 *ts = f->theta_safe + j * n, *ta = f->pow_alpha + j * n,
                 *tq = f->pow_q + j * n, *t1a = f->pow_1_alpha + j * n;
    FOR_EDGED(i, n, {
        double ux = D1(u, 1, 0, 1), tx = D1(theta, 1, 0, 0);
        double wx0 = D1(w, 2, 0, 1), wx1 = D1(w, 2, 1, 1), bx0 = D1(b, 2, 0, 1),
               bx1 = D1(b, 2, 1, 1);
        double ux2 = ux * ux, wx2 = wx0 * wx0 + wx1 * wx1, bx2 = bx0 * bx0 + bx1 * bx1;
        double ratio = tx / ts[i];
        double heat = kappa[i] * ratio * ratio;
        double mech = f->lambda * ux2 + f->mu * wx2 + f->nu * bx2;
        ux2_row[i] = ux2;
        wx2_row[i] = wx2;
        bx2_row[i] = bx2;
        heat_row[i] = heat;
        weighted_row[i] = mech / ta[i] + (1.0 + tq[i]) * tx * tx / t1a[i];
        entropy_row[i] = mech / ts[i] + heat;
    });
}

/* numpy's maximum (sign 1) or minimum (sign -1): NaN once either is. */
INLINE double extreme(double m, double v, double sign)
{
    return m != m || sign * m >= sign * v ? m : v;
}

INLINE void record_row(int r, const struct fold *f, ptrdiff_t d, const struct rows *a,
                       const struct rows *z, double *restrict row, int exact)
{
    ptrdiff_t n = f->n, j = f->due[d];
    double dx = f->dx, dt = f->dts[j];
    const double *rho = a->rho, *u = a->u, *w = a->w, *b = a->b, *theta = a->theta,
                 *tq2 = f->theta_q2 + d * n, *phi = f->phi + j * n,
                 *lr = f->log_rho + d * n, *lt = f->log_theta + d * n;
#define ROW(...) FOR_EDGED(i, n, row[i] = (__VA_ARGS__)); break
    switch (r) {
    case 0:
        ROW(length_sq((b[2 * i] - z->b[2 * i]) / dt, (b[2 * i + 1] - z->b[2 * i + 1]) / dt));
    case 1:
        ROW(length_sq(D1(b, 2, 0, 1), D1(b, 2, 1, 1)));
    case 2:
        ROW(length_sq(D2(b, 2, 0), D2(b, 2, 1)));
    case 3:
        ROW(square(f->kappa[j * n + i] * D1(theta, 1, 0, 0)));
    case 4:
        ROW(square(pressure(f, a, i, 0)));
    case 5:
        ROW(square((rho[i] - z->rho[i]) / dt));
    case 6:
        ROW(rho[i] * tq2[i]);
    case 7:  /* np.gradient: one-sided first differences at the walls */
        ROW(square(!wall ? by(rho[i + 1] - rho[i - 1], 2.0 * dx, exact)
                   : by(i == 0 ? rho[1] - rho[0] : rho[n - 1] - rho[n - 2], dx, exact)));
    case 8:
        ROW(square(sqrt(rho[i]) * ((theta[i] - z->theta[i]) / dt)));
    case 9:
        ROW(square(sqrt(rho[i]) * ((u[i] - z->u[i]) / dt)));
    case 10:
        ROW(length_sq(sqrt(rho[i]) * ((w[2 * i] - z->w[2 * i]) / dt),
                      sqrt(rho[i]) * ((w[2 * i + 1] - z->w[2 * i + 1]) / dt)));
    case 11:
        ROW(square(D2(theta, 1, 0)));
    case 12:
        ROW(square(D1(u, 1, 0, 1)));
    case 13:
        ROW(square(D2(u, 1, 0)));
    case 14:
        ROW(length_sq(D1(w, 2, 0, 1), D1(w, 2, 1, 1)));
    case 15:
        ROW(length_sq(D2(w, 2, 0), D2(w, 2, 1)));
    case 16:
        ROW(square(D1(phi, 1, 0, 0) - rho[i] * u[i]));
    case 17:
        ROW(rho[i]);
    case 18:
        ROW(rho[i] * (f->c_v * theta[i] + 0.5 * (u[i] * u[i] + (w[2 * i] * w[2 * i]
                                                                + w[2 * i + 1] * w[2 * i + 1])))
            + 0.5 * (b[2 * i] * b[2 * i] + b[2 * i + 1] * b[2 * i + 1]));
    default:  /* a cell with rho > 0 and not theta > 0 makes the entropy +inf */
        ROW(!(rho[i] > 0.0) ? 0.0 : theta[i] > 0.0 ? rho[i] * (lr[i] + fabs(lt[i])) : INFINITY);
    }
#undef ROW
}

/* Every part of struct fold.  Each record row is written in one sweep
   and summed while it is in cache. */
INLINE void fold_all(const struct fold *f, int exact)
{
    ptrdiff_t n = f->n, w = f->steps;
    double *row = f->scratch;
    for (ptrdiff_t j = 0; j < w; j++) {
        struct rows a = column(f->rows, f->cols_a[j], n), z = column(f->rows, f->cols_b[j], n);
        if (f->residual) {
            residual_step(f, &a, &z, j, row, row + n, exact);
            for (int r = 0; r < 2; r++)
                f->residual[r * w + j] = total(row + r * n, n);
        }
        ledger_step(f, &a, j, exact, row, row + n, row + 2 * n, row + 3 * n, row + 4 * n,
                    row + 5 * n);
        for (int r = 0; r < 6; r++)
            f->ledger[r * w + j] = total(row + r * n, n);
        const double *rho0 = z.rho, *u0 = z.u, *b0 = z.b,
                     *restrict before = j ? f->phi + (j - 1) * n : f->phi0;
        double *restrict phi = f->phi + j * n;
        /* as the numpy body of DiagnosticsAccumulator.update adds the increments */
        FOR_EDGED(i, n, {
            double b0_sq = b0[2 * i] * b0[2 * i] + b0[2 * i + 1] * b0[2 * i + 1];
            double ptilde = f->lambda * grad(u0, n, 1, i, 0, 1, f->dx, wall, exact)
                            - rho0[i] * u0[i] * u0[i] - pressure(f, &z, i, 0) - 0.5 * b0_sq;
            phi[i] = before[i] + ptilde * f->dts[j];
        });
        /* the extrema over two chains of alternate cells, which overlap */
        double e[2][3] = {{a.rho[0], a.theta[0], a.theta[0]},
                          {a.rho[n - 1], a.theta[n - 1], a.theta[n - 1]}};
        for (ptrdiff_t i = 1; i + 1 < n; i += 2)
            for (int c = 0; c < 2; c++)
                for (int q = 0; q < 3; q++)
                    e[c][q] = extreme(e[c][q], (q ? a.theta : a.rho)[i + c], q == 1 ? -1 : 1);
        for (int q = 0; q < 3; q++)
            f->extrema[q * w + j] = extreme(e[0][q], e[1][q], q == 1 ? -1 : 1);
    }
    for (ptrdiff_t d = 0; d < f->records; d++) {
        ptrdiff_t j = f->due[d];
        struct rows a = column(f->rows, f->cols_a[j], n), z = column(f->rows, f->cols_b[j], n);
        for (int r = 0; r < 20; r++) {
            record_row(r, f, d, &a, &z, row, exact);
            f->record[r * f->records + d] = total(row, n);
        }
    }
}

WIDE void fold_rows(const struct fold *f)
{
    if ((f->n & (f->n - 1)) == 0)
        fold_all(f, 1);
    else
        fold_all(f, 0);
}
#undef D2
#undef D1


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
