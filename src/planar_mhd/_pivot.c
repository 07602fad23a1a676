/* Compiled copy of the subtraction-free pivot recursion behind
   planar_mhd.operators.solve_flux_system.

   Every floating-point operation happens in the same order as in
   operators._solve_flux_system_py, so the two agree bit for bit.  That
   holds only without FMA contraction and without value-changing
   optimizations: build with -O2 -ffp-contract=off, never -ffast-math.

   n cells, k right-hand-side columns.  x holds the right-hand side on
   entry (row-major n x k) and the solution on return.  work holds 2n
   doubles (the multipliers g and the pivots p).  Returns 0, or 1 on a
   zero pivot, in which case x is left unsolved. */

#include <stddef.h>

int solve_flux_system(ptrdiff_t n, ptrdiff_t k, const double *cap,
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
    }
    if (p[n - 1] <= 0.0)
        return 1;
    for (ptrdiff_t i = 1; i < n; i++)
        for (ptrdiff_t j = 0; j < k; j++)
            x[i * k + j] += g[i] * x[(i - 1) * k + j];
    for (ptrdiff_t j = 0; j < k; j++)
        x[(n - 1) * k + j] /= p[n - 1];
    for (ptrdiff_t i = n - 2; i >= 0; i--)
        for (ptrdiff_t j = 0; j < k; j++)
            x[i * k + j] = (x[i * k + j] + off[i + 1] * x[(i + 1) * k + j]) / p[i];
    return 0;
}
