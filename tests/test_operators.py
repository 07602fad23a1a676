"""Stencil and flux-solver tests against independent dense oracles."""

import ast
import os
import re
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import planar_mhd
import planar_mhd.operators as operators
from planar_mhd.operators import (
    EVEN,
    ODD,
    cell_grad,
    div_faces,
    dot2,
    face_average,
    face_couplings,
    face_diff,
    flux_laplacian,
    l2,
    pad_ghosts,
    second_diff,
    second_diff_onesided,
    solve_flux_system,
    upwind_face_flux,
)


def grid_centers(n):
    dx = 1.0 / n
    return dx, (np.arange(n) + 0.5) * dx


def dense_flux_matrix(cap, off):
    """The matrix diag(cap) - L that solve_flux_system eliminates."""
    n = cap.shape[0]
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = cap[i] + off[i] + off[i + 1]
        if i > 0:
            a[i, i - 1] = -off[i]
        if i < n - 1:
            a[i, i + 1] = -off[i + 1]
    return a


def test_pad_ghosts_reflections():
    f = np.array([1.0, 2.0, 3.0])
    odd = pad_ghosts(f, ODD)
    even = pad_ghosts(f, EVEN)
    assert np.array_equal(odd, [-1.0, 1.0, 2.0, 3.0, -3.0])
    assert np.array_equal(even, [1.0, 1.0, 2.0, 3.0, 3.0])


def test_pad_ghosts_two_component():
    w = np.array([[1.0, -2.0], [3.0, 4.0]])
    g = pad_ghosts(w, ODD)
    assert g.shape == (4, 2)
    assert np.array_equal(g[0], [-1.0, 2.0])
    assert np.array_equal(g[-1], [-3.0, -4.0])


def test_pad_ghosts_rejects_unknown_kind():
    with pytest.raises(ValueError):
        pad_ghosts(np.zeros(3), "periodic")


def test_cell_grad_exact_on_sine():
    # sin(2 pi x) is exactly odd about both walls, so the ghost values agree
    # with the analytic continuation and the only error is the sinc factor.
    n = 64
    dx, x = grid_centers(n)
    u = np.sin(2.0 * np.pi * x)
    g = cell_grad(u, dx, ODD)
    factor = np.sin(2.0 * np.pi * dx) / (2.0 * np.pi * dx)
    expected = 2.0 * np.pi * np.cos(2.0 * np.pi * x) * factor
    assert np.max(np.abs(g - expected)) < 1e-12


def test_cell_grad_constant_even_is_zero():
    g = cell_grad(np.full(10, 3.7), 0.1, EVEN)
    assert np.array_equal(g, np.zeros(10))


def test_second_diff_quadratic_interior():
    n = 32
    dx, x = grid_centers(n)
    f = 3.0 * x * x
    d2 = second_diff(f, dx, EVEN)
    assert np.allclose(d2[1:-1], 6.0, rtol=0.0, atol=1e-9)


def test_second_diff_onesided_exact_on_quadratic():
    n = 16
    dx, x = grid_centers(n)
    f = 2.0 * x * x - x + 0.25
    d2 = second_diff_onesided(f, dx)
    assert np.allclose(d2, 4.0, rtol=0.0, atol=1e-9)


def test_face_values_and_wall_conventions():
    f = np.array([1.0, 3.0, 5.0])
    avg_odd = face_average(f, ODD)
    avg_even = face_average(f, EVEN)
    assert avg_odd.shape == (4,)
    assert avg_odd[0] == 0.0 and avg_odd[-1] == 0.0
    assert np.array_equal(avg_odd[1:-1], [2.0, 4.0])
    assert avg_even[0] == 1.0 and avg_even[-1] == 5.0

    dfe = face_diff(f, 0.5, EVEN)
    assert dfe[0] == 0.0 and dfe[-1] == 0.0
    assert np.array_equal(dfe[1:-1], [4.0, 4.0])


def test_div_faces_telescopes():
    rng = np.random.default_rng(3)
    flux = rng.normal(size=9)
    dx = 1.0 / 8
    total = np.sum(div_faces(flux, dx)) * dx
    assert abs(total - (flux[-1] - flux[0])) < 1e-14


def test_l2_reference_values():
    # sqrt((9 + 16) * 0.25) and sqrt((|(3, 4)|^2 + |(0, 5)|^2) * 0.5)
    assert l2(np.array([3.0, 4.0]), 0.25) == 2.5
    assert l2(np.array([[3.0, 4.0], [0.0, 5.0]]), 0.5) == 5.0
    assert isinstance(l2(np.array([1.0]), 1.0), float)


def test_l2_matches_the_written_out_form_bitwise():
    rng = np.random.default_rng(7)
    dx = 1.0 / 97
    v = rng.standard_normal(97)
    assert l2(v, dx) == float(np.sqrt(np.sum(v * v) * dx))
    v2 = rng.standard_normal((97, 2))
    mag = np.sqrt(np.sum(v2 * v2, axis=1))
    assert l2(v2, dx) == float(np.sqrt(np.sum(mag * mag) * dx))


pairs = st.integers(1, 40).flatmap(lambda n: st.tuples(*[arrays(
    np.float64, (n, 2), elements=st.floats(allow_nan=False, width=64)
    | st.sampled_from([0.0, -0.0, np.inf, -np.inf]))] * 2))


@settings(max_examples=200, deadline=None)
@given(pairs)
@example((np.array([[-0.0, -0.0]]), np.array([[0.0, 0.0]])))
def test_dot2_is_the_two_component_sum(ab):
    a, b = ab
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries and inf - inf
        square, square_sum = dot2(a, a), np.sum(a * a, axis=1)
        got, want = dot2(a, b), np.sum(a * b, axis=1)
    # a square is bitwise the numpy reduction, signed zeros and inf included
    assert square.tobytes() == square_sum.tobytes()
    # a mixed product may differ in the sign of a zero: np.sum starts from
    # +0.0, so (-0.0) + (-0.0) comes out +0.0 there and -0.0 here
    np.testing.assert_array_equal(got, want)


def test_no_axis_sums_in_the_package():
    # two-component products go through dot2, so none of them can drift
    # into a differently rounded reduction
    found = []
    for path in sorted(Path(operators.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sum"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and any(k.arg == "axis" for k in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"np.sum(..., axis=...) at {found}; use operators.dot2"


def test_no_numpy_reduction_wrappers_in_the_package():
    # x.sum(), (c).any(), np.abs(x).max() reduce with the same ufunc as the
    # np.sum/np.any/np.max wrappers, so the same bits, without the wrappers'
    # per-call dispatch
    wrappers = {"sum", "any", "all", "max", "min", "amax", "amin"}
    found = []
    for path in sorted(Path(operators.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in wrappers
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
                found.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
    assert not found, f"numpy reduction wrappers at {found}; call the array method"


def test_every_definition_is_exported_or_used():
    # a module-level function or class that is neither public API nor
    # referenced elsewhere in the package is dead code
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(operators.__file__).parent.glob("*.py"))}
    dead = []
    for name, tree in trees.items():
        for defn in tree.body:
            if (not isinstance(defn, (ast.FunctionDef, ast.ClassDef))
                    or defn.name in planar_mhd.__all__):
                continue
            inside = {id(node) for node in ast.walk(defn)}
            used = any(
                (isinstance(node, ast.Name) and node.id == defn.name
                 or isinstance(node, ast.Attribute) and node.attr == defn.name)
                and id(node) not in inside
                for other in trees.values() for node in ast.walk(other))
            if not used:
                dead.append(f"{name}:{defn.lineno} {defn.name}")
    assert not dead, f"defined but neither in __all__ nor used: {dead}"


def test_upwind_flux_matches_loop_oracle():
    rng = np.random.default_rng(7)
    n = 40
    q = rng.uniform(0.1, 2.0, size=n)
    vel = rng.normal(size=n + 1)
    flux = upwind_face_flux(vel, q)

    expected = np.zeros(n + 1)
    for j in range(1, n):
        donor = q[j - 1] if vel[j] >= 0.0 else q[j]
        expected[j] = vel[j] * donor
    assert np.array_equal(flux, expected)
    assert flux[0] == 0.0 and flux[-1] == 0.0


def test_upwind_flux_two_component():
    vel = np.array([0.0, 1.0, -1.0, 0.0])
    q = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    flux = upwind_face_flux(vel, q)
    assert np.array_equal(flux[1], [1.0, 10.0])
    assert np.array_equal(flux[2], [-3.0, -30.0])


def test_face_couplings_wall_weights():
    off_odd = face_couplings(5, 0.25, 0.5, ODD)
    off_even = face_couplings(5, 0.25, 0.5, EVEN)
    base = 0.25 / 0.25
    assert off_odd.shape == (6,)
    assert off_odd[0] == 2.0 * base and off_odd[-1] == 2.0 * base
    assert np.all(off_odd[1:-1] == base)
    assert off_even[0] == 0.0 and off_even[-1] == 0.0
    assert np.all(off_even[1:-1] == base)


def test_flux_laplacian_matches_dense_matrix():
    rng = np.random.default_rng(11)
    n = 17
    off = rng.uniform(0.0, 3.0, size=n + 1)
    off[4] = 0.0  # an insulated interior face must decouple cleanly
    q = rng.normal(size=n)
    lap = flux_laplacian(off, q)
    dense = -dense_flux_matrix(np.zeros(n), off) @ q
    assert np.allclose(lap, dense, rtol=0.0, atol=1e-12)


def test_flux_laplacian_two_component():
    rng = np.random.default_rng(13)
    n = 9
    off = rng.uniform(0.5, 1.5, size=n + 1)
    q = rng.normal(size=(n, 2))
    lap = flux_laplacian(off, q)
    for k in range(2):
        assert np.allclose(lap[:, k], flux_laplacian(off, q[:, k]), atol=1e-14)


def test_solve_flux_system_matches_dense_solve():
    rng = np.random.default_rng(2)
    for n in (1, 2, 5, 33):
        cap = rng.uniform(0.5, 2.0, size=n)
        off = rng.uniform(0.0, 4.0, size=n + 1)
        rhs = rng.normal(size=n)
        x = solve_flux_system(cap, off, rhs)
        ref = np.linalg.solve(dense_flux_matrix(cap, off), rhs)
        assert np.allclose(x, ref, rtol=1e-12, atol=1e-13)


def test_solve_flux_system_multicolumn():
    rng = np.random.default_rng(5)
    n = 12
    cap = rng.uniform(0.5, 2.0, size=n)
    off = rng.uniform(0.0, 4.0, size=n + 1)
    rhs = rng.normal(size=(n, 2))
    before = rhs.copy()
    x = solve_flux_system(cap, off, rhs)
    assert np.array_equal(rhs, before)  # the right-hand side is not modified
    assert x.shape == (n, 2)
    for k in range(2):
        col = solve_flux_system(cap, off, rhs[:, k])
        assert np.array_equal(x[:, k], col)


def test_solve_flux_system_zero_rhs_is_exact_zero():
    cap = np.array([1.0, 2.0, 3.0])
    off = np.array([2.0, 1.0, 1.0, 2.0])
    x = solve_flux_system(cap, off, np.zeros(3))
    assert np.array_equal(x, np.zeros(3))


def test_solve_flux_system_graded_couplings_exact_oracle():
    # Couplings spanning eighteen decades next to near-zero capacities: the
    # regime where textbook LU cancels the capacity out of the pivot.  The
    # oracle runs the whole elimination in exact rational arithmetic.
    cap = np.array([1e-18, 1e-18, 1e-16, 1.0, 1e-12, 1e-18, 2.0, 1e-15])
    off = np.array([0.0, 1e6, 1e12, 1e3, 1e-2, 1e9, 1e6, 1.0, 0.0])
    rhs = np.array([1e-10, -3e-7, 2e-4, 1.0, -2e-3, 4e-8, -1.0, 5e-9])

    n = cap.shape[0]
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = Fraction(cap[i]) + Fraction(off[i]) + Fraction(off[i + 1])
        if i > 0:
            a[i][i - 1] = -Fraction(off[i])
        if i < n - 1:
            a[i][i + 1] = -Fraction(off[i + 1])
    b = [Fraction(v) for v in rhs]
    for i in range(1, n):
        m = a[i][i - 1] / a[i - 1][i - 1]
        a[i][i] -= m * a[i - 1][i]
        b[i] -= m * b[i - 1]
    exact = [Fraction(0)] * n
    exact[n - 1] = b[n - 1] / a[n - 1][n - 1]
    for i in range(n - 2, -1, -1):
        exact[i] = (b[i] - a[i][i + 1] * exact[i + 1]) / a[i][i]

    x = solve_flux_system(cap, off, rhs)
    rel = np.abs(x - np.array([float(v) for v in exact]))
    rel /= np.abs(np.array([float(v) for v in exact]))
    assert np.max(rel) < 1e-13


def test_solve_flux_system_rejects_zero_pivot(each_path):
    # An insulated block with zero capacity has no unique solution.
    cap = np.zeros(3)
    off = np.zeros(4)
    for _ in each_path():
        with pytest.raises(np.linalg.LinAlgError, match="^flux system has a zero pivot$"):
            solve_flux_system(cap, off, np.ones(3))


def test_solve_flux_system_residual_on_random_systems():
    rng = np.random.default_rng(17)
    n = 50
    cap = rng.uniform(0.1, 1.0, size=n)
    off = rng.uniform(0.0, 10.0, size=n + 1)
    rhs = rng.normal(size=n)
    x = solve_flux_system(cap, off, rhs)
    resid = cap * x - flux_laplacian(off, x) - rhs
    assert np.max(np.abs(resid)) < 1e-11


def test_compiled_solve_is_active_where_a_compiler_is():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH; solve_flux_system runs the Python loop")
    assert operators._KERNEL is not None
    # the step's entry points come from the same build, typed as declared
    for name, (argtypes, restype) in operators._SIGNATURES.items():
        function = getattr(operators._KERNEL, name)
        assert function.argtypes == argtypes and function.restype is restype
    assert set(operators._SIGNATURES) == {"step_explicit", "conduction_solve", "fold_rows",
                                          "format_rows", "mms_table"}


class CountingKernel:
    """operators._KERNEL with the calls of each entry point counted, in
    order of the first call."""

    def __init__(self, kernel):
        self.kernel, self.calls = kernel, []

    def __getattr__(self, name):
        function = getattr(self.kernel, name)

        def counted(*args):
            self.calls.append(name)
            return function(*args)

        return counted


def test_a_simulate_calls_every_kernel_entry_and_folds_once_per_window(tmp_path, monkeypatch):
    # no entry point of the kernel is left that no command reaches: a
    # simulate reaches all but mms_table, which an mms calls once per forced
    # step and a simulate never; flush is the one caller of fold_rows: once
    # per window of steps, none for the initial record
    if operators._KERNEL is None:
        pytest.skip("no compiled kernel (no C compiler on PATH)")
    from planar_mhd import diagnostics
    from planar_mhd.cli import EXIT_OK, main

    window = 3
    monkeypatch.setattr(diagnostics, "WINDOW_CELLS", window * 32)
    monkeypatch.setattr(diagnostics, "MIN_WINDOW", 1)
    kernel = CountingKernel(operators._KERNEL)
    monkeypatch.setattr(operators, "_KERNEL", kernel)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = magnetic-pulse\nn_cells = 32\nt_end = 0.1\n"
                   "snapshot_times = 0.05\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == EXIT_OK
    assert len(list(out.glob("snapshot_t*.dat"))) == 1
    summary = (out / "run-summary.txt").read_text()
    steps = int(re.search(r"^steps = (\d+)$", summary, re.M).group(1))
    assert steps > 2 * window and steps % window
    calls = kernel.calls
    assert set(calls) == set(operators._SIGNATURES) - {"mms_table"}
    assert calls.count("step_explicit") == steps
    assert calls.count("fold_rows") == -(-steps // window)
    assert "fold_rows" not in calls[:calls.index("step_explicit")]

    kernel.calls = []
    assert main(["--out", str(tmp_path / "mms"), "mms", "--case", "smooth-wave",
                 "--resolutions", "16,32", "--t-end", "0.01"]) == EXIT_OK
    forced = kernel.calls.count("step_explicit")
    assert forced > 0 and kernel.calls.count("mms_table") == forced
    assert set(calls) | set(kernel.calls) == set(operators._SIGNATURES)


def test_kernel_flags_keep_the_numpy_bits():
    # FMA contraction or value-changing optimizations would break the bit
    # identity of the compiled step and solve with their numpy references
    assert "-ffp-contract=off" in operators._CFLAGS
    for flag in ("-ffast-math", "-Ofast", "-march=native"):
        assert flag not in operators._CFLAGS


def test_kernel_flags_change_neither_values_nor_the_instruction_set():
    # -fno-math-errno only stops sqrt from setting errno; each flag below
    # lets gcc change a value (contraction, reassociation, reciprocals,
    # assumed finite operands or unsigned zeros, narrow complex ranges) or build
    # for an instruction set other than the baseline
    flags = operators._CFLAGS
    assert [f for f in flags if f.startswith("-ffp-contract=")] == ["-ffp-contract=off"]
    value_changing = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                      "-fassociative-math", "-freciprocal-math", "-ffinite-math-only",
                      "-fno-signed-zeros", "-fcx-limited-range"}
    assert not value_changing & set(flags)
    assert not [f for f in flags if f.startswith(("-march=", "-mavx", "-mfma"))]


def kernel_source():
    """_pivot.c without its comments."""
    path = os.path.join(os.path.dirname(operators.__file__), "_pivot.c")
    with open(path) as fh:
        return re.sub(r"/\*.*?\*/", " ", fh.read(), flags=re.S)


def test_kernel_calls_no_libm_function_but_sqrt():
    # numpy's pow, exp and log loops need not give libm's bits; sqrt is
    # correctly rounded, so it is the one libm call the kernels may make
    code = kernel_source()
    banned = ("pow", "powf", "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "cbrt",
              "hypot", "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
              "tanh", "fma", "erf", "lgamma", "tgamma")
    calls = set(re.findall(r"\b([a-z_][a-z0-9_]*)\s*\(", code))
    assert "sqrt" in calls
    assert not calls & set(banned)


def wide_calls_to_plain_helpers(code):
    """(WIDE function, helper) for each function of the file that is neither
    INLINE nor WIDE and that a WIDE function calls, directly or through
    INLINE functions and macros."""
    kinds, calls = {}, {}
    for m in re.finditer(r"^#define (\w+)\(((?:.*\\\n)*.*)$", code, flags=re.M):
        kinds[m[1]], calls[m[1]] = "macro", m[2]
    for m in re.finditer(r"^([A-Za-z_][\w *]*?)\b(\w+)\s*\([^;{}]*?\)\s*\{", code, flags=re.M):
        depth, end = 1, m.end()
        while depth:
            depth += {"{": 1, "}": -1}.get(code[end], 0)
            end += 1
        words = m[1].split()
        kinds[m[2]] = "INLINE" if "INLINE" in words else "WIDE" if "WIDE" in words else "plain"
        calls[m[2]] = code[m.end():end]
    calls = {name: set(re.findall(r"\b(\w+)\s*\(", body)) & set(kinds)
             for name, body in calls.items()}
    found = set()
    for wide in (name for name, kind in kinds.items() if kind == "WIDE"):
        seen, todo = set(), [wide]
        while todo:
            for callee in calls[todo.pop()] - seen:
                seen.add(callee)
                if kinds[callee] in ("INLINE", "macro"):
                    todo.append(callee)
                elif kinds[callee] == "plain":
                    found.add((wide, callee))
    return found


def test_a_wide_kernel_calls_only_inline_or_wide_helpers():
    # a helper that is neither is built once, for the baseline, and a
    # target clone calls it with its AVX upper halves dirty: gcc puts no
    # vzeroupper before such a call, so the helper's SSE code runs slow
    # (pairwise as a plain static function: 633 against 310 us for one
    # fold_rows call at n = 128, W = 64, every part asked for)
    code = kernel_source()
    assert wide_calls_to_plain_helpers(code) == set()
    # the scan finds such a call through INLINE functions and macros too
    for declared, plain, call in (
            ("WIDE static double pairwise", "static double pairwise", ("fold_rows", "pairwise")),
            ("INLINE int factor_three", "static int factor_three",
             ("step_explicit", "factor_three"))):
        assert wide_calls_to_plain_helpers(code.replace(declared, plain)) == {call}


def test_solve_flux_system_rejects_mismatched_shapes():
    for cap, off, rhs in [(np.ones(3), np.ones(3), np.ones(3)),
                          (np.ones(3), np.ones(5), np.ones(3)),
                          (np.ones(3), np.ones(4), np.ones(4)),
                          (np.ones(3), np.ones(4), np.ones((3, 2, 1))),
                          (np.ones(0), np.ones(1), np.ones(0))]:
        with pytest.raises(ValueError, match="flux system shapes do not fit"):
            solve_flux_system(cap, off, rhs)
