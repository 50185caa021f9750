"""The power-moment entropy report and the face operator against direct
and loop-by-loop reference computations, the dense reference Picard
iteration that the Newton tests compare against, and a smoke run of the
kernel benchmark script."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crossdiff as cd
from crossdiff import cli, fvops, kernels


def _trace_state(case):
    """A nonnegative state, up to clipped round-off, of each shape and kind
    the per-step report sees."""
    rng = np.random.default_rng(1)
    if case == "2d":
        grid = cd.Grid2D(12, 1.0)
        return cd.State(grid, rng.uniform(0, 4, grid.shape), rng.uniform(0, 4, grid.shape))
    grid = cd.Grid1D(64, 1.0)
    f, g = rng.uniform(0, 4, 64), rng.uniform(0, 4, 64)
    if case == "zeros":             # f, g or both exactly zero in some cells
        f[::3] = 0.0
        g[1::4] = 0.0
    elif case == "round-off":       # negatives above -NEGATIVE_CLIP, clipped
        f[::5] = -1e-12
        g[2::7] = -3e-10
    return cd.State(grid, f, g)


def _reference_trace(state, params, n_max):
    """E_2..E_n_max degree by degree from ``eval_phi`` on the clipped state."""
    f, g = np.maximum(state.f, 0.0), np.maximum(state.g, 0.0)
    return np.array([state.grid.integrate(cd.eval_phi(cd.build_coefficients(params, n),
                                                      (f, g)))
                     for n in range(2, n_max + 1)])


class TestPowerMoments:
    def test_moments_match_cell_sums(self):
        rng = np.random.default_rng(0)
        f, g = rng.uniform(0, 2, 10), rng.uniform(0, 2, 10)
        M = kernels.power_moments(f, g, 4)
        expected = [[np.sum(f**j * g**k) for k in range(5)] for j in range(5)]
        np.testing.assert_allclose(M, expected, rtol=1e-14)

    @pytest.mark.parametrize("case", ["1d", "2d", "zeros", "round-off"])
    def test_trace_matches_per_degree_eval_phi(self, params2111, case):
        st = _trace_state(case)
        E = cd.entropy_trace(st, params2111, 8)
        np.testing.assert_allclose(E[1:], _reference_trace(st, params2111, 8),
                                   rtol=1e-13)

    def test_overflowing_unused_moments_leave_every_degree_finite(self, params2111):
        # f^6 g^6 = 1e480 overflows in the moment table, but no E_n with
        # n <= 6 reads it; a dense weight dot over the table gives 0 * inf
        st = cd.State.constant(cd.Grid1D(4, 1.0), 1e40, 1e40)
        assert np.isinf(kernels.power_moments(st.f, st.g, 6)[6, 6])
        E = cd.entropy_trace(st, params2111, 6)
        assert np.all(np.isfinite(E))
        np.testing.assert_allclose(E[1:], _reference_trace(st, params2111, 6),
                                   rtol=1e-13)


def _random_state(rng, n, allow_negative=False):
    lo = -0.5 if allow_negative else 0.0
    return (rng.uniform(lo, 3.0, size=n), rng.uniform(lo, 3.0, size=n))


COEFS = (2.0, 1.0, 1.0, 1.0)


def _cut(z, rho, reg):
    if not reg:
        return max(z, 0.0)
    if z <= 0.0 or z >= rho:
        return 0.0
    return z if z <= rho - 1.0 else (rho - 1.0) * (rho - z)


def _reference_face(fl, fr, gl, gr, dx, eps, rho, reg, upwind, coef=COEFS):
    """One face between cells l and r: (gradf, gradg, lam * mf, lam * mg,
    flux_f, flux_g)."""
    a, b, c, d = coef
    gf = (fr - fl) / dx
    gg = (gr - gl) / dx
    dpf, dpg = a * gf + b * gg, c * gf + d * gg
    lam = 1.0
    if reg:
        s = 0.5 * sum(max(v, 0.0) for v in (fl, fr, gl, gr))
        lam = 2.0 / (1.0 + np.exp(eps * s))
    if upwind:
        mf = _cut(fr if dpf > 0.0 else fl, rho, reg)
        mg = _cut(gr if dpg > 0.0 else gl, rho, reg)
    else:
        mf = 0.5 * (_cut(fl, rho, reg) + _cut(fr, rho, reg))
        mg = 0.5 * (_cut(gl, rho, reg) + _cut(gr, rho, reg))
    e = eps if reg else 0.0
    return (gf, gg, lam * mf, lam * mg,
            lam * mf * dpf + e * gf, lam * mg * dpg + e * gg)


def _reference_faces(f, g, dx, eps, rho, reg, upwind, coef=COEFS):
    """Face by face: (gradf, gradg, lam * mf, lam * mg, flux_f, flux_g) on
    faces 0..n, boundary faces zero."""
    n = f.size
    out = np.zeros((6, n + 1))
    for j in range(1, n):
        out[:, j] = _reference_face(f[j - 1], f[j], g[j - 1], g[j],
                                    dx, eps, rho, reg, upwind, coef)
    return out


def _reference_residual(f, g, F, G, tau, dx, eps, rho, reg, upwind, coef=COEFS):
    flux_f, flux_g = _reference_faces(f, g, dx, eps, rho, reg, upwind, coef)[4:]
    return (f - tau / dx * np.diff(flux_f) - F,
            g - tau / dx * np.diff(flux_g) - G)


def _reference_residual_2d(f, g, F, G, tau, dx, eps, rho, reg, upwind):
    """Face by face over both axes of an (n, n) grid: each interior face
    takes its flux out of the cell below it and into the cell above."""
    n = f.shape[0]
    rf, rg = f - F, g - G
    for axis in (0, 1):
        for i in range(n):
            for j in range(1, n):
                lo, hi = ((j - 1, i), (j, i)) if axis == 0 else ((i, j - 1), (i, j))
                flux_f, flux_g = _reference_face(f[lo], f[hi], g[lo], g[hi],
                                                 dx, eps, rho, reg, upwind)[4:]
                rf[lo] -= tau / dx * flux_f
                rf[hi] += tau / dx * flux_f
                rg[lo] -= tau / dx * flux_g
                rg[hi] += tau / dx * flux_g
    return rf, rg


def _reference_picard(F, G, tau, dx, eps, rho, reg, upwind, tol, max_iters, omega,
                      coef=COEFS):
    """Frozen-coefficient iteration for one implicit step from (F, G), with
    face terms evaluated afresh for every sweep and dense solves of the
    assembled per-component systems: f implicit in f with b*grad(g) on the
    right-hand side, g implicit in g with c*grad(f) there.  ``omega < 1``
    under-relaxes the update.  Returns (f, g, iterations, max-norm
    residual, converged)."""
    a, b, c, d = coef
    n = F.size
    e = eps if reg else 0.0
    f, g = F.copy(), G.copy()

    def residual(f, g):
        rf, rg = _reference_residual(f, g, F, G, tau, dx, eps, rho, reg, upwind, coef)
        return max(np.abs(rf).max(), np.abs(rg).max())

    def solve(prev, k, self_coef, cross):
        A = np.eye(n)
        for j in range(1, n):
            w = tau / dx**2 * (e + k[j] * self_coef)
            A[j - 1, j - 1] += w
            A[j, j] += w
            A[j - 1, j] -= w
            A[j, j - 1] -= w
        return np.linalg.solve(A, prev + tau / dx * np.diff(k * cross))

    res, iters = residual(f, g), 0
    while res > tol and iters < max_iters:
        iters += 1
        gf, gg, kf, kg = _reference_faces(f, g, dx, eps, rho, reg, upwind, coef)[:4]
        f_new = solve(F, kf, a, b * gg)
        g_new = solve(G, kg, d, c * gf)
        f, g = f + omega * (f_new - f), g + omega * (g_new - g)
        res = residual(f, g)
    return f, g, iters, res, res <= tol


class TestFluxAndResidualLanes:
    @pytest.mark.parametrize("reg", [False, True])
    @pytest.mark.parametrize("upwind", [True, False])
    def test_residual_matches_face_loop(self, reg, upwind):
        rng = np.random.default_rng(42)
        f, g = _random_state(rng, 50, allow_negative=True)
        F, G = _random_state(rng, 50)
        args = (1e-3, 0.02, 0.05, 2.5, reg, upwind)
        r = fvops.implicit_residual(np.stack((f, g)), np.stack((F, G)), COEFS, 1e-3,
                                    0.02, (0.05, 2.5) if reg else None, upwind)[0]
        ref_f, ref_g = _reference_residual(f, g, F, G, *args)
        np.testing.assert_allclose(r[0], ref_f, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(r[1], ref_g, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("reg", [False, True], ids=["plain", "regularized"])
    @pytest.mark.parametrize("upwind", [True, False], ids=["upwind", "arithmetic"])
    def test_residual_2d_matches_face_loop(self, upwind, reg):
        # anisotropic data: f ramps along axis 0 and g along axis 1 on top
        # of random values, so swapping or dropping an axis changes the result
        n = 7
        rng = np.random.default_rng(43)
        ramp = np.linspace(0.0, 2.0, n)
        f = rng.uniform(-0.5, 1.0, (n, n)) + ramp[:, None]
        g = rng.uniform(-0.5, 1.0, (n, n)) + 1.5 * ramp[None, :]
        F = rng.uniform(0.0, 3.0, (n, n))
        G = rng.uniform(0.0, 3.0, (n, n))
        args = (1e-3, 1.0 / n, 0.05, 2.5, reg, upwind)
        r = fvops.implicit_residual(np.stack((f, g)), np.stack((F, G)), COEFS, 1e-3,
                                    1.0 / n, (0.05, 2.5) if reg else None, upwind)[0]
        ref_f, ref_g = _reference_residual_2d(f, g, F, G, *args)
        np.testing.assert_allclose(r[0], ref_f, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(r[1], ref_g, rtol=1e-13, atol=1e-13)


class TestBenchScript:
    def test_runs_and_prints_newton_row(self):
        # the script imports the package from the checkout and calls kernels
        # by name, so a renamed kernel shows up here
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "bench_kernels.py"),
             "--cells", "64", "--repeats", "1"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        starts = [line.split()[:3] for line in proc.stdout.splitlines()]
        assert ["entropy_trace", "(n=6)", "64"] in starts
        assert ["report", "1d", "64"] in starts and ["extrapolate", "1d", "64"] in starts
        assert ["monitor", "1d", "64"] in starts
        assert ["jacobian", "1d", "64"] in starts and ["jacobian", "2d", "4096"] in starts
        assert ["newton", "1d", "64"] in starts and ["newton", "2d", "4096"] in starts
        assert ["newton", "run", "64"] in starts
        lines = proc.stdout.splitlines()
        # the first factorization on the 64x64 grid picks the column order,
        # a later one keeps it; both in ms, then the fill of the kept order
        row = next(line.split() for line in lines if line.startswith("factor 2d"))
        assert row[2] == "4096" and float(row[3]) > 0.0 and float(row[4]) > 0.0
        assert int(row[5]) > 0
        # the band LU of a 4096-cell 1D Jacobian: the same columns, the fill
        # being the band array's (3 * 3 + 1) entries per unknown
        row = next(line.split() for line in lines if line.startswith("factor 1d"))
        assert row[2] == "4096" and float(row[3]) > 0.0 and float(row[4]) > 0.0
        assert int(row[5]) == 10 * 2 * 4096 and len(row) == 7 and int(row[6]) >= 0
        # the zero front on 256, 1024 and 4096 cells, with Anderson-mixed and
        # with plain chord updates: on 1024 cells the mix saves factorizations
        zero = {(line[:24].strip(), line[24:].split()[0]): line[24:].split()
                for line in lines if line.startswith("zero-front run 1d")}
        assert set(zero) == {(label, cells)
                             for label in ("zero-front run 1d", "zero-front run 1d plain")
                             for cells in ("256", "1024", "4096")}
        assert all(float(cols[1]) > 0.0 for cols in zero.values())
        mixed, plain = (zero[k, "1024"] for k in ("zero-front run 1d",
                                                  "zero-front run 1d plain"))
        assert int(mixed[3]) < int(plain[3])
        # the README example's loop: ms, updates and factorizations per step
        row = next(line.split() for line in lines if line.startswith("readme loop"))
        assert row[2] == "64" and float(row[3]) > 0.0
        assert float(row[4]) > 1.0 and 0.0 < float(row[5]) < 0.01
        # five fresh imports of the cli load none of scipy.special, scipy.linalg
        # and scipy.sparse
        row = next(line.split() for line in proc.stdout.splitlines()
                   if line.startswith("import crossdiff.cli"))
        assert row[2] == "5" and float(row[3]) > 0.0
        assert row[4:] == ["absent", "absent", "absent"]
        # the factor row's last column counts the page faults of a
        # factorization; 10-step 2D runs on 64x64 and 96x96 cells print ms,
        # factorizations, solves (at least one per factorization) and faults
        row = next(line.split() for line in lines if line.startswith("factor 2d"))
        assert len(row) == 7 and int(row[6]) >= 0
        runs = {line.split()[3]: line.split()[4:] for line in lines
                if line.startswith("newton run 2d")}
        assert set(runs) == {"4096", "9216"}
        for ms, factorizations, solves, faults in runs.values():
            assert float(ms) > 0.0 and 0 < int(factorizations) <= int(solves)
            assert int(faults) >= 0


class TestOutputDigestScript:
    def test_prints_exit_codes_and_file_digests(self):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "output_digest.py"),
             "nonconverging", "square-12", "verify-6-300-3", "limits", "sweep", "sweep-2d"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "exit 3  nonconverging"
        assert {"exit 0  square-12", "exit 0  verify-6-300-3", "exit 0  limits",
                "exit 0  sweep", "exit 0  sweep-2d"} <= set(lines)
        digests = dict(reversed(line.split("  ")) for line in lines
                       if not line.startswith("exit"))
        assert {"nonconverging/summary.txt", "nonconverging/state_000000.csv",
                "square-12/diagnostics.csv", "square-12/state_000010.csv",
                "verify-6-300-3/stdout", "limits/limits.csv", "limits/stdout",
                "sweep/sweep_manifest.csv", "sweep/stdout", "sweep/run_000/diagnostics.csv",
                "sweep/run_001/summary.txt", "sweep-2d/run_001/state_000005.csv"} <= set(digests)
        assert all(len(sha) == 64 for sha in digests.values())

    def test_src_flag_imports_the_given_checkout(self):
        # with this checkout's src, --src prints what the default import does
        root = Path(__file__).resolve().parents[1]
        script = [sys.executable, str(root / "benchmarks" / "output_digest.py")]
        names = ["arithmetic", "limits", "verify-6-300-3"]
        printed = [subprocess.run(script + extra + names, capture_output=True, text=True,
                                  timeout=300).stdout
                   for extra in ([], ["--src", str(root / "src")])]
        assert printed[0].count("exit 0") == 3 and printed[0] == printed[1]

    def test_keep_and_csv_delta_list_the_changed_columns(self, tmp_path):
        # --keep leaves the digested outputs in a new directory; csv_delta
        # names each changed column of a CSV with its row count, largest
        # changes and, for an integer column, both totals
        root = Path(__file__).resolve().parents[1]
        digest = [sys.executable, str(root / "benchmarks" / "output_digest.py")]
        kept, other = tmp_path / "kept", tmp_path / "other"
        printed = subprocess.run(digest + ["--keep", str(kept), "square-12", "limits"],
                                 capture_output=True, text=True, timeout=300).stdout
        names = [line.split("  ")[1] for line in printed.splitlines()
                 if not line.startswith("exit")]
        assert "limits/stdout" in names
        assert all((kept / name).is_file() for name in names)
        again = subprocess.run(digest + ["--keep", str(kept), "limits"],
                               capture_output=True, text=True, timeout=300)
        assert again.returncode == 2 and "exists" in again.stderr

        shutil.copytree(kept, other)
        path = other / "square-12" / "diagnostics.csv"
        header, *rows = path.read_text().splitlines()
        cols = header.split(",")
        cells = rows[3].split(",")
        e1, iters = float(cells[cols.index("E1")]), int(cells[cols.index("iterations")])
        cells[cols.index("E1")] = repr(e1 * (1.0 + 1e-3))
        cells[cols.index("iterations")] = str(iters + 2)
        rows[3] = ",".join(cells)
        path.write_text("\n".join([header, *rows]) + "\n")
        (other / "extra.csv").write_text("a\n1\n")

        delta = [sys.executable, str(root / "benchmarks" / "csv_delta.py")]
        lines = subprocess.run(delta + [str(kept), str(other)], capture_output=True,
                               text=True, timeout=60).stdout.splitlines()
        total = sum(int(row.split(",")[cols.index("iterations")]) for row in rows)
        assert lines[0] == f"extra.csv: only in {other}"
        assert lines[1] == f"square-12/diagnostics.csv: 1 of {len(rows)} rows differ"
        assert lines[2].startswith("  E1: 1 rows, max abs ")
        assert abs(float(lines[2].split("max rel ")[1]) - 1e-3 / (1.0 + 1e-3)) < 1e-6
        assert lines[3] == (f"  iterations: 1 rows, max abs 2, max rel {2 / (iters + 2):.3g}, "
                            f"total {total - 2} -> {total}")
        assert len(lines) == 4
        same = subprocess.run(delta + [str(kept), str(kept)], capture_output=True,
                              text=True, timeout=60)
        assert same.returncode == 0 and same.stdout == ""

    def test_zero_front_2d_makes_three_chord_updates_on_one_set_of_factors(self, tmp_path):
        # a step without a factorization makes all its updates on the factors
        # carried into it; from the third one on the mix has two pairs
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "output_digest", root / "benchmarks" / "output_digest.py")
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        argv = ["run", *digest.CONFIGS["zero-front-2d"].split(), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
        header = rows[0].split(",")
        counts = [[int(row.split(",")[header.index(k)]) for k in ("iterations", "factorizations")]
                  for row in rows[1:]]
        assert any(iters >= 3 and lu == 0 for iters, lu in counts)
