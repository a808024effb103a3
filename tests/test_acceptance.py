"""Acceptance suite: every exit criterion at its contracted tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here from the contract; pilot-calibrated
seeds live in tests/data/pilot_fixtures.json.  Runtime ceilings are asserted
where the contract states them.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from blockspec.cli import run
from blockspec.ensemble import (
    GammaWeights,
    RngSeed,
    build_G,
    rng_from_seed,
)
from blockspec.harness import (
    empirical_spectrum,
    gap_report,
    ks_distance,
    tail_bound_experiment,
)
from blockspec.matrixpoly import RecurrenceCoeffs, recurrence_coeffs, roots
from blockspec.spectral import (
    arcsine_mixture_density,
    density_grid,
    semicircle_density,
)
from tests.oracles import (
    block_band,
    build_F,
    cheb_T,
    cheb_U,
    chi_sample,
    density_at,
    eval_R,
    f_tilde_blocks,
    markov_bound_check,
    support_bound,
    to_dense,
    truncated,
)

FIXTURES = json.loads(
    (Path(__file__).parent / "data" / "pilot_fixtures.json").read_text()
)

EXAMPLE_CONFIGS = [
    (2.0,),
    (2.0, 8.0),
    (1.0, 100.0),
    (4.0, 4.0, 100.0),
    (1.0, 4.0, 25.0),
    (1.0, 100.0, 200.0),
]


@contextmanager
def criterion(num: int, name: str):
    info = {}
    start = time.monotonic()
    try:
        yield info
    except BaseException:
        print(f"CRITERION {num:2d} [{name}]: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    detail = info.get("detail", "")
    print(f"CRITERION {num:2d} [{name}]: PASS ({time.monotonic() - start:.1f}s) {detail}")


def test_criterion_01_semicircle_oracle():
    with criterion(1, "semicircle oracle") as info:
        start = time.monotonic()
        w = GammaWeights((2.0,))
        table = density_grid(w, 400, 1e-7)
        assert len(table.grid) == 401
        max_err = max(
            abs(d - semicircle_density(2.0, t))
            for t, d in zip(table.grid, table.density)
        )
        assert max_err <= 1e-3
        f0 = density_at(w, 0.0, 1e-8)
        assert abs(f0 - 1.0 / math.pi) <= 1e-4
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        info["detail"] = f"max_err={max_err:.2e} f(0)={f0:.8f}"


def test_criterion_02_arcsine_mixture_oracle():
    with criterion(2, "arcsine mixture oracle") as info:
        start = time.monotonic()
        w = GammaWeights((2.0, 8.0))
        bound = support_bound(w)
        # density kinks: branch support edges at the top coefficient scale
        # (beta_j +- 2 alpha_j at s = 1/2) plus the branch accumulation at 0
        kinks = [-5.0, -3.0, 0.0, 1.0, 7.0]
        grid = np.linspace(-bound, bound, 201)
        kept = [
            t for t in grid if all(abs(t - k) > 0.02 for k in kinks)
        ]
        max_err = max(
            abs(density_at(w, t, 1e-8) - arcsine_mixture_density(2.0, 8.0, t))
            for t in kept
        )
        assert max_err <= 1e-3
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        info["detail"] = f"max_err={max_err:.2e} over {len(kept)} points"


def test_criterion_03_normalization():
    with criterion(3, "normalization of the limit law") as info:
        worst = 0.0
        for gamma in EXAMPLE_CONFIGS:
            w = GammaWeights(gamma)
            bound = support_bound(w)
            grid = np.linspace(-bound, bound, 401)
            density = np.array([density_at(w, t, 1e-7) for t in grid])
            mass = float(np.trapezoid(density, grid))
            assert abs(mass - 1.0) <= 1e-3, (gamma, mass)
            worst = max(worst, abs(mass - 1.0))
        info["detail"] = f"worst |mass-1| = {worst:.2e} across {len(EXAMPLE_CONFIGS)} configs"


def test_criterion_04_weak_convergence_ks():
    with criterion(4, "weak convergence (KS at desk scale)") as info:
        start = time.monotonic()
        details = []
        for key in ("p2", "p3"):
            fx = FIXTURES["criterion4"][key]
            w = GammaWeights(tuple(fx["gamma"]))
            table = density_grid(w, 400, 1e-6)
            seed = RngSeed(fx["master_seed"], fx["trial"])
            spectrum = empirical_spectrum(fx["n"], w, seed).to_scaled()
            ks = ks_distance(spectrum, table)
            assert ks <= fx["ks_tol"], (key, ks)
            details.append(f"{key}: KS={ks:.4f} (tol {fx['ks_tol']})")
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        info["detail"] = "; ".join(details)


def test_criterion_05_gap_scaling():
    with criterion(5, "uniform gap scaling in n") as info:
        start = time.monotonic()
        fx = FIXTURES["criterion5"]
        w = GammaWeights((1.0,))
        medians = {
            n: float(np.median(gaps / math.sqrt(math.log(n))))
            for n, gaps in zip(
                fx["sizes"], gap_report(fx["sizes"], w, fx["trials"], fx["master_seed"])
            )
        }
        assert medians[1600] <= 1.5 * medians[100], medians
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        info["detail"] = (
            f"median scaled gaps: "
            + ", ".join(f"n={n}: {m:.3f}" for n, m in medians.items())
        )


def test_criterion_06_tail_bound():
    with criterion(6, "exponential tail bound") as info:
        fx = FIXTURES["criterion6"]
        w = GammaWeights((1.0,))
        (gaps,) = gap_report([fx["n"]], w, fx["trials"], fx["master_seed"])
        res30 = tail_bound_experiment(fx["n"], w.p, 30.0, gaps)
        assert res30.bound < 1e-19
        assert res30.empirical_freq == 0.0
        # epsilon solving 2 n (p+1) exp(-eps^2/(18 p^2)) = 1/2
        eps_half = math.sqrt(18.0 * math.log(2 * fx["n"] * 2 / 0.5))
        res_half = tail_bound_experiment(fx["n"], w.p, eps_half, gaps)
        assert res_half.bound == pytest.approx(0.5, abs=1e-12)
        assert res_half.empirical_freq <= res_half.threshold
        info["detail"] = (
            f"eps=30: freq=0, bound={res30.bound:.1e}; "
            f"eps={eps_half:.2f}: freq={res_half.empirical_freq:.3f} "
            f"<= {res_half.threshold:.3f}"
        )


def test_criterion_07_structural_equivalences():
    with criterion(7, "structural equivalences") as info:
        # deterministic counterpart and the block Jacobi form of the
        # recurrence coefficients are cospectral
        worst_gap = 0.0
        for n, gamma in ((12, (1.0, 4.0, 25.0)), (20, (2.0, 8.0)), (10, (2.0,))):
            w = GammaWeights(gamma)
            e_f = np.linalg.eigvalsh(to_dense(build_F(n, w)))
            ft = block_band(f_tilde_blocks(recurrence_coeffs(n, w)))
            e_ft = np.linalg.eigvalsh(to_dense(ft))
            gap = float(np.abs(e_f - e_ft).max())
            assert gap <= 1e-10, (n, gamma, gap)
            worst_gap = max(worst_gap, gap)

        # roots satisfy the determinant residual check
        worst_resid = -np.inf
        for w, n in (
            (GammaWeights((1.5,)), 10),
            (GammaWeights((2.0, 8.0)), 20),
            (GammaWeights((1.0, 4.0, 25.0)), 30),
        ):
            coeffs = recurrence_coeffs(n, w)
            m = 10 // w.p if w.p > 1 else 10
            rts = roots(recurrence_coeffs(m * w.p, w))
            grid = np.linspace(rts[0] - 1.0, rts[-1] + 1.0, 21)
            ref = max(np.linalg.slogdet(eval_R(coeffs, m, g))[1] for g in grid)
            for x in rts:
                sign, val = np.linalg.slogdet(eval_R(coeffs, m, float(x)))
                rel = -np.inf if sign == 0 else val - ref
                assert rel <= -8.0, (w.p, x, rel)
                worst_resid = max(worst_resid, rel)

        # the scalar case reproduces the classical tridiagonal model entrywise
        beta, n, seed = 3.0, 10, RngSeed(2024, 1)
        g = block_band(build_G(n, GammaWeights((beta,)), seed))
        rng = rng_from_seed(seed)
        diag = rng.standard_normal(n)
        off = np.array(
            [chi_sample(rng, (n - i) * beta) / math.sqrt(2.0) for i in range(1, n)]
        )
        assert np.array_equal(g[1], diag)
        assert np.array_equal(g[0, 1:], off)
        info["detail"] = (
            f"max cospectral gap={worst_gap:.1e}, worst root residual={worst_resid:.1f}"
        )


def test_criterion_08_resolvent_bound_sweep():
    with criterion(8, "resolvent bound sweep") as info:
        configs = [
            ("p1-const", RecurrenceCoeffs(np.ones((8, 1, 1)), np.zeros((8, 1, 1))), 5),
            ("p2", recurrence_coeffs(20, GammaWeights((2.0, 8.0))), 5),
            ("p3", recurrence_coeffs(30, GammaWeights((1.0, 4.0, 25.0))), 4),
        ]
        total = 0
        for label, coeffs, degree in configs:
            rng = np.random.default_rng(hash(label) % 2**32)
            m_bound = float(np.abs(roots(truncated(coeffs, degree + 1))).max())
            for k in range(100):
                if k % 2:
                    sign = 1.0 if k % 4 == 1 else -1.0
                    z = complex(sign * rng.uniform(m_bound * 1.001, 3 * m_bound), 0.0)
                else:
                    im_sign = 1.0 if k % 4 == 0 else -1.0
                    z = complex(
                        rng.uniform(-m_bound, m_bound),
                        im_sign * rng.uniform(0.1, 2.0 * m_bound),
                    )
                v = rng.standard_normal(coeffs.p)
                res = markov_bound_check(coeffs, degree, z, v, m_bound)
                assert res.lhs <= res.upper * (1.0 + 1e-12), (label, z)
                if abs(z) > m_bound * (1.0 + 1e-9):
                    assert res.lower < res.lhs, (label, z)
                total += 1
        info["detail"] = f"{total} (z, v) checks, zero violations"


def test_criterion_09_chebyshev_closed_forms():
    with criterion(9, "scalar Chebyshev closed forms") as info:
        a = np.array([[1.0]])
        b = np.array([[0.0]])
        ts = np.linspace(-2.0, 2.0, 101)[1:-1]
        worst = 0.0
        for n in range(1, 21):
            for t in ts:
                theta = math.acos(t / 2.0)
                err_t = abs(
                    cheb_T(a, b, n, t)[0, 0] - math.sqrt(2.0) * math.cos(n * theta)
                )
                err_u = abs(
                    cheb_U(a, b, n, t)[0, 0]
                    - math.sin((n + 1) * theta) / math.sin(theta)
                )
                worst = max(worst, err_t, err_u)
        assert worst <= 1e-10
        info["detail"] = f"max closed-form error {worst:.2e} (n <= 20, 101-point grid)"


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    with criterion(10, "bit-identical CLI outputs") as info:
        monkeypatch.chdir(tmp_path)
        cases = [
            (["sample", "--n", "40", "--p", "2", "--gamma", "2,8", "--seed", "31"],
             ["spectrum.csv", "spectrum.json"]),
            (["roots", "--n", "40", "--p", "2", "--gamma", "2,8", "--scaled"],
             ["roots.csv", "roots.json"]),
            (["density", "--p", "1", "--gamma", "2", "--grid", "120"],
             ["density.csv", "density.json"]),
            (["oracle", "--p", "2", "--gamma", "2,8", "--grid", "120"],
             ["oracle.csv", "oracle.json"]),
            (["compare", "--n", "40", "--p", "2", "--gamma", "2,8",
              "--trials", "2", "--seed", "8", "--grid", "120"],
             ["compare.json"]),
            (["gap", "--n-list", "40,80", "--p", "1", "--gamma", "1",
              "--trials", "3", "--seed", "8"],
             ["gap.json"]),
            (["figure", "--name", "fig1", "--seed", "1", "--grid", "120"],
             ["fig1_hist.csv", "fig1_density.csv", "fig1.json"]),
        ]
        checked = 0
        for argv, outputs in cases:
            assert run(argv) == 0
            first = {name: (tmp_path / name).read_bytes() for name in outputs}
            assert run(argv) == 0
            for name in outputs:
                assert (tmp_path / name).read_bytes() == first[name], (argv, name)
                checked += 1
        info["detail"] = f"{len(cases)} subcommand configs, {checked} files byte-stable"
