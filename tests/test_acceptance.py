"""Acceptance criteria, one test per criterion.

Each test runs the corresponding randomized suite through
``verification.run_suite``, the call ``oldroydb verify`` makes, checks the
fixed size the report records and the stated tolerance, and prints a
single PASS/FAIL line (visible with ``pytest -s``).  The trajectory-level
criteria use the frozen calibrated amplitude from ``oldroydb.verification``.
"""

import numpy as np
import pytest

from oldroydb import verification as V


def _report(name: str, report: dict, detail: str) -> None:
    status = "PASS" if report["passed"] else "FAIL"
    print(f"[{status}] {name}: {detail} (elapsed {report.get('elapsed_s', '?')} s)")


def test_a1_cancellation_identity():
    rep = V.run_suite("cancellation", seed=0)
    assert rep["samples"] == 200
    assert list(rep["per_case"]) == ["d2_n128", "d3_n32"]
    _report("A-1 cancellation", rep,
            f"max residual {rep['max_residual']:.3e} <= {rep['tolerance']:.0e}")
    assert rep["max_residual"] <= 1e-12
    assert rep["passed"]


def test_a2_littlewood_paley_exactness():
    rep = V.run_suite("partition", seed=0)
    assert rep["n_fields"] == 50
    assert list(rep["per_case"]) == ["d2_n128", "d3_n32"]
    worst_partition = max(
        max(c["partition_residual_chi_form"], c["partition_residual_full_form"])
        for c in rep["per_case"].values())
    worst_reconstruction = max(c["reconstruction_residual"]
                               for c in rep["per_case"].values())
    worst_quasi = max(c["quasi_orthogonality_max"] for c in rep["per_case"].values())
    _report("A-2 dyadic partition", rep,
            f"partition {worst_partition:.2e}, reconstruction "
            f"{worst_reconstruction:.2e}, quasi-orthogonality {worst_quasi:.1e}")
    assert worst_partition <= 1e-12
    assert worst_reconstruction <= 1e-10
    assert worst_quasi == 0.0
    assert rep["passed"]


def test_a3_bony_decomposition():
    rep = V.run_suite("bony", seed=0)
    assert (rep["pairs"], rep["d"], rep["n"]) == (50, 2, 128)
    _report("A-3 Bony identity", rep,
            f"max residual {rep['max_residual']:.3e} <= {rep['tolerance']:.0e}")
    assert rep["max_residual"] <= 1e-10
    assert rep["passed"]


def test_a4_bernstein_ratios():
    rep = V.run_suite("bernstein", seed=0)
    assert (rep["d"], rep["n"], rep["samples_per_q"]) == (2, 128, 5)
    _report("A-4 Bernstein", rep,
            f"two-sided C {rep['two_sided_constant']:.3f} <= "
            f"{rep['two_sided_bound']:.3f}, slope {rep['linf_slope']:.4f} "
            f"(rel err {rep['linf_slope_rel_error']:.3%})")
    assert rep["two_sided_constant"] <= rep["two_sided_bound"]
    assert rep["linf_slope_rel_error"] < 0.05
    assert rep["passed"]


def test_a5_estimate_constants_stable_under_doubling():
    rep = V.run_suite("estimates", seed=0)
    assert (rep["d"], rep["samples"], rep["resolutions"]) == (2, 100, [64, 128])
    detail = ", ".join(f"{k} +{v:.2%}" for k, v in rep["max_relative_growth"].items())
    _report("A-5 estimate constants", rep, detail)
    for name, growth in rep["max_relative_growth"].items():
        assert growth <= 0.10, name
    assert rep["passed"]


def test_a6_linear_exactness_and_order():
    rep = V.run_suite("linear", seed=0)
    _report("A-6 linear solver", rep,
            f"exactness {rep['linear_exactness']:.2e} <= 1e-10, refinement "
            f"ratio {rep['refinement_ratio']:.2f} (order "
            f"{rep['observed_order']:.2f})")
    assert rep["linear_exactness"] <= 1e-10
    assert rep["refinement_ratio"] >= 3.5
    assert rep["observed_order"] >= 1.8
    assert rep["passed"]


@pytest.mark.slow
def test_sd1_small_data_global_bound():
    rep = V.run_suite("small-data", seed=0)
    assert (rep["t_end"], rep["n"], rep["seeds"]) == (50.0, 128, [0, 1, 2, 3, 4])
    worst = max(c["max_ratio"] for c in rep["per_seed"].values())
    threshold = next(iter(rep["per_seed"].values()))["threshold"]
    worst_div = max(c["max_div_residual"] for c in rep["per_seed"].values())
    _report("SD-1 small-data bound", rep,
            f"max E/E0 {worst:.3f} <= {threshold:.3f}, div residual "
            f"{worst_div:.1e} (amplitude {rep['amplitude']:g})")
    for seed, case in rep["per_seed"].items():
        assert case["max_ratio"] <= case["threshold"], f"seed {seed}"
        assert case["max_div_residual"] <= 1e-10, f"seed {seed}"
    assert rep["passed"]


@pytest.mark.slow
def test_sd2_twin_run_stability():
    rep = V.run_suite("stability", seed=0)
    assert (rep["delta"], rep["t_end"], rep["n"], rep["seed"]) == (1e-6, 20.0, 128, 0)
    _report("SD-2 stability", rep,
            f"zero-delta identical: {rep['zero_delta_identical']}, "
            f"C {rep['C_hat']:.4f} vs {rep['C_hat_tenth']:.4f} "
            f"(change {rep['C_hat_rel_change']:.2%})")
    assert rep["zero_delta_identical"] is True
    assert rep["envelope_ok"]
    assert rep["C_hat_rel_change"] <= 0.20
    assert rep["passed"]
