"""Tests for the verification suites."""

import json
from types import SimpleNamespace

import pytest

from overlatt import oracle, verify
from overlatt.geometry3d import ordering_regime
from overlatt.lattice import DistortedLattice
from overlatt.verify import (
    GRID_DELTAS_2D,
    GRID_DELTAS_3D,
    CheckResult,
    VerifyReport,
    grid_radii,
    run_suite,
)


class TestSuites:
    def test_theorems_pass(self):
        rep = run_suite("theorems")
        assert rep.passed
        assert rep.failures() == ()
        names = [c.name for c in rep.checks]
        assert any("hexagonal packing" in n for n in names)
        assert any("argmax packing dist n=5" in n for n in names)
        assert any("argmin covering n=2" in n for n in names)
        assert any("crossover" in n for n in names)

    def test_oracle_passes_small(self):
        rep = run_suite("oracle", samples=50_000, seed=0)
        assert rep.passed

    def test_oracle_report_independent_of_thread_count(self, monkeypatch):
        # small chunks, so each cell spans several and the threads do
        # split the work
        monkeypatch.setattr(oracle, "CHUNK", 1 << 12)
        one = run_suite("oracle", samples=20_000, par=1)
        two = run_suite("oracle", samples=20_000, par=2)
        assert one == two

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("bogus")

    @pytest.mark.parametrize("suite", ("theorems", "oracle", "all"))
    @pytest.mark.parametrize("name, value, message", (
        ("samples", 0, "samples must be >= 1"),
        ("seed", -5, "seed must be in [0, "),
        ("par", 0, "par must be >= 1"),
        ("par", 1.0, "par must be an integer"),
    ))
    def test_sampling_arguments_are_checked(self, suite, name, value,
                                            message):
        # every suite refuses them before it runs a check, the theorems
        # suite too, which draws no samples
        with pytest.raises(ValueError, match=message.replace("[", r"\[")):
            run_suite(suite, **{name: value})

    def test_oracle_seed_leaves_room_for_every_cell(self, monkeypatch):
        # cell i draws from seed + i, and mc_union takes seeds below 2^128
        seeds = []

        def mc_union(lat, r, samples, seed, par):
            seeds.append(seed)
            return SimpleNamespace(mean=0.5, std_error=1.0)

        monkeypatch.setattr(verify, "mc_union", mc_union)
        cells = sum(len(grid_radii(DistortedLattice(n, delta)))
                    for n, deltas in ((2, GRID_DELTAS_2D),
                                      (3, GRID_DELTAS_3D))
                    for delta in deltas)
        for suite in ("oracle", "all"):
            with pytest.raises(ValueError, match="seed must be in"):
                run_suite(suite, samples=1, seed=2 ** 128 - cells + 1)
        assert seeds == []
        run_suite("oracle", samples=1, seed=2 ** 128 - cells)
        assert seeds == list(range(2 ** 128 - cells, 2 ** 128))

    def test_crossover_densities_must_agree(self, monkeypatch):
        # the midpoint of the old bisection, 3.0e-7 from the root, is
        # inside the budget's range but leaves a 9.8e-8 density gap
        def agree():
            return {c.name: c.passed for c in verify._theorem_checks()}[
                "densities agree at crossover"]

        assert agree()
        monkeypatch.setattr(verify, "crossover_omega",
                            lambda: 0.10609771728515627)
        assert not agree()

    def test_report_serializes(self):
        rep = run_suite("theorems")
        text = json.dumps(rep.as_dict())
        back = json.loads(text)
        assert back["suite"] == "theorems"
        assert back["passed"] is True
        assert len(back["checks"]) == len(rep.checks)
        assert set(back["checks"][0]) == set(CheckResult._fields)

    def test_failures_are_named(self):
        rep = VerifyReport(suite="x", passed=False, checks=(
            CheckResult("good", True, "1", "1"),
            CheckResult("bad", False, "2", "1"),
        ))
        assert [c.name for c in rep.failures()] == ["bad"]

    def test_tolerated_cells_excluded_from_failures(self):
        rep = VerifyReport(suite="x", passed=True, checks=(
            CheckResult("stray", False, "3.2 se", "3 se"),
            CheckResult("bad", False, "9 se", "3 se"),
        ), tolerated=("stray",))
        assert [c.name for c in rep.failures()] == ["bad"]
        assert rep.as_dict()["tolerated"] == ["stray"]

    def test_excursion_allowance_scales_with_grid(self):
        from overlatt.verify import _excursion_allowance
        assert _excursion_allowance(10) == 2
        # 274 cells: Poisson mean 0.74, plus four standard deviations
        assert _excursion_allowance(274) == 5


class TestOracleGridCoverage:
    def test_point_counts(self):
        count_2d = len(GRID_DELTAS_2D) * len(grid_radii(
            DistortedLattice(2, 0.5)))
        assert count_2d >= 100
        count_3d = sum(len(grid_radii(DistortedLattice(3, d)))
                       for d in GRID_DELTAS_3D)
        assert count_3d >= 100

    def test_3d_grid_spans_all_regimes(self):
        regimes = {ordering_regime(d) for d in GRID_DELTAS_3D if d <= 1.0}
        assert regimes == {1, 2, 3, 4}
        assert any(d > 1.0 for d in GRID_DELTAS_3D)

    def test_2d_grid_spans_both_sides_of_kink(self):
        kink = 1.0 / 3.0 ** 0.5
        assert any(d < kink for d in GRID_DELTAS_2D)
        assert any(kink < d <= 1.0 for d in GRID_DELTAS_2D)
        assert any(d > 1.0 for d in GRID_DELTAS_2D)

    def test_band_point_present_above_one(self):
        tags = [t for t, _ in grid_radii(DistortedLattice(3, 1.5))]
        assert "band" in tags
        tags2 = [t for t, _ in grid_radii(DistortedLattice(3, 0.9))]
        assert "band" not in tags2

    def test_radii_include_sub_packing_and_super_covering(self):
        lat = DistortedLattice(3, 0.7)
        from overlatt.lattice import covering_radius, packing_radius
        rs = dict(grid_radii(lat))
        assert rs["b50"] < packing_radius(lat)
        assert rs["a02"] > covering_radius(lat)
