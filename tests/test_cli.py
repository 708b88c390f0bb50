"""Tests for the command-line interface."""

import json
import math

import pytest

from overlatt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out: str) -> list[dict]:
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestRadii:
    def test_fcc(self, capsys):
        code, out, _ = run(capsys, "radii", "--dim", "3", "--delta", "2")
        assert code == 0
        vals = dict(ln.split(" ", 1) for ln in out.splitlines()[1:])
        assert float(vals["packing_radius"]) == pytest.approx(
            math.sqrt(2.0) / 2.0)
        assert float(vals["covering_radius"]) == pytest.approx(1.0)

    def test_cube(self, capsys):
        code, out, _ = run(capsys, "radii", "--dim", "3", "--delta", "1")
        vals = dict(ln.split(" ", 1) for ln in out.splitlines()[1:])
        assert float(vals["packing_radius"]) == pytest.approx(0.5)
        assert float(vals["covering_radius"]) == pytest.approx(
            math.sqrt(3.0) / 2.0)
        assert vals["degenerate"] == "true"

    def test_2d_coincidence(self, capsys):
        code, out, _ = run(capsys, "radii", "--dim", "2", "--delta",
                           "0.5773502692")
        vals = dict(ln.split(" ", 1) for ln in out.splitlines()[1:])
        r1 = float(vals["r1"].split()[0])
        r2 = float(vals["r2"].split()[0])
        assert r1 == pytest.approx(r2, abs=1e-9)

    def test_high_dim(self, capsys):
        code, out, _ = run(capsys, "radii", "--dim", "6", "--delta", "1.2")
        assert code == 0
        assert "packing_radius" in out

    def test_bad_delta_exits_2(self, capsys):
        code, _, err = run(capsys, "radii", "--dim", "3", "--delta", "-1")
        assert code == 2
        assert "error" in err


class TestMeasure:
    def test_bcc_at_covering(self, capsys):
        code, out, _ = run(capsys, "measure", "--dim", "3", "--delta",
                           "0.5", "--r", "0.5590169944")
        row = csv_rows(out)[0]
        assert float(row["union"]) == pytest.approx(1.0, abs=1e-9)
        assert float(row["vol_overlap"]) == pytest.approx(0.46353, abs=1e-4)

    def test_fcc_at_packing(self, capsys):
        code, out, _ = run(capsys, "measure", "--dim", "3", "--delta", "2",
                           "--r", "0.7071067812")
        row = csv_rows(out)[0]
        assert float(row["dist_overlap"]) == pytest.approx(0.0, abs=1e-9)
        assert float(row["vol_overlap"]) == pytest.approx(0.0, abs=1e-9)

    def test_oracle_replayable(self, capsys):
        argv = ("measure", "--dim", "4", "--delta", "1", "--r", "0.8",
                "--oracle", "--samples", "100000", "--seed", "7")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        row = csv_rows(out1)[0]
        assert row["samples"] == "100000" and row["seed"] == "7"
        assert float(row["mc_se"]) > 0.0

    def test_oracle_union_exact_below_packing_radius(self, capsys):
        # n=4, delta=1: packing radius 1/2, so union == density exactly
        code, out, _ = run(capsys, "measure", "--dim", "4", "--delta", "1",
                           "--r", "0.45", "--oracle", "--samples", "20000",
                           "--seed", "3")
        row = csv_rows(out)[0]
        assert code == 0
        assert row["union"] == row["density"]
        assert float(row["vol_overlap"]) == 0.0

    @pytest.mark.parametrize("r", ["1", "1.3"])
    def test_oracle_union_exact_from_covering_radius(self, capsys, r):
        # n=4, delta=1: covering radius 1
        code, out, _ = run(capsys, "measure", "--dim", "4", "--delta", "1",
                           "--r", r, "--oracle", "--samples", "20000",
                           "--seed", "3")
        row = csv_rows(out)[0]
        assert code == 0
        assert float(row["union"]) == 1.0
        assert float(row["vol_overlap"]) == float(row["density"]) - 1.0

    def test_high_dim_needs_oracle(self, capsys):
        code, _, err = run(capsys, "measure", "--dim", "4", "--delta", "1",
                           "--r", "0.8")
        assert code == 2
        assert "--oracle" in err

    @pytest.mark.parametrize("dim", ("2", "3"))
    def test_overflowing_radius_exits_2(self, capsys, dim):
        # the density's r ** n leaves the float range
        code, out, err = run(capsys, "measure", "--dim", dim, "--delta",
                             "0.5", "--r", "1e200")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflow_message_is_readable(self, capsys):
        code, out, err = run(capsys, "measure", "--dim", "3", "--delta",
                             "0.5", "--r", "1e150")
        assert code == 2
        assert out == ""
        assert err.startswith("error: a value leaves the float range (")
        assert "34" not in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "measure", "--dim", "2", "--delta",
                           "0.8", "--r", "0.5", "--format", "json")
        payload = json.loads(out)
        assert payload["version"]
        assert payload["rows"][0]["n"] == 2


class TestQuality:
    def test_third_branch_value(self, capsys):
        code, out, _ = run(capsys, "quality", "--mode", "packing",
                           "--measure", "dist", "--dim", "3", "--delta",
                           "2", "--omega", "0.5")
        row = csv_rows(out)[0]
        assert float(row["density"]) == pytest.approx(5.9238, abs=1e-4)

    def test_covering_bcc(self, capsys):
        code, out, _ = run(capsys, "quality", "--mode", "covering",
                           "--dim", "3", "--delta", "0.5")
        row = csv_rows(out)[0]
        assert float(row["density"]) == pytest.approx(
            5.0 * math.sqrt(5.0) * math.pi / 24.0, abs=1e-9)

    def test_packing_vol_hexagonal(self, capsys):
        code, out, _ = run(capsys, "quality", "--mode", "packing",
                           "--measure", "vol", "--dim", "2", "--delta",
                           "0.57735", "--omega", "0")
        row = csv_rows(out)[0]
        assert float(row["density"]) == pytest.approx(0.90690, abs=1e-4)

    def test_optimize(self, capsys):
        code, out, _ = run(capsys, "quality", "--mode", "packing",
                           "--measure", "dist", "--dim", "3", "--omega",
                           "0.5", "--optimize")
        row = csv_rows(out)[0]
        assert float(row["delta"]) == pytest.approx(2.0, abs=1e-6)

    def test_packing_requires_measure(self, capsys):
        code, _, err = run(capsys, "quality", "--mode", "packing", "--dim",
                           "3", "--delta", "1")
        assert code == 2
        assert "--measure" in err

    def test_needs_delta_or_optimize(self, capsys):
        code, _, err = run(capsys, "quality", "--mode", "covering",
                           "--dim", "3")
        assert code == 2

    def test_optimize_excludes_delta(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quality", "--mode", "covering", "--dim", "2",
                  "--optimize", "--delta", "0.5"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_union_without_closed_form_is_null(self, capsys):
        code, out, _ = run(capsys, "quality", "--dim", "4", "--mode",
                           "packing", "--measure", "dist", "--omega", "0.1",
                           "--delta", "0.7", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0]["union"] is None

    def test_overlap_just_above_packing_radius_is_zero(self, capsys):
        # density - union rounded to -1.4e-17 here
        code, out, _ = run(capsys, "quality", "--dim", "2", "--mode",
                           "packing", "--measure", "vol", "--delta",
                           "0.05075647557406749", "--omega", "0")
        assert code == 0
        assert csv_rows(out)[0]["overlap"] == "0"

    @pytest.mark.parametrize("flag", ("--delta-lo", "--delta-hi"))
    def test_delta_range_needs_optimize(self, capsys, flag):
        code, out, err = run(capsys, "quality", "--mode", "covering",
                             "--dim", "2", "--delta", "0.5", flag, "3")
        assert code == 2
        assert out == ""
        assert flag in err

    def test_high_dim_volume_measure_exits_2(self, capsys):
        code, _, err = run(capsys, "quality", "--dim", "4", "--mode",
                           "packing", "--measure", "vol", "--omega", "0.1",
                           "--delta", "0.7")
        assert code == 2
        assert "n = 2 or 3" in err
        assert "samples=" not in err


class TestSweep:
    def test_fig1_left_peaks_at_two(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "fig1-left",
                           "--steps", "80")
        rows = csv_rows(out)
        best = max(rows, key=lambda r: float(r["density"]))
        assert 1.6 < float(best["delta"]) < 2.5
        assert best["measure"] == "dist"

    def test_fig1_right_dips_at_half(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "fig1-right",
                           "--steps", "80")
        rows = csv_rows(out)
        best = min(rows, key=lambda r: float(r["density"]))
        assert 0.4 < float(best["delta"]) < 0.62
        assert best["mode"] == "covering"

    def test_fig3_right_single_crossing(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "fig3-right",
                           "--steps", "26")
        rows = csv_rows(out)
        by_delta = {}
        for row in rows:
            by_delta.setdefault(float(row["delta"]), []).append(
                (float(row["omega"]), float(row["density"])))
        diffs = [b[1] - a[1] for a, b in zip(sorted(by_delta[0.5]),
                                             sorted(by_delta[2.0]))]
        flips = sum(1 for a, b in zip(diffs, diffs[1:])
                    if (a > 0) != (b > 0))
        assert flips == 1
        assert diffs[0] > 0.0 and diffs[-1] < 0.0

    def test_generic_radius_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--variable", "r", "--lo",
                           "0.1", "--hi", "0.9", "--steps", "9", "--dim",
                           "3", "--delta", "0.8")
        rows = csv_rows(out)
        assert len(rows) == 9
        unions = [float(r["union"]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(unions, unions[1:]))

    def test_generic_delta_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--variable", "delta", "--lo",
                           "0.1", "--hi", "10", "--steps", "12", "--dim",
                           "2", "--mode", "packing", "--measure", "dist",
                           "--omega", "0.2")
        rows = csv_rows(out)
        assert len(rows) == 12

    def test_rerun_is_byte_identical(self, capsys):
        argv = ("sweep", "--preset", "fig3-middle", "--steps", "24")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_range_validation(self, capsys):
        code, _, err = run(capsys, "sweep", "--variable", "delta", "--lo",
                           "2", "--hi", "1", "--steps", "5", "--dim", "2",
                           "--mode", "packing")
        assert code == 2
        code, _, err = run(capsys, "sweep", "--variable", "delta", "--lo",
                           "1", "--hi", "2", "--steps", "1", "--dim", "2",
                           "--mode", "packing")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--preset", "fig1-left", "--steps", "1"),
        ("--preset", "fig3-right", "--steps", "1"),
        ("--preset", "fig1-left", "--steps", "0"),
        ("--preset", "fig1-left", "--steps", "-3"),
        ("--variable", "delta", "--lo", "0", "--hi", "2", "--steps", "3",
         "--dim", "2", "--mode", "covering"),
        ("--variable", "delta", "--steps", "3", "--dim", "2", "--mode",
         "packing"),
        ("--variable", "delta", "--lo", "0.5", "--hi", "2", "--steps", "3",
         "--dim", "3", "--mode", "packing"),
    ])
    def test_invalid_sweep_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("flag, value", (
        ("--lo", "5"), ("--hi", "9"), ("--delta", "0.5"), ("--omega", "0"),
        ("--mode", "covering"), ("--measure", "dist")))
    def test_preset_refuses_what_it_sets(self, capsys, flag, value):
        code, out, err = run(capsys, "sweep", "--preset", "fig3-right",
                             "--steps", "3", flag, value)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("preset, mode, measure, deltas, omegas", [
        ("fig1-left", "packing", "dist", None, [0.5]),
        ("fig1-right", "covering", "free", None, [0.5]),
        ("fig3", "packing", "vol", None, [i / 20 for i in range(21)]),
        ("fig3-middle", "packing", "vol", None, [0.05, 0.1, 0.3]),
        ("fig3-right", "packing", "vol", [0.5, 1.0, 2.0], [0.0, 0.25, 0.5]),
    ])
    def test_preset_axes(self, capsys, preset, mode, measure, deltas,
                         omegas):
        # --steps resizes the swept axis: the deltas of every preset but
        # fig3-right, which sweeps omega at three fixed deltas
        code, out, _ = run(capsys, "sweep", "--preset", preset, "--steps",
                           "3")
        assert code == 0
        rows = csv_rows(out)
        got_deltas = sorted({float(r["delta"]) for r in rows})
        got_omegas = sorted({float(r["omega"]) for r in rows})
        if deltas is None:  # log-spaced over [0.05, 20]
            assert got_deltas == pytest.approx([0.05, 1.0, 20.0])
        else:
            assert got_deltas == deltas
        assert got_omegas == pytest.approx(omegas)
        assert len(rows) == len(got_deltas) * len(got_omegas)
        assert {r["mode"] for r in rows} == {mode}
        assert {r["measure"] for r in rows} == {measure}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "sweep", "--variable", "r", "--lo",
                           "0.2", "--hi", "0.6", "--steps", "3", "--dim",
                           "2", "--delta", "1.0", "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("# overlatt v")
        assert len(text.splitlines()) == 5


class TestUnreadFlags:
    """A flag that nothing reads exits 2 and is named, not ignored."""

    SWEEP = ("sweep", "--steps", "3", "--dim", "2")

    @pytest.mark.parametrize("argv, flags", [
        (SWEEP + ("--variable", "r", "--lo", "0.2", "--hi", "0.6",
                  "--delta", "1", "--mode", "covering", "--measure", "vol",
                  "--omega", "5"), ("--mode", "--measure", "--omega")),
        (SWEEP + ("--variable", "omega", "--lo", "0", "--hi", "0.5",
                  "--delta", "1", "--mode", "covering", "--omega", "7"),
         ("--omega",)),
        (SWEEP + ("--variable", "delta", "--lo", "0.5", "--hi", "2",
                  "--mode", "covering", "--delta", "1"), ("--delta",)),
        (("quality", "--dim", "2", "--delta", "0.5", "--mode", "covering",
          "--measure", "vol"), ("--measure",)),
        (SWEEP + ("--variable", "delta", "--lo", "0.5", "--hi", "2",
                  "--mode", "covering", "--measure", "dist"), ("--measure",)),
        (("measure", "--dim", "3", "--delta", "0.5", "--r", "0.6",
          "--samples", "10", "--seed", "3", "--par", "2"),
         ("--samples", "--seed", "--par")),
        (("verify", "--suite", "theorems", "--samples", "10", "--seed", "3",
          "--par", "2"), ("--samples", "--seed", "--par")),
    ], ids=["sweep-r", "sweep-omega", "sweep-delta", "quality-covering",
            "sweep-covering", "measure-without-oracle", "verify-theorems"])
    def test_unread_flag_exits_2(self, capsys, argv, flags):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert all(flag in err for flag in flags)


class TestVerifyCommand:
    def test_theorems_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorems")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["version"]

    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle",
                           "--samples", "50000", "--seed", "0")
        assert code == 0

    def test_corrupted_form_fails_with_named_cell(self, capsys,
                                                  monkeypatch):
        import overlatt.verify as verify_mod
        true_union = verify_mod.union_fraction

        def skewed(lat, r, **kw):
            return min(1.0, true_union(lat, r, **kw) * 1.01)

        monkeypatch.setattr(verify_mod, "union_fraction", skewed)
        code, out, err = run(capsys, "verify", "--suite", "oracle",
                             "--samples", "50000", "--seed", "0")
        assert code == 1
        assert "FAIL oracle union" in err
        assert "delta=" in err

    def test_17_digit_output(self, capsys):
        code, out, _ = run(capsys, "measure", "--dim", "3", "--delta",
                           "0.7", "--r", "0.55")
        row = csv_rows(out)[0]
        # 17 significant digits survive a float round-trip exactly
        assert float(row["union"]) == float(f"{float(row['union']):.17g}")
        assert "," in out and "." in out


@pytest.mark.parametrize("argv", [
    # pi r^2 / delta overflows at a subnormal delta; JSON would print
    # Infinity, which is not JSON
    ("measure", "--dim", "2", "--delta", "1e-320", "--r", "0.5"),
    ("measure", "--dim", "2", "--delta", "1e-320", "--r", "0.5",
     "--format", "json"),
    ("quality", "--dim", "3", "--mode", "covering", "--delta", "1e-310"),
    # the 2D area rounds to more than the cell
    ("measure", "--dim", "2", "--delta", "1e-320", "--r", "0.3"),
    # delta^2 overflows in the 2D mirror
    ("measure", "--dim", "2", "--delta", "1e300", "--r", "0.7"),
    # the float basis loses delta; the union was 6.9e283
    ("measure", "--dim", "3", "--delta", "1e-300", "--r", "0.3"),
    # the 3D cell's size overflows
    ("measure", "--dim", "3", "--delta", "1e200", "--r", "0.7"),
    # the covering radius overflows
    ("quality", "--dim", "3", "--mode", "covering", "--delta", "1e200"),
    ("quality", "--dim", "2", "--mode", "covering", "--delta", "1e200"),
])
def test_unrepresentable_result_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    # the float range, or a delta the closed forms cannot hold
    assert (err.startswith("error: a value leaves the float range (")
            or err.startswith("error: ") and "too far from 1" in err)
