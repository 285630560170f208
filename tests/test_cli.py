import csv
import json
import math
import re
from fractions import Fraction

import pytest

from simplexcr import (
    EmpiricalDistribution,
    RegionSpec,
    SimplexGrid,
    SimplexPoint,
    average_volume,
    covering_collection,
)
from simplexcr import core, regions, volume
from simplexcr.functionals import EmptyScanError
from simplexcr.cli import _json_text, main

from oracles import exact_pmf, p_value_fsum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _computed_before_the_gate(*args):
    raise AssertionError("computed before the request was refused")


class TestUsageErrors:
    def test_empty_invocation_exits_2(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_bandit_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "bandit", "--trials", "1")
        assert code == 2

    def test_delta_out_of_range_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "covering", "--p", "0.5,0.5", "--n", "4", "--delta", "1.5"
        )
        assert code == 2

    def test_oversized_region_grid_exits_2(self, capsys):
        # about 5e9 points: refused before any allocation
        code, out, err = run_cli(
            capsys, "region", "--phat", "1,1,1", "--grid", "100000"
        )
        assert code == 2
        assert out == ""
        assert "Delta_(3,100000)" in err and "5000000" in err

    def test_oversized_default_widths_grid_exits_2(self, capsys):
        # the default resolution max(10n, 150) is capped too
        code, _, _ = run_cli(capsys, "widths", "--n-list", "10,400000")
        assert code == 2

    def test_oversized_covering_table_exits_2(self, capsys):
        # about 1.3e9 outcomes: refused before the table is built
        code, out, err = run_cli(
            capsys, "covering", "--p", "0.25,0.25,0.25,0.25", "--n", "2000"
        )
        assert code == 2
        assert out == ""
        assert "outcome table" in err

    def test_oversized_pvalue_table_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "pvalue", "--phat", "2000,0,0,0", "--p", "0.25,0.25,0.25,0.25"
        )
        assert code == 2
        assert out == ""
        assert "outcome table" in err

    def test_oversized_volume_table_exits_2(self, capsys):
        # 70,058,751 outcomes on a small grid: refused before enumeration
        code, out, err = run_cli(
            capsys, "volume", "--k", "5", "--n", "200", "--grid", "50"
        )
        assert code == 2
        assert out == ""
        assert "outcome table" in err and "Delta_(5,200)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # an outcome table past the budget, from a region query
            ("region", "--phat", "2000,0,0,0", "--p", "0.25,0.25,0.25,0.25"),
            ("region", "--phat", "2000,0,0,0", "--grid", "10"),
            ("widths", "--n-list", "5000", "--grid", "10"),
            ("region", "--phat", "1,1,1", "--grid", "100000"),
            ("widths", "--n-list", "10,400000"),
            ("covering", "--p", "0.25,0.25,0.25,0.25", "--n", "2000"),
            ("pvalue", "--phat", "2000,0,0,0", "--p", "0.25,0.25,0.25,0.25"),
            ("volume", "--k", "5", "--n", "200", "--grid", "50"),
            ("volume", "--k", "3", "--n", "5", "--grid", "100000"),
            # two categories: log factorials over 0..n would be 8 GB before the table
            ("pvalue", "--phat", "1000000000,0", "--p", "0.5,0.5"),
            ("covering", "--p", "0.5,0.5", "--n", "1000000000"),
            # an in-budget table of 4.5e6 outcomes, an over-budget grid
            ("volume", "--k", "3", "--n", "3000", "--grid", "4000"),
            # an in-budget first n, an over-budget second one
            ("widths", "--n-list", "10,5000", "--grid", "10"),
        ],
    )
    def test_every_oversized_request_exits_2(self, capsys, monkeypatch, argv):
        # refused before any log-coefficient table is computed
        monkeypatch.setattr(core, "_log_factorials", _computed_before_the_gate)
        core.log_coefficients.cache_clear()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Delta_(" in err

    def test_widths_refusal_builds_no_grid_or_table(self, capsys):
        # n = 10's grid and table are checked, not built, before n = 4000 is refused
        core.compositions_array.cache_clear()
        core._grid_points.cache_clear()
        code, out, err = run_cli(capsys, "widths", "--n-list", "10,4000")
        assert (code, out) == (2, "")
        assert "Delta_(3,40000) has" in err
        assert core.compositions_array.cache_info().currsize == 0
        assert core._grid_points.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("pvalue", "--phat", "1000000000", "--p", "1.0"),
            ("covering", "--p", "1.0", "--n", "1000000000"),
        ],
    )
    def test_one_category_builds_no_log_factorials(self, capsys, monkeypatch, argv):
        # one outcome, whose coefficient n! / n! = 1 needs no table of n + 1 entries
        monkeypatch.setattr(core, "_log_factorials", _computed_before_the_gate)
        core.log_coefficients.cache_clear()
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == {
            "pvalue": "1.0\n",
            "covering": "rank,c1,probability,cumulative\n1,1000000000,1.0,1.0\n",
        }[argv[0]]

    def test_volume_refuses_its_grid_before_enumerating_outcomes(self, capsys, monkeypatch):
        # 4.5e6 outcomes are within the budget, a resolution-4000 grid is not
        monkeypatch.setattr(volume, "enumerate_simplex", _computed_before_the_gate)
        code, out, err = run_cli(capsys, "volume", "--k", "3", "--n", "3000", "--grid", "4000")
        assert code == 2
        assert out == ""
        assert "Delta_(3,4000)" in err

    def test_sanov_region_of_a_huge_phat_builds_no_table(self, capsys):
        # the level-set region of this phat needs 1.3e9 outcomes; Sanov's none
        code, out, _ = run_cli(
            capsys, "region", "--phat", "2000,0,0,0", "--grid", "10",
            "--construction", "sanov",
        )
        assert code == 0
        assert json.loads(out)["construction"] == "sanov"

    def test_boundary_mode_needs_k3(self, capsys):
        code, _, _ = run_cli(
            capsys, "region", "--phat", "2,2", "--delta", "0.3", "--mode", "boundary"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("region", "--phat", "1,2,2", "--p", "nan,0.5,0.5", "--delta", "0.5"),
            ("pvalue", "--phat", "1,2,2", "--p", "nan,0.5,0.5"),
            ("covering", "--p", "nan,0.5,0.5", "--n", "3"),
        ],
    )
    def test_nan_probability_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("region", "--phat", "1,2,2", "--p", "0.2,0.4,0.5"),
            ("pvalue", "--phat", "1,2,2", "--p", "0.2,0.4,0.5"),
            ("covering", "--p", "0.2,0.4,0.5", "--n", "3"),
        ],
    )
    def test_p_off_the_simplex_sum_exits_2(self, capsys, argv):
        # the message gives no advice that --p cannot follow
        assert run_cli(capsys, *argv) == (2, "", "error: probabilities must sum to 1, got 1.1\n")

    def test_nan_tolerance_exits_2(self, capsys, monkeypatch):
        # a nan tolerance never stops a run; the cap keeps a miss quick
        import simplexcr.cli as cli_mod

        real = cli_mod.lucb_run
        monkeypatch.setattr(
            cli_mod, "lucb_run", lambda *a, **kw: real(*a, sample_cap=25, **kw)
        )
        code, out, err = run_cli(
            capsys,
            "bandit", "--trials", "1", "--seed", "1",
            "--methods", "hoeffding", "--tolerance", "nan",
        )
        assert code == 2
        assert out == ""
        assert "tolerance must be >= 0, got nan" in err

    def test_negative_tolerance_exits_2(self, capsys, monkeypatch):
        # below minus the payoff range the stop rule never holds; the cap
        # keeps a miss quick
        import simplexcr.cli as cli_mod

        real = cli_mod.lucb_run
        monkeypatch.setattr(
            cli_mod, "lucb_run", lambda *a, **kw: real(*a, sample_cap=25, **kw)
        )
        code, out, err = run_cli(
            capsys,
            "bandit", "--trials", "1", "--seed", "1",
            "--methods", "hoeffding", "--tolerance", "-1.5",
        )
        assert code == 2
        assert out == ""
        assert "tolerance must be >= 0, got -1.5" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("widths", "--n-list", "20", "--format", "json"),
            ("bandit", "--trials", "1", "--seed", "1", "--methods", "hoeffding",
             "--format", "json"),
        ],
    )
    def test_format_is_refused_where_only_csv_is_written(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--format" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("pvalue", "--phat", "2,2", "--p", "0.3,0.3,0.4"),
            ("region", "--phat", "2,2", "--p", "0.3,0.3,0.4"),
        ],
    )
    def test_p_and_phat_of_different_k_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert {
            "pvalue": "phat has 2 categories, p has 3",
            "region": "phat has 2 categories, p has 3",
        }[argv[0]] in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("region", "--phat", "0,0", "--p", "0.5,0.5", "--construction", "polytope"),
            ("volume", "--k", "2", "--n", "0", "--construction", "sanov"),
            ("volume", "--k", "2", "--n", "0", "--construction", "polytope"),
            # the level-set dump alone would succeed
            ("region", "--phat", "0,0", "--grid", "50", "--construction", "all"),
        ],
    )
    def test_sanov_and_polytope_at_n_0_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert re.search(r"n must be >= 1 for the (sanov|polytope) region, got 0", err)

    @pytest.mark.parametrize("grid", ["1", "49"])
    def test_volume_grid_below_its_least_resolution_exits_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "volume", "--k", "2", "--n", "3", "--grid", grid)
        assert code == 2
        assert out == ""
        assert "resolution must be >= 50" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("region", "--phat", "1,2,2", "--grid", "0"),
            ("region", "--phat", "1,2,2", "--grid", "-3"),
            ("region", "--phat", "1,2,2", "--p", "0.2,0.4,0.4", "--grid", "0"),
            ("widths", "--n-list", "10", "--grid", "0"),
        ],
    )
    def test_grid_below_1_exits_2(self, capsys, argv):
        # a grid of 0 is refused, not read as the default resolution
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "resolution must be >= 1" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # lucb_run refuses the seed before numpy's Generator sees it
            (("bandit", "--seed", "-1", "--trials", "1", "--methods", "hoeffding"),
             "seed must be >= 0, got -1"),
            # the collection's own invariant: the float table mass stays below 1 - delta
            (("covering", "--p", "0.5,0.5", "--n", "5", "--delta", "1e-17"),
             "collection mass 0.9999999999999999 below required 1.0"),
            # EmpiricalDistribution refuses a negative count
            (("region", "--phat=1,-2", "--grid", "10"), "counts must be nonnegative"),
        ],
    )
    def test_library_value_errors_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("region", "--phat", "0,0", "--grid", "50", "--construction", "all",
             "--out", "f.json"),
            ("region", "--phat", "1,2,2", "--grid", "0", "--out", "f.json"),
            ("widths", "--n-list", "10,20", "--delta", "1", "--out", "f.csv"),
            ("volume", "--k", "2", "--n", "3", "--grid", "49", "--out", "f.json"),
            ("covering", "--p", "0.5,0.6", "--n", "3", "--out", "f.csv"),
            ("bandit", "--seed", "-1", "--trials", "1", "--methods", "hoeffding",
             "--out", "f.csv"),
        ],
    )
    def test_refused_command_writes_nothing(self, capsys, monkeypatch, tmp_path, argv):
        # no level-set membership or volume count is computed before the refusal
        monkeypatch.setattr(regions, "levelset_membership_grid", _computed_before_the_gate)
        monkeypatch.setattr(volume, "covering_member_counts", _computed_before_the_gate)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "error, code",
        [
            (ValueError("bad input"), 2),
            (core.OverBudgetError("too big"), 2),
            (EmptyScanError("no member"), 1),
            (OverflowError("overflow"), 1),
            (OSError("no space left"), 1),
        ],
    )
    def test_exit_code_follows_the_exception_type(self, capsys, monkeypatch, error, code):
        import simplexcr.cli as cli_mod

        def fail(*args):
            raise error

        monkeypatch.setattr(cli_mod, "covering_collection", fail)
        result = run_cli(capsys, "covering", "--p", "0.5,0.5", "--n", "4")
        assert result == (code, "", f"error: {error}\n")


# Each subcommand's defaults: omitting the option gives the bytes of passing it.
_DEFAULTS = {
    "region": (("region", "--phat", "2,2,1", "--grid", "20"),
               {"--delta": "0.5", "--format": "json"}),
    "covering": (("covering", "--p", "0.5,0.5", "--n", "4"),
                 {"--delta": "0.5", "--format": "csv"}),
    "volume": (("volume", "--k", "2", "--n", "4"),
               {"--delta": "0.5", "--format": "json", "--grid": "300"}),
    "widths": (("widths", "--n-list", "20"), {"--delta": "0.7"}),
    "bandit": (("bandit", "--trials", "1", "--seed", "3", "--methods", "hoeffding"),
               {"--delta": "0.05"}),
}


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, (_, opts) in _DEFAULTS.items() for option in opts],
)
def test_omitted_option_takes_its_default(capsys, command, option):
    argv, defaults = _DEFAULTS[command]
    omitted = run_cli(capsys, *argv)
    explicit = run_cli(capsys, *argv, option, defaults[option])
    assert omitted[0] == 0
    assert omitted == explicit


class TestPointQueries:
    def test_pvalue_of_sole_outcome(self, capsys):
        code, out, _ = run_cli(capsys, "pvalue", "--phat", "5,0,0", "--p", "1,0,0")
        assert code == 0
        assert out.strip() == "1.0"

    def test_pvalue_prints_repr_of_fsum_form(self, capsys):
        # k = 3, n = 600: a 180,901-outcome table with a long tail
        code, out, _ = run_cli(
            capsys, "pvalue", "--phat", "200,200,200", "--p", "0.3,0.3,0.4"
        )
        phat = EmpiricalDistribution((200, 200, 200))
        want = p_value_fsum(phat, SimplexPoint((0.3, 0.3, 0.4)))
        assert code == 0
        assert out == f"{want!r}\n"

    def test_pvalue_readme_example_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "pvalue", "--phat", "6,6,3", "--p", "0.4,0.4,0.2")
        assert code == 0
        assert out == "1.0\n"

    def test_region_membership_query_true(self, capsys):
        u = "0.3333333333333333,0.3333333333333333,0.3333333333333334"
        code, out, _ = run_cli(
            capsys, "region", "--phat", "1,2,2", "--p", u, "--delta", "0.7"
        )
        assert code == 0
        assert out.strip() == "true"

    def test_region_membership_query_false(self, capsys):
        u = "0.3333333333333333,0.3333333333333333,0.3333333333333334"
        code, out, _ = run_cli(
            capsys, "region", "--phat", "5,0,0", "--p", u, "--delta", "0.7"
        )
        assert code == 0
        assert out.strip() == "false"


class TestCovering:
    def test_uniform_fig_scale_listing(self, capsys):
        u = "0.3333333333333333,0.3333333333333333,0.3333333333333334"
        code, out, _ = run_cli(
            capsys, "covering", "--p", u, "--n", "5", "--delta", "0.7"
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["rank", "c1", "c2", "c3", "probability", "cumulative"]
        assert len(rows) == 1 + 3
        assert [r[1:4] for r in rows[1:]] == [
            ["1", "2", "2"],
            ["2", "1", "2"],
            ["2", "2", "1"],
        ]

    def test_json_format_carries_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "covering", "--p", "0.5,0.5", "--n", "4", "--delta", "0.3",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["total_mass"] >= 0.7

    def test_probability_column_is_each_members_pmf(self, capsys):
        code, out, _ = run_cli(
            capsys, "covering", "--p", "0.9,0.07,0.03", "--n", "60", "--delta", "1e-9"
        )
        assert code == 0
        probs = (Fraction(0.9), Fraction(0.07), Fraction(0.03))
        for row in list(csv.reader(out.splitlines()))[1:]:
            want = float(exact_pmf([int(c) for c in row[1:4]], probs))
            assert float(row[4]) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestWidths:
    def test_schema_and_method_set(self, capsys):
        code, out, _ = run_cli(capsys, "widths", "--n-list", "20")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["n", "method", "lower", "upper", "width", "note"]
        methods = {r[1] for r in rows[1:]}
        assert methods == {
            "levelset",
            "hoeffding",
            "oracle-chernoff",
            "empirical-bernstein",
            "kl-bernoulli",
        }

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "widths", "--n-list", "20,30")
        _, second, _ = run_cli(capsys, "widths", "--n-list", "20,30")
        assert first == second

    def test_warning_row_on_adjusted_counts(self, capsys):
        code, out, _ = run_cli(capsys, "widths", "--n-list", "23")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        warn = [r for r in rows[1:] if r[1] == "warning"]
        assert len(warn) == 1
        assert "adjusted" in warn[0][5]

    def test_each_n_is_built_once(self, capsys, monkeypatch):
        # every n is refused, if at all, before the first interval, and its
        # spec is built once for both the refusal and the interval
        import simplexcr.cli as cli_mod

        specs = []

        def counted(*args):
            specs.append(args)
            return RegionSpec(*args)

        monkeypatch.setattr(cli_mod, "RegionSpec", counted)
        code, _, _ = run_cli(capsys, "widths", "--n-list", "10,20")
        assert code == 0
        assert [spec[2] for spec in specs] == [10, 20]

    def test_levelset_tighter_than_hoeffding(self, capsys):
        _, out, _ = run_cli(capsys, "widths", "--n-list", "20")
        rows = list(csv.reader(out.splitlines()))[1:]
        width = {r[1]: float(r[4]) for r in rows}
        assert width["levelset"] < width["hoeffding"]


class TestVolume:
    def test_total_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "volume", "--k", "2", "--n", "4", "--delta", "0.3",
            "--construction", "levelset", "--grid", "300",
        )
        assert code == 0
        payload = json.loads(out)
        want = average_volume(RegionSpec(0.3, "levelset", 4, 2), 300).total
        assert payload["total"] == pytest.approx(want, abs=1e-12)
        assert payload["schema_version"] == 1
        assert len(payload["per_phat"]) == 5


class TestRegionDumps:
    def test_membership_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "region", "--phat", "2,2,1", "--delta", "0.3",
            "--grid", "30", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["p1", "p2", "p3", "member"]
        assert len(rows) == 1 + 496  # C(32, 2) grid points
        assert {r[3] for r in rows[1:]} == {"0", "1"}

    def test_boundary_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "region", "--phat", "6,6,3", "--delta", "0.7",
            "--grid", "60", "--mode", "boundary",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert len(payload["boundary"]) > 3
        for row in payload["boundary"]:
            assert len(row) == 3
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-9)

    def test_all_constructions_write_three_files(self, tmp_path, capsys):
        out = tmp_path / "region.json"
        code, _, _ = run_cli(
            capsys,
            "region", "--phat", "6,6,3", "--delta", "0.7", "--grid", "40",
            "--construction", "all", "--out", str(out),
        )
        assert code == 0
        for kind in ("levelset", "sanov", "polytope"):
            target = tmp_path / f"region_{kind}.json"
            assert target.exists()
            payload = json.loads(target.read_text())
            assert payload["construction"] == kind

    def test_output_file_lf_endings(self, tmp_path, capsys):
        out = tmp_path / "dump.csv"
        code, _, _ = run_cli(
            capsys,
            "region", "--phat", "2,2,1", "--delta", "0.3",
            "--grid", "20", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw

    def test_all_constructions_keep_a_dotted_directory(self, tmp_path, capsys):
        # the tag goes into the file name, never into a directory name
        outdir = tmp_path / "runs.d"
        outdir.mkdir()
        code, _, _ = run_cli(
            capsys,
            "region", "--phat", "2,2,1", "--delta", "0.3", "--grid", "20",
            "--construction", "all", "--out", str(outdir / "region"),
        )
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["runs.d"]
        assert sorted(p.name for p in outdir.iterdir()) == [
            "region_levelset", "region_polytope", "region_sanov",
        ]

    def test_missing_output_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.json"
        code, out_text, err = run_cli(
            capsys,
            "region", "--phat", "2,2,1", "--delta", "0.3", "--grid", "20",
            "--out", str(out),
        )
        assert (code, out_text) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err
        assert list(tmp_path.iterdir()) == []

    def test_all_constructions_keep_earlier_files_when_a_write_fails(self, tmp_path, capsys):
        (tmp_path / "region_sanov.json").mkdir()  # the second file cannot be written
        code, _, err = run_cli(
            capsys,
            "region", "--phat", "2,2,1", "--delta", "0.3", "--grid", "20",
            "--construction", "all", "--out", str(tmp_path / "region.json"),
        )
        assert code == 1
        assert err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "region_levelset.json", "region_sanov.json",
        ]
        assert json.loads((tmp_path / "region_levelset.json").read_text())["construction"] == "levelset"


# one call per JSON writer: a region dump, a boundary, a covering, a volume
JSON_WRITERS = [
    ("region", "--phat", "6,6,3", "--delta", "0.7", "--grid", "40"),
    ("region", "--phat", "6,6,3", "--delta", "0.7", "--grid", "60", "--mode", "boundary"),
    ("covering", "--p", "0.5,0.3,0.2", "--n", "6", "--delta", "0.3", "--format", "json"),
    ("volume", "--k", "2", "--n", "4", "--delta", "0.3", "--grid", "100"),
]
JSON_WRITER_IDS = ["region", "boundary", "covering", "volume"]


def _compact(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


class TestJsonLayout:
    """Every JSON output is one compact line with sorted keys, the layout
    json.dumps writes with its C encoder."""

    @pytest.mark.parametrize("argv", JSON_WRITERS, ids=JSON_WRITER_IDS)
    def test_stdout_is_one_compact_sorted_line(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == _compact(out)
        assert out.count("\n") == 1

    @pytest.mark.parametrize("argv", JSON_WRITERS, ids=JSON_WRITER_IDS)
    def test_file_is_one_compact_sorted_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0
        text = out.read_bytes().decode("utf-8")
        assert text == _compact(text)
        assert text.count("\n") == 1


class TestJsonValues:
    """The loaded JSON equals the library's answers exactly."""

    def test_region_dumps_equal_grid_and_membership(self, tmp_path, capsys):
        out = tmp_path / "fig.json"
        code, _, _ = run_cli(
            capsys,
            "region", "--phat", "6,6,3", "--delta", "0.7", "--grid", "40",
            "--construction", "all", "--out", str(out),
        )
        assert code == 0
        phat = EmpiricalDistribution((6, 6, 3))
        points = SimplexGrid(3, 40).points
        for kind in ("levelset", "sanov", "polytope"):
            dump = json.loads((tmp_path / f"fig_{kind}.json").read_text(encoding="utf-8"))
            member = regions.membership_grid(phat, RegionSpec(0.7, kind, 15, 3), points)
            assert dump["points"] == points.tolist()
            assert dump["member"] == member.astype(int).tolist()
            assert dump["delta"] == 0.7

    @pytest.mark.parametrize("counts", [(7, 5), (6, 6, 3), (3, 1, 2, 2)])
    @pytest.mark.parametrize("construction", ["all", "sanov"])
    def test_region_dump_bytes_equal_the_full_payload(self, tmp_path, capsys, counts, construction):
        """The grid's points, encoded once and spliced into each dump, give
        the bytes _json_text writes for the whole payload."""
        out = tmp_path / "fig.json"
        code, _, _ = run_cli(
            capsys,
            "region", "--phat", ",".join(map(str, counts)), "--delta", "0.3", "--grid", "12",
            "--construction", construction, "--out", str(out),
        )
        assert code == 0
        phat, k = EmpiricalDistribution(counts), len(counts)
        points = SimplexGrid(k, 12).points
        kinds = ("levelset", "sanov", "polytope") if construction == "all" else (construction,)
        for kind in kinds:
            member = regions.membership_grid(phat, RegionSpec(0.3, kind, phat.n, k), points)
            payload = {
                "construction": kind, "phat_counts": list(counts), "n": phat.n, "k": k,
                "delta": 0.3, "grid_resolution": 12,
                "points": points.tolist(), "member": member.astype(int).tolist(),
            }
            target = tmp_path / f"fig_{kind}.json" if construction == "all" else out
            assert target.read_bytes() == _json_text(payload).encode("utf-8")

    def test_covering_equals_collection(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "covering", "--p", "0.5,0.3,0.2", "--n", "6", "--delta", "0.3",
            "--format", "json",
        )
        assert code == 0
        dump = json.loads(out)
        collection = covering_collection(SimplexPoint((0.5, 0.3, 0.2)), 6, 0.3)
        assert dump["members"] == [list(m.counts) for m in collection.members]
        assert all(type(c) is int for m in dump["members"] for c in m)  # 1.0 == 1 too
        assert dump["cumulative"] == list(collection.cumulative)
        assert dump["total_mass"] == collection.total_mass

    def test_volume_equals_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "volume", "--k", "3", "--n", "3", "--delta", "0.3", "--grid", "60",
        )
        assert code == 0
        dump = json.loads(out)
        report = average_volume(RegionSpec(0.3, "levelset", 3, 3), 60)
        assert dump["total"] == report.total
        assert dump["per_phat"] == [
            {"counts": list(phat.counts), "volume_fraction": vol}
            for phat, vol in report.per_phat.items()
        ]


class TestBanditCommand:
    def test_table_schema_and_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bandit", "--trials", "2", "--seed", "3",
            "--methods", "hoeffding", "--delta", "0.2",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        trials = [r for r in rows[1:] if r[0] == "trial"]
        summaries = [r for r in rows[1:] if r[0] == "summary"]
        assert len(trials) == 2
        assert len(summaries) == 1
        assert all(r[4] == "0" for r in trials)  # arm 0 identified

    def test_fixed_seed_reproducibility(self, capsys):
        args = ("bandit", "--trials", "2", "--seed", "4",
                "--methods", "hoeffding", "--delta", "0.2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_cap_exceeded_flag_and_exit(self, capsys, monkeypatch):
        import simplexcr.cli as cli_mod

        real = cli_mod.lucb_run
        monkeypatch.setattr(
            cli_mod,
            "lucb_run",
            lambda *a, **kw: real(*a, sample_cap=25, **kw),
        )
        code, out, err = run_cli(
            capsys,
            "bandit", "--trials", "1", "--seed", "3",
            "--methods", "hoeffding", "--delta", "0.05",
        )
        assert code == 1
        assert err == "error: 1 of 1 runs hit the sample cap\n"
        rows = list(csv.reader(out.splitlines()))
        trial = [r for r in rows[1:] if r[0] == "trial"][0]
        assert trial[5] == "0"  # completed flag cleared
