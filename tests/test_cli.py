import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chen3 import goldbach_verify, rosser_sieve
from chen3.arith_core import factorize
from chen3.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestChen:
    def test_count_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "chen.csv"
        code, out, _ = run(capsys, "chen", "--bound", "50", "--csv", str(csv_path))
        assert code == 0
        report = json.loads(out)
        assert report["payload"]["result"]["count"] == 14
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 14
        assert rows[0]["p"] == "2"
        for row in rows:
            big_omega = sum(e for _, e in factorize(int(row["p"]) + 2))
            assert row["omega_p_plus_2"] == str(big_omega), row

    def test_timestamp_isolated(self, capsys):
        code, out, _ = run(capsys, "chen", "--bound", "30")
        report = json.loads(out)
        assert "timestamp" in report and "timestamp" not in report["payload"]

    def test_payload_deterministic(self, capsys):
        _, out1, _ = run(capsys, "chen", "--bound", "100")
        _, out2, _ = run(capsys, "chen", "--bound", "100")
        p1 = json.loads(out1)["payload"]
        p2 = json.loads(out2)["payload"]
        assert p1 == p2


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "chen", "--bogus", "1")
        assert code == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "goldbach", "--n", "10")
        assert code == 2 and "error" in err
        code, _, err = run(capsys, "rosser", "--D", "100", "--sandwich-limit", "-5")
        assert code == 2 and "error" in err

    def test_rosser_sandwich_clean(self, capsys):
        code, out, _ = run(capsys, "rosser", "--D", "100", "--sign", "+",
                           "--sandwich-limit", "500")
        assert code == 0
        res = json.loads(out)["payload"]["result"]
        assert res["sandwich_failures"] == []

    def test_rosser_sandwich_failure(self, capsys, monkeypatch, tmp_path):
        # lambda^- sums shifted by +5 break the lower side at every small q
        table = rosser_sieve.divisor_sum_table
        monkeypatch.setattr(rosser_sieve, "divisor_sum_table",
                            lambda w, limit: table(w, limit) + 5 * (w.sign == "-"))
        csv_path = tmp_path / "weights.csv"
        code, out, _ = run(capsys, "rosser", "--D", "100", "--sign", "-",
                           "--sandwich-limit", "500", "--csv", str(csv_path))
        assert code == 1
        payload = json.loads(out)["payload"]
        assert payload["config"] == {"D": 100.0, "sign": "-", "sandwich_limit": 500}
        assert payload["result"]["sandwich_failures"] == [1, 2, 3, 5, 6, 7, 10, 11, 13, 14]
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == payload["result"]["support_size"]

    def test_invariant_error(self, capsys, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.3)
        code, _, err = run(capsys, "goldbach", "--n", "9", "--hi", "99")
        assert code == 4 and "invariant" in err

    def test_derived_override_is_a_config_error(self, capsys):
        code, _, err = run(capsys, "transfer", "--n", "99999", "--override", "W=30")
        assert code == 2 and "error" in err

    def test_override_out_of_range_is_a_config_error(self, capsys):
        # the three-sum budget divides by delta: refused before any stage runs
        code, out, err = run(capsys, "transfer", "--n", "30003", "--override", "delta=0")
        assert code == 2 and not out
        assert err.startswith("error: need finite values, kappa > 0 with kappa^2 finite, "
                              "delta > 0 and 0 < epsilon <= 1/2: delta=0.0")

    @pytest.mark.parametrize("item", ["kappa=abc", "kappa=inf", "kappa=1e200", "C1=nan", "B=inf"])
    def test_bad_override_value_is_a_config_error(self, capsys, item):
        # not a number, an overflow in k0 and N, or a payload that is not JSON
        code, out, err = run(capsys, "transfer", "--n", "30003", "--override", item)
        assert code == 2 and not out
        assert err.startswith("error: ") and item.split("=")[0] in err

    @pytest.mark.parametrize("item", ["C3=-1", "C4=-1"])
    def test_negative_C3_or_C4_is_a_config_error(self, capsys, item):
        # the three-sum budget raises both to fractional powers
        code, out, err = run(capsys, "transfer", "--n", "30003", "--override", item)
        assert code == 2 and not out
        assert err.startswith("error: need C3 >= 0 and C4 >= 0, got ")

    @pytest.mark.parametrize("item", ["C1=-1", "C1=0"])
    def test_nonpositive_varpi_is_a_config_error(self, capsys, item):
        # varpi = min(C1 C2, 1)/10^4 <= 0 would make every level set all of Z_N
        code, out, err = run(capsys, "transfer", "--n", "99999", "--override", item)
        assert code == 2 and not out
        assert err.startswith("error: need C1 C2 > 0, got ")

    @pytest.mark.parametrize("kappa", ["1e4", "1e150"])
    def test_N_above_the_table_budget_exits_3(self, capsys, kappa):
        code, out, err = run(capsys, "transfer", "--n", "99999", "--override", f"kappa={kappa}")
        assert code == 3 and not out
        assert err.startswith("resource limit: N >= ") and "kappa=" in err

    @pytest.mark.parametrize("argv", [
        ["pollard", "--N", "101", "--densities", "1.5", "0.6", "0.6"],
        ["pollard", "--N", "0", "--densities", "0.6", "0.6", "0.6"],
        ["contrast", "--n", "100000", "--W", "6", "--b", "5", "--samples", "0"],
        ["ssum", "--n", "3000", "--alpha", "1/7", "--k0", "0"],
        ["ssum", "--n", "3000", "--alpha", "1/7", "--k0", "-1"],
        ["selberg", "--stage", "1", "--M", "5", "--W", "2", "--n", "100000", "--k0", "0"],
        ["goldbach", "--n", "9", "--hi", "27", "--variant", "strict", "--z", "1.5"],
        ["chen", "--bound", "100", "--variant", "strict", "--z", "nan"],
        ["rosser", "--D", "nan"],
        ["arcs", "--n", "1000000", "--B", "nan"],
        ["arcs", "--n", "1000000", "--B", "inf"],
        ["arcs", "--n", "1000000", "--B", "1000"],  # Q = (log n)^B overflows
        ["contrast", "--n", "1000000", "--B", "nan"],
        ["ssum", "--n", "-5", "--alpha", "1/3"],
        ["selberg", "--stage", "1", "--M", "5", "--W", "2", "--n", "-5"],
        ["transfer", "--n", "-3"],
    ], ids=["pollard-density", "pollard-N", "contrast-samples", "ssum-k0", "ssum-k0-negative",
            "selberg-k0", "goldbach-z-below-2", "chen-z-nan", "rosser-D-nan", "arcs-B-nan",
            "arcs-B-inf", "arcs-B-overflow", "contrast-B-nan", "ssum-n-negative",
            "selberg-n-negative", "transfer-n-negative"])
    def test_bad_input_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.startswith("error: ")

    def test_paper_assertion(self, capsys):
        # the level-set bound |A3| >= (1 - 3 varpi) N fails at n = 99999
        code, _, err = run(capsys, "transfer", "--n", "99999", "--profile", "paper",
                           "--override", "kappa=0.9", "--override", "delta=0.05",
                           "--override", "epsilon=0.05")
        assert code == 1
        assert err.startswith("assertion failed: |A3| = 13172 below (1 - 3 varpi) N")

    def test_paper_underflow_is_a_config_error(self, capsys):
        # delta left at its paper value, which is 0.0 as a float: exit 2 at
        # once, before any stage sees a spectrum of every frequency
        code, out, err = run(capsys, "transfer", "--n", "99999", "--profile", "paper",
                             "--override", "kappa=0.9", "--override", "epsilon=0.05")
        assert code == 2 and not out
        assert err.startswith("error: paper-profile values underflow to 0.0 as floats: delta;")

    @pytest.mark.parametrize("argv", [
        ["rosser", "--D", "1e10"],
        ["rosser", "--D", "100", "--sandwich-limit", "10000000000"],
        ["pollard", "--N", "10000000000", "--densities", "0.6", "0.6", "0.6"],
        ["arcs", "--n", "1000000", "--B", "4"],
        ["chen", "--bound", "200000000"],
        ["goldbach", "--n", "9", "--hi", "200000000"],
        ["selberg", "--stage", "1", "--M", "5", "--W", "2", "--n", "1000000", "--k0", "1"],
    ], ids=["rosser-D", "rosser-sandwich-limit", "pollard-N", "arcs-B", "chen-bound", "goldbach-hi",
            "selberg-support"])
    def test_allocation_above_a_budget_exits_3(self, capsys, argv):
        # each raises before it allocates by its flag
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out and err.startswith("resource limit: ")

    def test_survey_above_its_budget_exits_3(self, capsys, monkeypatch):
        # within the sieve budget, but the survey's grids would take about 6 GB
        def no_table(hi):
            raise AssertionError("build_factor_table reached")

        monkeypatch.setattr(goldbach_verify, "build_factor_table", no_table)
        code, out, err = run(capsys, "goldbach", "--n", "9", "--hi", "199999999")
        assert code == 3 and not out
        assert err.startswith("resource limit: survey to 199999999 exceeds budget")

    def test_representations_above_their_budget_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(goldbach_verify, "REPRESENTATION_ROW_BUDGET", 10)
        code, out, err = run(capsys, "goldbach", "--n", "99")
        assert code == 3 and not out
        assert err.startswith("resource limit: ") and "--limit" in err

    def test_resource_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(rosser_sieve, "DEFAULT_SUPPORT_CAP", 3)
        code, _, err = run(capsys, "rosser", "--D", "100")
        assert code == 3 and "resource limit" in err

    def test_arcs_rejects_removed_flags(self, capsys):
        for flag in ("--W", "--b"):
            code, _, _ = run(capsys, "arcs", "--n", "10000", flag, "2")
            assert code == 2


class TestSubcommands:
    def test_rosser_payload_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "weights.csv"
        code, out, _ = run(capsys, "rosser", "--D", "1000", "--sign", "-",
                           "--sandwich-limit", "100000", "--csv", str(csv_path))
        assert code == 0
        assert json.loads(out)["payload"]["result"] == {
            "support_size": 222, "sum_of_weights": -138,
            "sandwich_checked": 60794, "sandwich_failures": []}
        with open(csv_path) as fh:
            rows = [(int(d), int(v)) for d, v in list(csv.reader(fh))[1:]]
        assert rows == sorted(rosser_sieve.build_rosser(1000, "-").support.items())

    def test_rosser_sandwich_to_a_million(self):
        # a fresh process, as the command is run: every squarefree q <= 10^6
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "chen3.cli", "rosser", "--D", "1000000", "--sign", "-",
             "--sandwich-limit", "1000000"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)["payload"]["result"]
        assert res["sandwich_checked"] == 607926 and res["sandwich_failures"] == []

    def test_goldbach_single(self, capsys):
        code, out, _ = run(capsys, "goldbach", "--n", "33")
        assert code == 0
        assert json.loads(out)["payload"]["result"]["count"] == 21

    def test_goldbach_single_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "reps.csv"
        code, out, _ = run(capsys, "goldbach", "--n", "33", "--csv", str(csv_path))
        assert code == 0
        assert json.loads(out)["payload"]["result"]["first"] == [2, 2, 29]
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "p1", "p2", "p3", "k_of_p3"]
        assert rows[1:3] == [["33", "2", "2", "29", "1"], ["33", "2", "29", "2", "2"]]
        assert len(rows) == 22

    def test_goldbach_negative_limit(self, capsys):
        code, out, err = run(capsys, "goldbach", "--n", "99", "--limit", "-1")
        assert code == 2 and not out
        assert "limit" in err

    def test_goldbach_survey_without_chen_primes(self, capsys):
        # no p <= 23 has p + 2 free of primes below 23: every n fails, exit 1
        code, out, err = run(capsys, "goldbach", "--n", "9", "--hi", "27",
                             "--variant", "strict", "--z", "23")
        assert code == 1 and not err
        res = json.loads(out)["payload"]["result"]
        assert res == {"rows": 4, "failures": [9, 15, 21, 27], "all_ok": False,
                       "min_k_counts": {"-1": 4}, "fewest": {"n": 9, "rep_count": 0}}

    def test_goldbach_survey_z_above_the_chen_bound(self, capsys):
        # z = 25 > 23 = hi - 4 is no input error: the strict Chen set is
        # empty, so every n fails (exit 1), as at z = 23
        code, out, err = run(capsys, "goldbach", "--n", "9", "--hi", "27",
                             "--variant", "strict", "--z", "25")
        assert code == 1 and not err
        assert json.loads(out)["payload"]["result"]["failures"] == [9, 15, 21, 27]

    def test_goldbach_survey(self, capsys):
        code, out, _ = run(capsys, "goldbach", "--n", "9", "--hi", "99")
        assert code == 0
        assert json.loads(out)["payload"]["result"]["all_ok"]

    @pytest.mark.parametrize("lo, hi, rows, min_k_counts, fewest", [
        ("9", "2000", 332, {"1": 332}, {"n": 9, "rep_count": 3}),
        ("10", "14", 0, {}, None),  # no odd multiple of 3 in [10, 14]
        ("3", "5", 0, {}, None),  # below 9, no n is surveyed
    ])
    def test_goldbach_survey_statistics(self, capsys, lo, hi, rows, min_k_counts, fewest):
        code, out, _ = run(capsys, "goldbach", "--n", lo, "--hi", hi)
        assert code == 0
        res = json.loads(out)["payload"]["result"]
        assert res["rows"] == rows
        assert res["min_k_counts"] == min_k_counts
        assert res["fewest"] == fewest

    def test_goldbach_survey_to_a_million(self, capsys):
        code, out, _ = run(capsys, "goldbach", "--n", "9", "--hi", "1000000")
        assert code == 0
        res = json.loads(out)["payload"]["result"]
        assert res["rows"] == 166666 and res["all_ok"]

    def test_ssum(self, capsys):
        code, out, _ = run(capsys, "ssum", "--n", "3000", "--alpha", "1/7")
        assert code == 0
        res = json.loads(out)["payload"]["result"]
        assert res["abs"] > 0

    def test_selberg(self, capsys):
        code, out, _ = run(capsys, "selberg", "--stage", "1", "--M", "5",
                           "--W", "2", "--n", "100000")
        assert code == 0
        res = json.loads(out)["payload"]["result"]
        assert res["qf_equals_inv_G1"]

    def test_contrast_reports_Q(self, capsys):
        code, out, _ = run(capsys, "contrast", "--n", "100000", "--W", "6", "--b", "5",
                           "--samples", "20")
        res = json.loads(out)["payload"]["result"]
        assert res["Q"] == pytest.approx(np.log(1e5) ** 2)  # 132.5
        assert code == (0 if res["ok"] else 1)

    def test_arcs_seeded(self, capsys):
        _, out1, _ = run(capsys, "arcs", "--n", "10000", "--samples", "5",
                         "--seed", "3")
        _, out2, _ = run(capsys, "arcs", "--n", "10000", "--samples", "5",
                         "--seed", "3")
        assert json.loads(out1)["payload"] == json.loads(out2)["payload"]

    def test_pollard(self, capsys):
        code, out, _ = run(capsys, "pollard", "--N", "101", "--densities",
                           "0.6", "0.6", "0.6", "--seed", "1")
        assert code == 0
        assert json.loads(out)["payload"]["result"]["ok"]

    def test_transfer(self, capsys):
        code, out, _ = run(capsys, "transfer", "--n", "9999")
        assert code == 0
        rep = json.loads(out)["payload"]["result"]
        assert rep["raw_triple_sum_positive"]


# the smallest valid arguments of each subcommand, beside which one float
# option is set to a value out of every domain
_BASE_ARGV = {
    "chen": ["--bound", "100", "--variant", "strict"],
    "rosser": ["--D", "100"],
    "arcs": ["--n", "10000", "--samples", "2"],
    "ssum": ["--n", "3000", "--alpha", "1/7"],
    "selberg": ["--stage", "1", "--M", "5", "--W", "2", "--n", "1000"],
    "transfer": ["--n", "9999"],
    "goldbach": ["--n", "99", "--variant", "strict"],
    "contrast": ["--n", "10000", "--samples", "2"],
    "pollard": ["--N", "101", "--densities", "0.6", "0.6", "0.6"],
}
_FLOAT_OPTIONS = [
    (command, action.option_strings[0], action.nargs if isinstance(action.nargs, int) else 1)
    for subparsers in build_parser()._subparsers._group_actions
    for command, parser in subparsers.choices.items()
    for action in parser._actions if action.type is float
]


@pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
@pytest.mark.parametrize("command, option, nargs", _FLOAT_OPTIONS,
                         ids=[f"{c}{o}" for c, o, _ in _FLOAT_OPTIONS])
def test_float_option_out_of_range_returns_an_exit_code(capsys, command, option, nargs, value):
    code, _, _ = run(capsys, command, *_BASE_ARGV[command], option, *[value] * nargs)
    assert isinstance(code, int)
