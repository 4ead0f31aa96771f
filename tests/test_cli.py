import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chen3 import rosser_sieve
from chen3.arith_core import factorize
from chen3.cli import main


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
    ], ids=["pollard-density", "pollard-N", "contrast-samples", "ssum-k0", "ssum-k0-negative",
            "selberg-k0"])
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
    ], ids=["rosser-D", "rosser-sandwich-limit", "pollard-N", "arcs-B"])
    def test_allocation_above_a_budget_exits_3(self, capsys, argv):
        # each raises before it allocates by its flag
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out and err.startswith("resource limit: ")

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
        assert res == {"rows": 4, "failures": [9, 15, 21, 27], "all_ok": False}

    def test_goldbach_survey(self, capsys):
        code, out, _ = run(capsys, "goldbach", "--n", "9", "--hi", "99")
        assert code == 0
        assert json.loads(out)["payload"]["result"]["all_ok"]

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
