"""End-to-end command line tests, run in process."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lap import cli
from lap.analysis import CheckResult, ratio_report
from lap.core import AgentParams
from lap.instances import gen_worstcase_mixed


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


WCM_ARGS = ("--gen", "worstcase-mixed", "--w", "2", "--k", "2",
            "--lambda", "1/2", "--eps", "1/5")

ONE_STEP_PRIOR = {"k": 1, "n": 1, "iid": True, "steps": [
    {"atoms": [{"v": ["1"], "p": "1/2"}, {"v": ["3"], "p": "1/2"}]}]}


class TestArgumentTypes:
    def test_grid_fractional_step(self):
        assert cli.grid("0.1:0.5:0.2") == [F(1, 10), F(3, 10), F(1, 2)]

    def test_grid_default_step(self):
        assert cli.grid("1:4") == [F(1), F(2), F(3), F(4)]

    def test_grid_single_point(self):
        assert cli.grid("2") == [F(2)]

    def test_grid_rejects_bad_shapes(self):
        for text in ("1:2:3:4", "2:1", "1:3:0", "1:3:-1"):
            with pytest.raises(ValueError):
                cli.grid(text)

    def test_policy_spec_forms(self):
        assert cli.policy_spec("accept-last").kind == "accept-last"
        assert cli.policy_spec("optimal-biased").kind == "optimal-biased"
        assert cli.policy_spec("optimal-rational").kind == "optimal-rational"
        assert cli.policy_spec("fixed:3").index == 3
        assert cli.policy_spec("threshold:5/2").threshold == F(5, 2)
        assert cli.policy_spec("alpha:4/5").alpha == F(4, 5)

    def test_policy_spec_rejects_unknown(self):
        for text in ("best", "fixed", "alpha", "accept-last:2"):
            with pytest.raises(ValueError):
                cli.policy_spec(text)


class TestGenerate:
    def test_sequence_json(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--gen",
                               "alternating-geometric", "--n", "4",
                               "--k", "2", "--beta", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["candidates"] == [["1", "0"], ["0", "1"],
                                         ["2", "0"], ["0", "2"]]

    def test_prior_json(self, capsys):
        code, out, _ = run_cli(capsys, "generate", *WCM_ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5
        assert payload["steps"][-1]["atoms"][0]["p"] == "1/5"

    def test_pair_json(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--gen", "quality-pair",
                               "--k", "2", "--q", "2")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"lower_quality", "higher_quality"}
        assert payload["higher_quality"]["candidates"][0] == ["4", "0"]

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "generate", *WCM_ARGS)
        _, second, _ = run_cli(capsys, "generate", *WCM_ARGS)
        assert first == second

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--gen",
                               "alternating-geometric", "--n", "4")
        assert code == 2
        assert "needs --k" in err

    def test_unknown_generator_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--gen", "bogus"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        code, out, _ = run_cli(capsys, "generate", *WCM_ARGS,
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n"] == 5


class TestEvaluate:
    def test_accept_last_exact(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", *WCM_ARGS,
                               "--policy", "accept-last")
        assert code == 0
        payload = json.loads(out)
        assert payload["expected_utility"] == "9/20"
        assert payload["policy"] == {"kind": "accept-last"}

    def test_threshold_mixture_exact(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", *WCM_ARGS,
                               "--policy", "alpha:4/5")
        assert code == 0
        assert json.loads(out)["expected_utility"] == "69/80"

    def test_optimal_biased(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", *WCM_ARGS,
                               "--policy", "optimal-biased")
        assert code == 0
        assert json.loads(out)["expected_utility"] == "1"

    def test_float_mode(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", *WCM_ARGS,
                               "--policy", "accept-last", "--float")
        assert code == 0
        payload = json.loads(out)
        assert payload["expected_utility"] == 0.45
        assert payload["lambda"] == 0.5

    def test_optimal_rational_one_step(self, capsys, tmp_path):
        # accepting 1 beats the nothing that follows the only step
        target = tmp_path / "one-step.json"
        target.write_text(json.dumps(ONE_STEP_PRIOR))
        common = ("--in", str(target), "--lambda", "0")
        code, out, _ = run_cli(capsys, "evaluate", *common,
                               "--policy", "optimal-rational")
        assert code == 0
        assert json.loads(out)["expected_utility"] == "2"
        code, out, _ = run_cli(capsys, "ratio", *common)
        assert json.loads(out)["e_ugr"] == "2"

    def test_missing_policy(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", *WCM_ARGS)
        assert code == 2
        assert "--policy" in err

    def test_budget_env_var(self, capsys, monkeypatch):
        argv = ("evaluate", "--gen", "alternating-geometric", "--n", "6",
                "--k", "2", "--beta", "2", "--lambda", "2",
                "--policy", "optimal-biased")
        monkeypatch.setenv("LAP_BUDGET_STATES", "3")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "state budget" in err
        monkeypatch.delenv("LAP_BUDGET_STATES")
        assert run_cli(capsys, *argv)[0] == 0

    def test_support_cap_on_long_iid_prior(self, capsys, tmp_path):
        # 2^20000 has more digits than Python will turn into a string
        target = tmp_path / "long.json"
        target.write_text(json.dumps({**ONE_STEP_PRIOR, "n": 20000}))
        code, out, err = run_cli(capsys, "evaluate", "--in", str(target),
                                 "--lambda", "1/2", "--policy",
                                 "accept-last", "--budget-states", "10")
        assert code == 2
        assert out == ""
        assert err.startswith("error: resource limit")
        assert "Traceback" not in err


class TestRatio:
    def test_motivating_example(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", "--gen",
                               "alternating-geometric", "--n", "6",
                               "--k", "2", "--beta", "2", "--lambda", "2")
        assert code == 0
        row = json.loads(out)
        assert row["e_upr"] == "4"
        assert row["e_ugr"] == "4"
        assert row["e_ugb"] == "1"
        assert row["prophet_ratio"] == "4"
        assert row["online_ratio"] == "4"
        assert row["regime"] == "supercritical"
        assert row["n"] == 6
        assert row["seed"] is None

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", *WCM_ARGS,
                               "--format", "csv", "--seed", "5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["prophet_ratio"] == "3"
        assert rows[0]["online_ratio"] == "9/5"
        assert rows[0]["seed"] == "5"
        assert rows[0]["instance_id"] == \
            "worstcase-mixed(w=2,k=2,lambda=1/2,eps=1/5)"

    def test_in_file_round_trip(self, capsys, tmp_path):
        target = tmp_path / "wcm.json"
        run_cli(capsys, "generate", *WCM_ARGS, "--out", str(target))
        code, out, _ = run_cli(capsys, "ratio", "--in", str(target),
                               "--lambda", "1/2")
        assert code == 0
        row = json.loads(out)
        assert row["prophet_ratio"] == "3"
        assert row["instance_id"] == str(target)

    def test_malformed_json(self, capsys, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("{not json")
        code, _, err = run_cli(capsys, "ratio", "--in", str(target),
                               "--lambda", "1/2")
        assert code == 2
        assert "malformed JSON" in err

    def _ratio_of(self, capsys, tmp_path, obj):
        target = tmp_path / "instance.json"
        target.write_text(json.dumps(obj))
        return run_cli(capsys, "ratio", "--in", str(target),
                       "--lambda", "1/2")

    def test_float_n_rejected(self, capsys, tmp_path):
        code, _, err = self._ratio_of(capsys, tmp_path,
                                      dict(ONE_STEP_PRIOR, n=2.0))
        assert code == 2
        assert "'n' must be an integer" in err

    def test_bool_n_rejected(self, capsys, tmp_path):
        code, _, err = self._ratio_of(capsys, tmp_path,
                                      dict(ONE_STEP_PRIOR, n=True))
        assert code == 2
        assert "'n' must be an integer" in err

    def test_atom_without_p_rejected(self, capsys, tmp_path):
        obj = dict(ONE_STEP_PRIOR, steps=[{"atoms": [{"v": ["1"]}]}])
        code, _, err = self._ratio_of(capsys, tmp_path, obj)
        assert code == 2
        assert "needs 'v' and 'p'" in err

    @pytest.mark.parametrize("where", ["entry", "p"])
    @pytest.mark.parametrize("literal", ["1e999", "Infinity", "NaN"])
    def test_non_finite_numbers_rejected(self, capsys, tmp_path, where,
                                         literal):
        # JSON numbers that parse to inf or nan, which Fraction cannot hold
        entry, p = (literal, '"1/2"') if where == "entry" else ('"1"', literal)
        target = tmp_path / "instance.json"
        target.write_text(
            '{"k": 1, "n": 1, "iid": true, "steps": [{"atoms": ['
            f'{{"v": [{entry}], "p": {p}}}, {{"v": ["3"], "p": "1/2"}}]}}]}}')
        code, out, err = run_cli(capsys, "ratio", "--in", str(target),
                                 "--lambda", "1/2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("ratio", "--lambda", "1/2", "--float"),
        ("evaluate", "--lambda", "1/2", "--policy", "accept-last",
         "--float"),
        ("monte-carlo", "--lambda", "1/2", "--policy", "accept-last",
         "--trials", "5", "--seed", "1"),
    ], ids=["ratio-float", "evaluate-float", "monte-carlo"])
    def test_value_past_float_range_exits_two(self, capsys, tmp_path, argv):
        # a JSON integer entry is exact as a Fraction, but these commands
        # need it, or a value built from it, as a float
        target = tmp_path / "instance.json"
        target.write_text(
            '{"k": 1, "n": 2, "iid": true, "steps": [{"atoms": ['
            f'{{"v": [1{"0" * 400}], "p": "1/2"}}, '
            '{"v": ["3"], "p": "1/2"}]}]}')
        code, out, err = run_cli(capsys, *argv, "--in", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: resource limit: ")
        assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int-to-str digit limit")
    def test_result_past_the_digit_limit_exits_two(self, capsys, tmp_path):
        # "1e5000" is an exact 5,001-digit int; the results built from it
        # are too long for str() to print
        target = tmp_path / "instance.json"
        target.write_text(
            '{"k": 1, "n": 2, "iid": true, "steps": [{"atoms": ['
            '{"v": ["1e5000"], "p": "1/2"}, {"v": ["1"], "p": "1/2"}]}]}')
        code, out, err = run_cli(capsys, "ratio", "--in", str(target),
                                 "--lambda", "1/2")
        assert code == 2
        assert out == ""
        assert err == (f"error: resource limit: a number past "
                       f"{sys.get_int_max_str_digits()} digits cannot be "
                       "printed\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int-to-str digit limit")
    @pytest.mark.parametrize("atoms, message", [
        ([{"v": ["1"], "p": "1e-5000"}, {"v": ["2"], "p": "1/2"}],
         "probabilities sum to {}, not 1"),
        ([{"v": ["1e-5000"], "p": "1/2"}, {"v": ["1e-5000"], "p": "1/2"}],
         "duplicate support point {}"),
    ], ids=["probability-sum", "duplicate-point"])
    def test_message_past_the_digit_limit_exits_two(self, capsys, tmp_path,
                                                    atoms, message):
        # the message would print a 5,000-digit denominator
        code, out, err = self._ratio_of(
            capsys, tmp_path, dict(ONE_STEP_PRIOR, steps=[{"atoms": atoms}]))
        assert code == 2
        assert out == ""
        note = (f"<a number past {sys.get_int_max_str_digits()} digits "
                "cannot be printed>")
        assert err == f"error: {message.format(note)}\n"

    def test_int_past_the_digit_limit_rejected(self, capsys, tmp_path):
        # json.loads refuses integer literals past 4,300 digits
        target = tmp_path / "instance.json"
        target.write_text(
            '{"k": 1, "n": 1, "iid": true, "steps": [{"atoms": ['
            f'{{"v": [{"1" * 5000}], "p": "1"}}]}}]}}')
        code, out, err = run_cli(capsys, "ratio", "--in", str(target),
                                 "--lambda", "1/2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed JSON")
        assert "Traceback" not in err

    @pytest.mark.parametrize("obj", [
        dict(ONE_STEP_PRIOR, k=True),
        dict(ONE_STEP_PRIOR, steps=[{"atoms": {"v": ["1"], "p": "1"}}]),
        dict(ONE_STEP_PRIOR, steps=[{"atoms": [{"p": "1"}]}]),
        dict(ONE_STEP_PRIOR, steps=[{"atoms": ["1"]}]),
        dict(ONE_STEP_PRIOR, steps=[{"atoms": [{"v": "1", "p": "1"}]}]),
        {"k": 1, "candidates": "1"},
        {"k": 1, "candidates": [1]},
        {"k": 1.0, "candidates": [["1"]]},
    ], ids=["bool-k", "object-atoms",
            "atom-without-v", "string-atom", "string-v",
            "string-candidates", "number-candidate", "float-k"])
    def test_malformed_shapes_rejected(self, capsys, tmp_path, obj):
        code, _, err = self._ratio_of(capsys, tmp_path, obj)
        assert code == 2
        assert err.startswith("error: ")

    def test_gen_and_in_conflict(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("{}")
        code, _, err = run_cli(capsys, "ratio", *WCM_ARGS,
                               "--in", str(target))
        assert code == 2
        assert "not both" in err


class TestVerify:
    def test_bounds_suite_passes(self, capsys):
        argv = ("verify", "--suite", "bounds", "--lambda", "1/2",
                "--k", "2", "--seed", "7", "--trials", "10")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"] == 20
        assert payload["passed"] == 20
        assert payload["failed"] == 0
        assert payload["failures"] == []
        assert run_cli(capsys, *argv)[1] == out

    def test_all_suites_check_count(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--lambda", "1/2",
                               "--k", "2", "--seed", "3", "--trials", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "all"
        assert payload["checks"] == 5 * 2 + 5 * 3
        assert payload["failed"] == 0

    def test_supercritical_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "bounds",
                               "--lambda", "2", "--k", "2", "--seed", "1")
        assert code == 2
        assert "subcritical" in err

    def test_bias_past_the_digit_limit_rejected(self, capsys):
        # the message notes a 5,001-digit bias instead of printing it
        code, _, err = run_cli(capsys, "verify", "--suite", "bounds",
                               "--lambda", "1e5000", "--k", "2",
                               "--seed", "1")
        assert code == 2
        assert err.startswith("error: bound needs subcritical bias, got ")

    def test_paradoxes_need_width(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "paradoxes",
                               "--lambda", "1/2", "--k", "1", "--seed", "1")
        assert code == 2
        assert "k >= 2" in err

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "bounds",
                               "--lambda", "1/2", "--k", "2")
        assert code == 2
        assert "--seed" in err

    def test_failure_exits_one_with_report(self, capsys, monkeypatch):
        bad = CheckResult("prophet-bound", False, F(0), F(1),
                          {"flag": True, "q": F(3, 2)},
                          {"prior": {"k": 1}, "rhs": "1"})
        monkeypatch.setattr(cli, "verify_prophet_bound",
                            lambda *a, **kw: bad)
        argv = ("verify", "--suite", "bounds", "--lambda", "1/2", "--k", "2",
                "--seed", "1", "--trials", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        payload = json.loads(out)
        assert payload["checks"] == 4
        assert payload["failed"] == 2
        first = payload["failures"][0]
        assert first["name"] == "prophet-bound"
        assert first["lhs"] == "0"
        assert first["detail"] == {"flag": True, "q": "3/2"}
        assert first["counterexample"] == {"prior": {"k": 1}, "rhs": "1"}
        code, out, _ = run_cli(capsys, *argv, "--float")
        assert code == 1
        first = json.loads(out)["failures"][0]
        assert first["lhs"] == 0.0
        assert first["detail"] == {"flag": True, "q": 1.5}


class TestSweep:
    ARGS = ("sweep", "--gen", "worstcase-mixed", "--w", "2",
            "--eps", "1/5", "--lambda-grid", "1/4:3/4:1/4",
            "--k-grid", "1:3")

    def test_grid_rows(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert [(r["lambda"], r["k"]) for r in rows] == [
            (l, k) for l in ("1/4", "1/2", "3/4") for k in ("1", "2", "3")]
        cell = rows[4]
        assert cell["e_ugb"] == "1"
        assert cell["prophet_ratio"] == "3"
        assert cell["online_ratio"] == "9/5"
        assert cell["regime"] == "subcritical"

    def test_unbuildable_cells_tagged(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        rows = list(csv.DictReader(io.StringIO(out)))
        critical = rows[5]
        assert critical["regime"] == "critical"
        assert critical["e_upr"] == ""
        assert "unconstructible" in critical["instance_id"]
        supercritical = rows[8]
        assert supercritical["regime"] == "supercritical"
        assert supercritical["prophet_ratio"] == ""
        numeric = [r for r in rows if r["e_upr"] != ""]
        assert len(numeric) == 7

    def test_rows_revalidate_against_library(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        for row in csv.DictReader(io.StringIO(out)):
            if row["e_upr"] == "":
                continue
            params = AgentParams(F(row["lambda"]), int(row["k"]))
            prior = gen_worstcase_mixed(2, params.k, params.lam, F(1, 5))
            report = ratio_report(prior, params)
            assert F(row["e_upr"]) == report.e_prophet_rational
            assert F(row["e_ugr"]) == report.e_gambler_rational_opt
            assert F(row["e_ugb"]) == report.e_gambler_biased_opt
            assert F(row["prophet_ratio"]) == report.prophet_ratio
            assert F(row["bias"]) == params.bias
            assert row["regime"] == report.regime

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 9
        assert rows[4]["prophet_ratio"] == "3"

    def test_float_mode(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "json",
                               "--float")
        assert code == 0
        rows = json.loads(out)
        assert rows[4]["prophet_ratio"] == 3.0
        assert rows[4]["online_ratio"] == 1.8
        assert rows[8]["prophet_ratio"] == ""

    def test_missing_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--gen", "worstcase-mixed",
                               "--w", "2", "--eps", "1/5",
                               "--lambda-grid", "1/4:1/2:1/4")
        assert code == 2
        assert "--k-grid" in err

    def test_fractional_k_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--gen", "worstcase-mixed",
                               "--w", "2", "--eps", "1/5",
                               "--lambda-grid", "1/4", "--k-grid",
                               "1:2:1/2")
        assert code == 2
        assert "integers" in err


class TestMonteCarlo:
    ARGS = ("monte-carlo",) + WCM_ARGS + ("--policy", "accept-last",
                                          "--trials", "3000", "--seed", "11")

    def test_agrees_with_exact(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 3000
        assert abs(payload["mean"] - 0.45) <= 4 * payload["half_width"]

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "monte-carlo", *WCM_ARGS,
                               "--policy", "accept-last", "--trials", "100")
        assert code == 2
        assert "--seed" in err

    @pytest.mark.parametrize("raw", ["many", "0"])
    def test_budget_env_var_read_for_every_policy(self, capsys, monkeypatch,
                                                  raw):
        # the state budget also caps the trial memo, so accept-last reads it
        monkeypatch.setenv("LAP_BUDGET_STATES", raw)
        code, out, err = run_cli(capsys, *self.ARGS)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        monkeypatch.setenv("LAP_BUDGET_STATES", "1")
        assert run_cli(capsys, *self.ARGS)[0] == 0


class TestReduce:
    def make_sequence(self, capsys, tmp_path):
        target = tmp_path / "ident.json"
        run_cli(capsys, "generate", "--gen", "identical-value", "--k", "2",
                "--q", "2", "--out", str(target))
        return str(target)

    def test_reduction_payload(self, capsys, tmp_path):
        path = self.make_sequence(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "reduce", "--in", path,
                               "--lambda", "1/2", "--eps", "1/2",
                               "--n", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"] == {"m": 2, "x": "1/8", "alpha_exp": 3.0,
                                   "nominal_n": 3, "epsilon": "1/2",
                                   "log_base": "e"}
        prior = payload["prior"]
        assert prior["n"] == 12
        assert prior["iid"] is True
        assert prior["steps"][0]["atoms"] == [
            {"v": ["2", "0"], "p": "8/9"},
            {"v": ["0", "2"], "p": "1/9"}]

    def test_budget_blocks_nominal(self, capsys, tmp_path):
        path = self.make_sequence(capsys, tmp_path)
        code, _, err = run_cli(capsys, "reduce", "--in", path,
                               "--lambda", "1/2", "--eps", "1/2",
                               "--budget-states", "2")
        assert code == 2
        assert "resource limit" in err

    def test_needs_sequence(self, capsys, tmp_path):
        target = tmp_path / "prior.json"
        run_cli(capsys, "generate", *WCM_ARGS, "--out", str(target))
        code, _, err = run_cli(capsys, "reduce", "--in", str(target),
                               "--lambda", "1/2", "--eps", "1/2")
        assert code == 2
        assert "deterministic sequence" in err


class TestEntryPoint:
    def test_parser_built_once_and_reusable(self, capsys):
        argv = ("evaluate", *WCM_ARGS, "--policy", "alpha:4/5")
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        with pytest.raises(SystemExit) as rejected:
            cli.main(["evaluate", *WCM_ARGS, "--policy", "best"])
        assert rejected.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *argv) == (0, first, "")
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("argv", [
        ("evaluate", *WCM_ARGS, "--policy", "accept-last", "--format", "csv"),
        ("evaluate", *WCM_ARGS, "--policy", "accept-last", "--seed", "1"),
        ("sweep", "--gen", "worstcase-mixed", "--w", "2", "--eps", "1/5",
         "--lambda-grid", "1/4", "--k-grid", "1:2", "--lambda", "1/2"),
        ("generate", *WCM_ARGS, "--float"),
        ("ratio", *WCM_ARGS, "--exact"),
    ])
    def test_unread_flags_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_internal_error_exits_two(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("no such state")

        monkeypatch.setitem(cli._COMMANDS, "ratio", broken)
        code, out, err = run_cli(capsys, "ratio", *WCM_ARGS)
        assert code == 2
        assert out == ""
        assert err == "error: internal error: RuntimeError: no such state\n"

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "ratio", *WCM_ARGS,
                               "--out", str(tmp_path))
        assert code == 2
        assert err.startswith(f"error: cannot write {tmp_path}")

    def test_module_help(self):
        proc = subprocess.run([sys.executable, "-m", "lap.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout

    def test_module_requires_command(self):
        proc = subprocess.run([sys.executable, "-m", "lap.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract
# ---------------------------------------------------------------------------

ENTRY = st.sampled_from([*range(13), "5/2", "1/3", "0.1", 0.5, "1e400",
                         "1e5000", "1e-5000"])
ODD = st.one_of(st.sampled_from(
    [None, True, [], {}, "abc", "1/0", "", -1, "-1/2", "nan", "inf", 7,
     "1e-5000", [[]]]), st.floats(width=32))


@st.composite
def prior_json(draw):
    """A well-formed prior JSON of a few steps (n at most 3, so an iid
    prior expands to 3 steps), then at most one field replaced by an odd
    value or deleted."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    iid = n == 1 or draw(st.booleans())
    steps = []
    for _ in range(1 if iid else n):
        m = draw(st.integers(1, 3))
        steps.append({"atoms": [{"v": [draw(ENTRY) for _ in range(k)],
                                 "p": f"1/{m}"} for _ in range(m)]})
    obj = {"k": k, "n": n, "iid": iid, "steps": steps}
    # the containers holding a field that may be broken, with their keys
    holders = [(obj, key) for key in obj]
    for step in steps:
        holders.append((step, "atoms"))
        for atom in step["atoms"]:
            holders += [(atom, "v"), (atom, "p")]
            holders += [(atom["v"], j) for j in range(k)]
    if draw(st.booleans()):
        holder, key = draw(st.sampled_from(holders))
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(ODD)
    return obj


COMMAND = st.sampled_from([
    ("ratio",),
    ("ratio", "--float"),
    ("evaluate", "--policy", "accept-last"),
    ("evaluate", "--policy", "optimal-biased", "--float"),
    ("evaluate", "--policy", "alpha:1/2"),
    ("evaluate", "--policy", "fixed:2"),
    ("monte-carlo", "--policy", "optimal-rational", "--trials", "20",
     "--seed", "1"),
    ("monte-carlo", "--policy", "alpha:1/3", "--trials", "20", "--seed",
     "2"),
    ("monte-carlo", "--policy", "optimal-biased", "--trials", "20",
     "--seed", "3"),
])


class TestFuzz:
    @settings(max_examples=250, deadline=None)
    @given(obj=prior_json(), command=COMMAND,
           lam=st.sampled_from(["0", "1/2", "3"]))
    def test_prior_json_exits_zero_or_two(self, obj, command, lam):
        # in process, so a crash fails here rather than exiting 1; the main
        # guard would turn it into exit 2, so its line is asserted absent
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "prior.json")
            with open(path, "w") as handle:
                json.dump(obj, handle)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([*command, "--in", path, "--lambda", lam,
                                 "--budget-states", "500"])
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
        assert (code == 0) == (err.getvalue() == "")
