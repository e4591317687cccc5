"""End-to-end command line tests, run in process."""

import contextlib
import csv
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lap import analysis, cli, policies
from lap.analysis import (CheckResult, ROW_FIELDS, detect_quality_paradox,
                          ratio_report)
from lap.core import AgentParams, prior_from_json
from lap.instances import (gen_quality_pair, gen_random_prior,
                           gen_worstcase_mixed)


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
        assert list(cli.grid("0.1:0.5:0.2")) == [F(1, 10), F(3, 10), F(1, 2)]

    def test_grid_default_step(self):
        assert list(cli.grid("1:4")) == [F(1), F(2), F(3), F(4)]

    def test_grid_single_point(self):
        assert list(cli.grid("2")) == [F(2)]

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


class TestNumberFlags:
    """Every numeric flag and spec form reads core's bounded number
    grammar: a zero denominator or an exponent past its bound is a usage
    error that names the flag and the reason, and no command runs."""

    REASONS = {"1/0": "zero denominator", "1e10001": "exponent past 10000"}

    def assert_usage_error(self, capsys, argv, flag, reason):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["1/0", "1e10001"])
    @pytest.mark.parametrize("flag", ["--lambda", "--beta", "--eps", "--q",
                                      "--a"])
    def test_flag(self, capsys, flag, value):
        self.assert_usage_error(capsys, ("generate", flag, value), flag,
                                self.REASONS[value])

    @pytest.mark.parametrize("value", ["1/0", "1e10001"])
    @pytest.mark.parametrize("form", ["threshold:", "alpha:"])
    def test_policy_spec(self, capsys, form, value):
        self.assert_usage_error(capsys, ("evaluate", "--policy", form + value),
                                "--policy", self.REASONS[value])

    @pytest.mark.parametrize("text", [
        "1/0", "0:1/0", "0:1:1/0",
        "1e10001", "0:1e10001:1e10001", "0:1:1e10001"])
    @pytest.mark.parametrize("flag", ["--lambda-grid", "--k-grid"])
    def test_grid_field(self, capsys, flag, text):
        reason = self.REASONS["1/0" if "1/0" in text else "1e10001"]
        self.assert_usage_error(capsys, ("sweep", flag, text), flag, reason)

    # fullwidth digits are Unicode decimal digits, not the grammar's [0-9]
    def test_non_ascii_digits_rejected(self, capsys):
        self.assert_usage_error(
            capsys, ("ratio", "--gen", "alternating-geometric", "--n", "2",
                     "--k", "2", "--beta", "2", "--lambda", "\uff11/\uff12"),
            "--lambda", "invalid number value")
        self.assert_usage_error(
            capsys, ("evaluate", *WCM_ARGS, "--policy", "threshold:\uff13"),
            "--policy", "invalid policy_spec value")

    def test_grid_past_budget_refused_before_built(self, capsys):
        t0 = time.perf_counter()
        self.assert_usage_error(
            capsys, ("sweep", "--lambda-grid", "0:1:1/1000000"),
            "--lambda-grid", "more than 1000000 points")
        assert time.perf_counter() - t0 < 0.5

    # each grid is within the cap; their 2,000,000 cells are refused before
    # any grid point is built
    def test_sweep_past_cell_cap_refused_before_listed(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run_cli(
            capsys, "sweep", "--gen", "alternating-geometric", "--n", "6",
            "--beta", "2", "--lambda-grid", "0:999999", "--k-grid", "1:2")
        assert (code, out) == (2, "")
        assert err == "error: sweep grid has more than 1000000 cells\n"
        assert time.perf_counter() - t0 < 0.5

    def test_values_in_use_unchanged(self):
        for text in ("1/4", "0.1", "2", "1e-3", "-1/2", "5."):
            assert cli.number(text) == F(text)

    # each of these is one `int` accepts
    @pytest.mark.parametrize("value", [" 1_0", "1_0", "10 ", "\uff11\uff10"])
    @pytest.mark.parametrize("flag", ["--n", "--k", "--w", "--trials",
                                      "--seed", "--budget-states"])
    def test_integer_flag(self, capsys, flag, value):
        self.assert_usage_error(capsys, ("monte-carlo", flag, value), flag,
                                f"invalid integer value: {value!r}")

    def test_fixed_index_spec(self, capsys):
        self.assert_usage_error(capsys, ("evaluate", "--policy", "fixed: 2"),
                                "--policy", "invalid policy_spec value")

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("LAP_BUDGET_STATES", " 1_000")
        code, out, err = run_cli(capsys, "ratio", "--gen",
                                 "alternating-geometric", "--n", "2", "--k",
                                 "2", "--beta", "2", "--lambda", "1/2")
        assert (code, out) == (2, "")
        assert err == "error: bad LAP_BUDGET_STATES value ' 1_000'\n"

    def test_integers_in_use_unchanged(self):
        for text in ("10", "+3", "-1", "007"):
            assert cli.integer(text) == int(text)

    def test_script_exits_two_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lap.cli", "ratio", "--gen",
             "alternating-geometric", "--n", "2", "--k", "2", "--beta", "2",
             "--lambda", "1e10001"], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "argument --lambda: " in proc.stderr
        assert "Traceback" not in proc.stderr


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


class TestInstanceFamilies:
    """Each --gen family's flags, instance id and missing-flag error."""

    @pytest.mark.parametrize("command,argv,ident", [
        ("ratio", ("--gen", "alternating-geometric", "--n", "4", "--k", "2",
                   "--beta", "2", "--lambda", "1/2"),
         "alternating-geometric(n=4,k=2,beta=2)"),
        ("evaluate", ("--gen", "alternating-linear", "--n", "5", "--k", "3",
                      "--lambda", "1/2", "--policy", "optimal-biased"),
         "alternating-linear(n=5,k=3)"),
        ("ratio", ("--gen", "partial-sums", "--w", "2", "--k", "2",
                   "--beta", "1/2", "--lambda", "1/2"),
         "partial-sums(w=2,k=2,beta=1/2)"),
        ("evaluate", WCM_ARGS + ("--policy", "accept-last"),
         "worstcase-mixed(w=2,k=2,lambda=1/2,eps=1/5)"),
        ("ratio", ("--gen", "identical-value", "--k", "3", "--q", "2",
                   "--lambda", "1/2"), "identical-value(k=3,q=2)"),
        ("evaluate", ("--gen", "salient-feature", "--k", "2", "--a", "1",
                      "--q", "2", "--lambda", "1/2", "--policy", "fixed:2"),
         "salient-feature(k=2,a=1,q=2)"),
    ])
    def test_instance_id(self, capsys, command, argv, ident):
        code, out, _ = run_cli(capsys, command, *argv)
        assert code == 0
        assert json.loads(out)["instance_id"] == ident

    @pytest.mark.parametrize("argv,sides", [
        (("--gen", "quality-pair", "--k", "2", "--q", "2"),
         ["lower_quality", "higher_quality"]),
        (("--gen", "dominance-pair", "--k", "2", "--n", "4", "--lambda", "1",
          "--eps", "1/2"), ["base", "dominating"]),
    ])
    def test_pair_sides(self, capsys, argv, sides):
        code, out, _ = run_cli(capsys, "generate", *argv)
        assert code == 0
        assert list(json.loads(out)) == sides

    @pytest.mark.parametrize("argv,flag", [
        (("alternating-geometric", "--k", "2", "--beta", "2"), "n"),
        (("alternating-linear", "--n", "5"), "k"),
        (("partial-sums", "--w", "2", "--k", "2"), "beta"),
        (("worstcase-mixed", "--k", "2"), "w"),
        (("identical-value", "--q", "2"), "k"),
        (("salient-feature", "--k", "2", "--q", "2"), "a"),
        (("quality-pair", "--k", "2"), "q"),
        (("dominance-pair", "--k", "2", "--n", "4", "--eps", "1/2"),
         "lambda"),
    ])
    def test_first_missing_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "generate", "--gen", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: generator {argv[0]} needs --{flag}\n"

    def test_policy_spec_rejects_malformed_forms(self):
        for text in ("fixed:", "accept-last:1", "threshold:", "nope"):
            with pytest.raises(ValueError, match="unknown policy spec"):
                cli.policy_spec(text)

    @pytest.mark.parametrize("grids,missing", [
        (("--k-grid", "2"), "lambda-grid"),
        (("--lambda-grid", "1/2"), "k-grid"),
    ])
    def test_sweep_missing_grid(self, capsys, grids, missing):
        code, _, err = run_cli(capsys, "sweep", "--gen", "partial-sums",
                               "--w", "2", "--beta", "1/2", *grids)
        assert code == 2
        assert err == f"error: sweep needs --{missing}\n"


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

    # 2**62 steps pass every check of the JSON, and the interpreter refuses
    # the n-long step tuple by its size before it allocates: out of memory
    # is a resource limit; 2**63 does not fit an index at all
    @pytest.mark.parametrize("power", [62, 63])
    def test_iid_prior_past_memory_exits_two(self, capsys, tmp_path, power):
        target = tmp_path / "huge.json"
        target.write_text(json.dumps({**ONE_STEP_PRIOR, "n": 2 ** power}))
        code, out, err = run_cli(capsys, "evaluate", "--in", str(target),
                                 "--lambda", "1/2", "--policy",
                                 "accept-last")
        assert code == 2
        assert out == ""
        assert err.startswith("error: resource limit: ")
        assert "internal error" not in err
        assert "Traceback" not in err
        if power == 62:
            assert err == "error: resource limit: out of memory\n"


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

    def test_number_past_the_bounds_exits_two(self, capsys, tmp_path):
        atoms = [{"v": ["1e10001"], "p": "1"}]
        code, out, err = self._ratio_of(
            capsys, tmp_path, dict(ONE_STEP_PRIOR, steps=[{"atoms": atoms}]))
        assert code == 2
        assert out == ""
        assert err == ("error: number '1e10001' has a digit run past 4300 "
                       "or an exponent past 10000\n")

    def test_non_ascii_digits_in_an_entry_exit_two(self, capsys, tmp_path):
        atoms = [{"v": ["\uff13"], "p": "1"}]
        code, out, err = self._ratio_of(
            capsys, tmp_path, dict(ONE_STEP_PRIOR, steps=[{"atoms": atoms}]))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite number" in err
        assert "Traceback" not in err

    def test_gen_and_in_conflict(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("{}")
        code, _, err = run_cli(capsys, "ratio", *WCM_ARGS,
                               "--in", str(target))
        assert code == 2
        assert "not both" in err


ATOM = {"v": ["1"], "p": "1"}
WIDE_ATOM = {"v": ["1", "2"], "p": "1"}


class TestExitTwo:
    """Each malformed input exits 2 with its one error line and no
    traceback.  `obj` is written to a file when given; PATH in the argv and
    the message stands for its path."""

    @pytest.mark.parametrize("obj, argv, line", [
        ({"k": 2, "candidates": []}, ("ratio", "--in", "PATH"),
         "sequence needs at least one candidate"),
        ({"k": 2, "candidates": [["1", "2"], ["1"]]},
         ("ratio", "--in", "PATH"),
         "all candidates must share one dimension"),
        ({"k": 1, "n": 1, "iid": False, "steps": [{"atoms": []}]},
         ("ratio", "--in", "PATH"), "distribution needs at least one atom"),
        ({"k": 1, "n": 1, "iid": False, "steps": [{"atoms": [
            {"v": ["1"], "p": "1/2"}, {"v": ["1", "2"], "p": "1/2"}]}]},
         ("ratio", "--in", "PATH"), "all atoms must share one dimension"),
        ({"k": 1, "n": 0, "iid": False, "steps": []},
         ("ratio", "--in", "PATH"), "prior needs at least one step"),
        ({"k": 1, "n": 2, "iid": False,
          "steps": [{"atoms": [ATOM]}, {"atoms": [WIDE_ATOM]}]},
         ("ratio", "--in", "PATH"), "all steps must share one dimension"),
        ({"candidates": [["1"]]}, ("ratio", "--in", "PATH"),
         "sequence JSON needs 'k' and 'candidates'"),
        ({"k": 3, "candidates": [["1", "2"]]}, ("ratio", "--in", "PATH"),
         "declared k=3 but candidates have k=2"),
        ({"k": 1, "n": 3, "iid": False,
          "steps": [{"atoms": [ATOM]}, {"atoms": [ATOM]}]},
         ("ratio", "--in", "PATH"), "declared n=3 but got 2 steps"),
        ({"k": 3, "n": 1, "iid": False, "steps": [{"atoms": [WIDE_ATOM]}]},
         ("ratio", "--in", "PATH"), "declared k=3 but steps have k=2"),
        ({"k": 1, "n": 3, "iid": "false", "steps": [{"atoms": [ATOM]}]},
         ("evaluate", "--in", "PATH", "--policy", "accept-last"),
         "'iid' must be a boolean, got str"),
        (None, ("ratio", "--in", "PATH"),
         "cannot read PATH: [Errno 2] No such file or directory: 'PATH'"),
        ({"k": 2}, ("ratio", "--in", "PATH"),
         "PATH holds neither a sequence nor a prior"),
        (None, ("ratio",), "an instance is required: --gen NAME or --in FILE"),
        (None, ("generate",), "generate needs --gen NAME"),
        (None, ("verify", "--suite", "bounds", "--k", "2", "--seed", "1",
                "--trials", "0"), "verify needs a positive instance count"),
    ], ids=["empty-candidates", "mixed-k-candidates", "empty-atoms",
            "mixed-k-atoms", "no-steps", "mixed-k-steps", "sequence-without-k",
            "sequence-k-mismatch", "n-mismatch", "prior-k-mismatch",
            "string-iid", "unreadable-file", "neither-shape", "no-instance",
            "generate-without-gen", "verify-zero-trials"])
    def test_exits_two_with_its_line(self, capsys, tmp_path, obj, argv, line):
        path = str(tmp_path / "instance.json")
        if obj is not None:
            with open(path, "w") as handle:
                json.dump(obj, handle)
        argv = [path if arg == "PATH" else arg for arg in argv]
        if argv[0] != "generate":
            argv += ["--lambda", "1/2"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {line.replace('PATH', path)}\n"
        assert "Traceback" not in err


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

    def test_all_suite_refuses_width_before_any_instance(self, capsys,
                                                         monkeypatch):
        # the paradoxes suite's k >= 2 is checked before the bounds suite
        # draws a prior, even at a million instances
        drawn = []

        def counted(*args, **kwargs):
            drawn.append(args)
            return gen_random_prior(*args, **kwargs)

        monkeypatch.setattr(cli, "gen_random_prior", counted)
        argv = ("verify", "--suite", "all", "--lambda", "1/2", "--k", "1",
                "--seed", "1", "--trials", "1000000")
        assert run_cli(capsys, *argv) == \
            (2, "", "error: paradoxes suite needs k >= 2\n")
        # a bad budget, the bounds suite's first error at k = 1, comes first
        assert run_cli(capsys, *argv, "--budget-states", "0") == \
            (2, "", "error: budget must be positive\n")
        assert drawn == []

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_quality_scene_per_q(self, capsys, monkeypatch, k):
        # q takes one of four values and the scene depends on q alone
        calls = []

        def counted(*args):
            calls.append(args)
            return detect_quality_paradox(*args)

        monkeypatch.setattr(cli, "detect_quality_paradox", counted)
        code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                               "--lambda", "1/4", "--k", str(k),
                               "--seed", "2", "--trials", "30")
        assert code == 0
        assert json.loads(out)["checks"] == 30 * 2 + 30 * 3
        assert 1 <= len(calls) <= 4

    def test_quality_checks_equal_direct_reports(self):
        params = AgentParams(F(1, 3), 3)
        checks = cli._verify_paradoxes(random.Random(11), params, 40)
        quality = [c for c in checks if c.name == "quality-gambler-better"]
        assert len(quality) == 40
        assert len({c.detail["q"] for c in quality}) == 4
        for check in quality:
            q = check.detail["q"]
            rep = detect_quality_paradox(*gen_quality_pair(3, q), params)
            assert check == CheckResult(
                "quality-gambler-better", rep.gambler_better_on_higher,
                rep.gambler_high, rep.gambler_low,
                {"q": q, "prophet_worse_on_higher":
                 rep.prophet_worse_on_higher})

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "bounds",
                               "--lambda", "1/2", "--k", "2")
        assert code == 2
        assert "--seed" in err

    @pytest.mark.parametrize("name, forced", [
        ("prophet-bound", "_e_sum_dim_maxima"),
        ("online-bound", "optimal_rational_policy")])
    def test_counterexample_of_a_failed_bound(self, capsys, monkeypatch,
                                              name, forced):
        # a dependency that reports 10^6 makes the bound fail; the
        # counterexample replays the prior and gives the sides exactly
        big = F(10 ** 6)
        monkeypatch.setattr(analysis, forced, lambda *a: (
            big if forced == "_e_sum_dim_maxima"
            else policies.DPResult(big, 1, {}, ())))
        params = AgentParams(F(1, 2), 2)
        prior = gen_random_prior(random.Random(5), k=2)
        verify = {"prophet-bound": analysis.verify_prophet_bound,
                  "online-bound": analysis.verify_online_bound}[name]
        check = verify(prior, params)
        assert not check.passed
        example = check.counterexample
        assert prior_from_json(example["prior"]) == prior
        assert (example["lambda"], example["k"]) == ("1/2", 2)
        # JSON prints keys in dict order: the prior, lambda, k, the sides
        sides = (["best_threshold_expectation", "optimal_biased_expectation"]
                 if name == "prophet-bound" else ["lhs"])
        assert list(example) == ["prior", "lambda", "k", *sides, "rhs"]
        e_gb = policies.optimal_biased_policy(prior, params).expected_utility
        # prophet: (1 - 1/2) * 10^6 / (1 + 1/2 + 2); online: (3/2) * E[U_gb*]
        rhs = big / 7 if name == "prophet-bound" else F(3, 2) * e_gb
        assert rhs == check.rhs
        assert example["rhs"] == str(rhs)
        code, out, _ = run_cli(capsys, "verify", "--suite", "bounds",
                               "--lambda", "1/2", "--k", "2", "--seed", "5",
                               "--trials", "1")
        assert code == 1
        payload = json.loads(out)
        assert payload["failed"] == 1
        assert payload["failures"][0]["name"] == name
        assert payload["failures"][0]["counterexample"] == example

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

    FAMILIES = {
        "alternating-geometric": ("--n", "5", "--beta", "2"),
        "alternating-linear": ("--n", "4"),
        "partial-sums": ("--w", "3", "--beta", "1/2"),
        "identical-value": ("--q", "2"),
        "salient-feature": ("--a", "1", "--q", "2"),
        "worstcase-mixed": ("--w", "2", "--eps", "1/5"),
    }
    GRID = ("--lambda-grid", "0:1:1/2", "--k-grid", "1:3")

    @pytest.mark.parametrize("as_float", [(), ("--float",)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("gen", sorted(FAMILIES))
    def test_rows_equal_ratio_rows(self, capsys, gen, fmt, as_float):
        flags = ("--gen", gen) + self.FAMILIES[gen]
        tail = ("--format", fmt, "--seed", "3") + as_float
        code, out, err = run_cli(capsys, "sweep", *flags, *self.GRID, *tail)
        assert (code, err) == (0, "")
        if fmt == "csv":
            header, *lines = out.splitlines()
            rows = list(csv.DictReader(io.StringIO(out)))
        else:
            lines = rows = json.loads(out)
        cells = [(lam, k) for lam in ("0", "1/2", "1") for k in ("1", "2",
                                                                 "3")]
        assert len(lines) == len(rows) == len(cells)
        for line, row, (lam, k) in zip(lines, rows, cells):
            code, out, err = run_cli(capsys, "ratio", *flags, "--k", k,
                                     "--lambda", lam, *tail)
            if code == 2:  # the family refuses the cell: a tagged blank row
                assert err.startswith("error: ")
                assert row["e_upr"] == ""
                assert (f"{gen}(unconstructible,k={k},lambda={lam})"
                        in row["instance_id"])
                continue
            assert code == 0
            if fmt == "csv":
                assert out.splitlines() == [header, line]
            else:
                assert json.loads(out) == line

    def test_json_rows_in_field_order(self, capsys):
        # JSON prints keys in dict order, so ratio rows and unconstructible
        # rows both list ROW_FIELDS in order
        code, out, err = run_cli(capsys, "sweep", "--gen", "worstcase-mixed",
                                 "--w", "2", "--eps", "1/5", "--lambda-grid",
                                 "0:1:1/2", "--k-grid", "2:3",
                                 "--format", "json")
        assert (code, err) == (0, "")
        rows = json.loads(out)
        blank = ["unconstructible" in row["instance_id"] for row in rows]
        assert blank == [False] * 3 + [True] * 3
        for row in rows:
            assert list(row) == list(ROW_FIELDS)

    # invalid input exits as `ratio` exits on the same input; only the
    # family refusing a cell, or a pair, blanks it
    def assert_refused_like_ratio(self, capsys, flags):
        code, out, err = run_cli(capsys, "sweep", "--gen",
                                 "alternating-geometric", "--beta", "2",
                                 "--lambda-grid", "0:1", "--k-grid", "2",
                                 *flags)
        _, _, want = run_cli(capsys, "ratio", "--gen", "alternating-geometric",
                             "--beta", "2", "--lambda", "0", "--k", "2",
                             *flags)
        assert (code, out) == (2, "")
        assert err == want and want.startswith("error: ")

    def test_bad_budget_refused(self, capsys):
        self.assert_refused_like_ratio(capsys, ("--n", "4",
                                                "--budget-states", "0"))

    def test_bad_budget_env_var_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("LAP_BUDGET_STATES", "x")
        self.assert_refused_like_ratio(capsys, ("--n", "4"))

    def test_missing_flag_refused(self, capsys):
        self.assert_refused_like_ratio(capsys, ())

    def test_pair_cells_stay_blank(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--gen", "quality-pair",
                               "--q", "2", *self.GRID)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        for row in rows:
            assert row["e_upr"] == row["prophet_ratio"] == ""
            assert row["instance_id"] == (
                f"quality-pair(unconstructible,k={row['k']},"
                f"lambda={row['lambda']})")

    def test_each_instance_built_once_and_dropped(self, capsys, monkeypatch):
        built, tables = [], []
        make, rank_table = cli.gen_alternating_geometric, policies._rank_table

        def counted_make(*values):
            gc.collect()
            assert all(ref() is None for ref in tables)  # earlier priors
            built.append(values)
            return make(*values)

        def counted_table(prior):
            tables.append(weakref.ref(prior))
            return rank_table(prior)

        monkeypatch.setattr(cli, "gen_alternating_geometric", counted_make)
        monkeypatch.setattr(policies, "_rank_table", counted_table)
        code, out, _ = run_cli(capsys, "sweep", "--gen",
                               "alternating-geometric", "--n", "6", "--beta",
                               "1/2", "--lambda-grid", "0:3:1/4", "--k-grid",
                               "1:4")
        assert code == 0
        assert len(out.splitlines()) == 1 + 13 * 4
        assert [values[1] for values in built] == [1, 2, 3, 4]
        assert len(tables) == 4

    # a group's cells differ in lambda, and the prior's memo keeps one
    # biased DP: the next cell's miss drops it before that cell's build, so
    # no two DPs are alive at once
    def test_each_biased_dp_dropped_after_its_cell(self, capsys,
                                                   monkeypatch):
        results = []
        solve = policies._biased_dp

        def tracked_solve(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in results)
            result = solve(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(policies, "_biased_dp", tracked_solve)
        code, _, _ = run_cli(capsys, "sweep", "--gen", "partial-sums", "--w",
                             "3", "--beta", "1/2", "--lambda-grid",
                             "0:2:1/4", "--k-grid", "2:3")
        assert code == 0
        assert len(results) == 9 * 2

    def test_lambda_family_builds_every_cell(self, capsys, monkeypatch):
        calls = []
        make = cli.gen_worstcase_mixed

        def counted_make(*values):
            calls.append(values)
            return make(*values)

        monkeypatch.setattr(cli, "gen_worstcase_mixed", counted_make)
        code, _, _ = run_cli(capsys, "sweep", "--gen", "worstcase-mixed",
                             "--w", "2", "--eps", "1/5", "--lambda-grid",
                             "0:3:1/4", "--k-grid", "1:4")
        assert code == 0
        assert len(calls) == len(set(calls)) == 13 * 4

    # the budget message names only the prior and the budget, so the cells
    # that share a prior raise the one the first cell did
    def test_budget_error_unchanged(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--gen", "partial-sums",
                                 "--w", "4", "--beta", "2", "--lambda-grid",
                                 "0:1:1/2", "--k-grid", "1:3",
                                 "--budget-states", "6")
        assert (code, out) == (2, "")
        assert err == ("error: resource limit: state budget 6 exceeded "
                       "(7+ states by step 7)\n")


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

    @pytest.mark.parametrize("n, code", [("10", 0), ("11", 2)])
    def test_budget_caps_explicit_n(self, capsys, tmp_path, n, code):
        path = self.make_sequence(capsys, tmp_path)
        got, out, err = run_cli(capsys, "reduce", "--in", path,
                                "--lambda", "1/2", "--eps", "1/2",
                                "--n", n, "--budget-states", "10")
        assert got == code
        assert "Traceback" not in err
        if code:
            assert err == ("error: resource limit: candidate count 11 "
                           "exceeds budget 10\n")
        else:
            assert json.loads(out)["prior"]["n"] == 10

    def test_nominal_count_past_the_digit_limit(self, capsys, tmp_path):
        # m = 1,500 candidates call for a nominal count of over 4,300
        # digits; the message notes it instead of printing it
        target = tmp_path / "long.json"
        target.write_text(json.dumps(
            {"k": 1, "candidates": [[i] for i in range(1, 1501)]}))
        code, out, err = run_cli(capsys, "reduce", "--in", str(target),
                                 "--lambda", "1/2", "--eps", "1/2")
        assert (code, out) == (2, "")
        assert err.startswith("error: resource limit: nominal candidate "
                              "count <a number past ")
        assert "internal error" not in err

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
        def broken(*args):
            raise RuntimeError("no such state")

        monkeypatch.setattr(cli, "ratio_report", broken)
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
