import json
import subprocess
import sys

import pytest

from meanineq.cli import main
from meanineq.report import dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


class TestMeansEval:
    def test_logarithmic(self, capsys):
        code, out, _ = run_cli(capsys, "means-eval", "--a", "4", "--b", "2",
                               "--mean", "L")
        assert code == 0
        assert parse(out)["value"] == pytest.approx(2.8853900818, abs=1e-9)

    def test_identric_equal_args(self, capsys):
        code, out, _ = run_cli(capsys, "means-eval", "--a", "5", "--b", "5",
                               "--mean", "I")
        assert code == 0 and parse(out)["value"] == 5.0

    def test_lp_requires_p(self, capsys):
        code, out, _ = run_cli(capsys, "means-eval", "--a", "4", "--b", "2",
                               "--mean", "Lp", "--p", "1")
        assert code == 0 and parse(out)["value"] == pytest.approx(3.0, rel=1e-12)
        code, _, err = run_cli(capsys, "means-eval", "--a", "4", "--b", "2",
                               "--mean", "Lp")
        assert code == 2

    def test_invalid_inputs_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "means-eval", "--a", "-4", "--b", "2",
                             "--mean", "A")
        assert code == 2


class TestIneqCheck:
    def test_eq14(self, capsys):
        code, out, _ = run_cli(capsys, "ineq-check", "--id", "EQ14", "--a", "4",
                               "--b", "3", "--c", "2", "--d", "1")
        rep = parse(out)
        assert code == 0 and rep["verdict"] == "holds" and len(rep["slacks"]) == 4

    def test_eq15(self, capsys):
        code, out, _ = run_cli(capsys, "ineq-check", "--id", "EQ15", "--n", "1")
        rep = parse(out)
        assert code == 0 and all(s > 0 for s in rep["slacks"])

    def test_eq4_equality_case(self, capsys):
        code, out, _ = run_cli(capsys, "ineq-check", "--id", "EQ4", "--a", "4",
                               "--b", "3", "--c", "2", "--d", "1",
                               "--p", "2", "--q", "2")
        assert code == 0 and parse(out)["verdict"] == "equality"

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "ineq-check", "--id", "EQ99", "--a", "4",
                               "--b", "3", "--c", "2", "--d", "1")
        assert code == 2 and "EQ4" in err   # the error lists valid ids

    def test_hypothesis_violation_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "ineq-check", "--id", "EQ5", "--a", "4",
                             "--b", "3", "--c", "3.5", "--d", "1")
        assert code == 2

    def test_missing_flags_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "ineq-check", "--id", "EQ4", "--a", "4",
                             "--b", "3", "--c", "2", "--d", "1")
        assert code == 2

    def test_ineq_list(self, capsys):
        code, out, _ = run_cli(capsys, "ineq-list")
        data = parse(out)
        assert code == 0
        assert {e["id"] for e in data["inequalities"]} >= {"EQ4", "EQ17", "SLOPE_3"}


class TestSweepCommand:
    def test_writes_report_and_repeats(self, capsys, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for path, workers in ((out1, "1"), (out2, "3")):
            code, _, _ = run_cli(capsys, "sweep", "--ids", "EQ13,EQ15",
                                 "--samples", "400", "--seed", "42",
                                 "--out", str(path), "--workers", workers)
            assert code == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        r1.pop("wall_time_s")
        r2.pop("wall_time_s")
        assert dumps(r1) == dumps(r2)

    def test_zero_sign_equality(self, capsys, tmp_path):
        out = tmp_path / "zero.json"
        code, _, _ = run_cli(capsys, "sweep", "--ids", "EQ13", "--sign", "zero",
                             "--samples", "100", "--seed", "9", "--out", str(out))
        rep = json.loads(out.read_text())
        assert code == 0
        assert rep["results"]["EQ13"]["equality_cases"] == 100

    def test_bad_id_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--ids", "EQ3", "--samples", "10")
        assert code == 2


class TestKyFan:
    def test_check_constant_sample(self, capsys):
        code, out, _ = run_cli(capsys, "kyfan-check", "--x", "0.5,0.5")
        data = parse(out)
        assert code == 0
        for rep in data["reports"].values():
            assert rep["verdict"] == "equality"

    def test_check_pair(self, capsys):
        code, out, _ = run_cli(capsys, "kyfan-check", "--x", "0.1,0.2")
        data = parse(out)
        assert code == 0
        assert abs(data["reports"]["EQ20"]["margin"]) <= 1e-15
        assert data["reports"]["EQ18"]["margin"] > 0

    def test_check_rejects_out_of_domain(self, capsys):
        code, _, _ = run_cli(capsys, "kyfan-check", "--x", "0.1,0.7")
        assert code == 2

    def test_sweep(self, capsys, tmp_path):
        out = tmp_path / "kf.json"
        code, _, _ = run_cli(capsys, "kyfan-sweep", "--samples", "200",
                             "--seed", "4", "--n-min", "3", "--n-max", "10",
                             "--out", str(out))
        rep = json.loads(out.read_text())
        assert code == 0 and rep["total_violations"] == 0


class TestOracleCompare:
    def test_identric_stress(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "--op", "I",
                               "--a", "1.00000001", "--b", "1", "--digits", "50")
        data = parse(out)
        assert code == 0 and data["rel_err"] <= 1e-10

    def test_ratio_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "--op", "f", "--a", "4",
                               "--b", "3", "--c", "2", "--d", "1", "--x", "0",
                               "--digits", "50")
        data = parse(out)
        assert code == 0 and data["rel_err"] <= 1e-12

    @pytest.mark.parametrize("op,flags", [
        ("g_prime", ("--c", "2", "--d", "1", "--x", "1e-70")),
        ("f_prime", ("--c", "2", "--d", "1", "--x=-5e-324")),
        ("Lp", ("--p", "1e-200")),
    ])
    def test_next_to_removable_points(self, capsys, op, flags):
        code, out, _ = run_cli(capsys, "oracle-compare", "--op", op, "--a", "4", "--b", "3",
                               *flags)
        assert code == 0 and parse(out)["rel_err"] < 1e-15

    @pytest.mark.parametrize("op,x", [("f", "-1e300"), ("f", "-1e10"), ("f_prime", "-1e10")])
    def test_refuses_an_underflowed_value(self, capsys, op, x):
        # f is about 3^x > 0, far below the oracle's smallest exponent: the zero
        # it underflows to holds no digit of f.  At x = -1e10 the underflow
        # happens inside the oracle's exp, in a context of its own
        code, out, err = run_cli(capsys, "oracle-compare", "--op", op, "--a", "4", "--b", "3",
                                 "--c", "2", "--d", "1", "--x", x)
        assert (code, out) == (2, "")
        assert err == (f"error: oracle {op} has no value at {{'a': 4.0, 'b': 3.0, 'c': 2.0, "
                       f"'d': 1.0, 'x': {float(x)!r}}}: it needs inputs its closed form can "
                       "evaluate at this precision\n")

    def test_reports_past_an_underflowed_intermediate(self, capsys):
        # an intermediate underflows, yet Lp is 1.0005e-300 and the fast path matches it
        code, out, _ = run_cli(capsys, "oracle-compare", "--op", "Lp", "--a", "1e300",
                               "--b", "1e-300", "--p", "-3e6")
        data = parse(out)
        assert code == 0 and data["oracle"].startswith("1.000465596749")
        assert data["rel_err"] <= 1e-10

    def test_logarithmic(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "--op", "L",
                               "--a", "4", "--b", "2")
        data = parse(out)
        assert code == 0 and data["rel_err"] <= 1e-13

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "--op", "L",
                               "--a", "4", "--b", "2")
        data = parse(out)
        assert json.loads(dumps(data)) == data


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "meanineq.cli", "means-eval", "--a", "4",
         "--b", "2", "--mean", "G"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(2.8284271247461903)


def test_kyfan_check_accepts_json_array(capsys):
    code = main(["kyfan-check", "--x", "[0.1, 0.2]"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0
    assert data["stats"]["A"] == pytest.approx(0.15)
    code = main(["kyfan-check", "--x", "[bad"])
    assert code == 2


@pytest.mark.parametrize("argv", [("ineq-check", "--id", "EQ7"), ("sweep", "--ids", "EQ7")])
def test_unknown_id_error_is_unquoted(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("error: unknown inequality id 'EQ7'; valid ids: EQ4, EQ5, EQ6, EQ8, "
                   "EQ9, EQ10, EQ11, EQ12, EQ13, EQ14, EQ15, EQ16, EQ17, SLOPE_3\n")


ORACLE_INPUTS = {"a": "4", "b": "3", "c": "2", "d": "1", "x": "0.5", "p": "2"}
ORACLE_OP_FLAGS = {"A": "ab", "G": "ab", "H": "ab", "L": "ab", "I": "ab", "Lp": "abp",
                   "f": "abcdx", "g": "abcdx", "f_prime": "abcdx", "g_prime": "abcdx"}


@pytest.mark.parametrize("op,drop", [(op, key) for op, keys in ORACLE_OP_FLAGS.items()
                                     for key in keys])
def test_oracle_compare_names_a_missing_flag(capsys, op, drop):
    flags = [tok for key in ORACLE_OP_FLAGS[op] if key != drop
             for tok in (f"--{key}", ORACLE_INPUTS[key])]
    code, out, err = run_cli(capsys, "oracle-compare", "--op", op, *flags)
    assert code == 2 and out == ""
    assert err == f"error: --{drop} is required for op {op}\n"
    code, _, _ = run_cli(capsys, "oracle-compare", "--op", op, *flags,
                         f"--{drop}", ORACLE_INPUTS[drop])
    assert code == 0


@pytest.mark.parametrize("op,key", [(op, key) for op, keys in ORACLE_OP_FLAGS.items()
                                    for key in keys if key in "abcd"])
def test_oracle_compare_rejects_a_non_positive_coordinate(capsys, op, key):
    # the binary64 path validates the inputs before the decimal oracle sees them
    flags = [tok for k in ORACLE_OP_FLAGS[op]
             for tok in (f"--{k}", "-1" if k == key else ORACLE_INPUTS[k])]
    code, out, err = run_cli(capsys, "oracle-compare", "--op", op, *flags)
    assert code == 2 and out == ""
    assert err == f"error: {key} must be a finite positive real, got -1.0\n"


@pytest.mark.parametrize("command", ["sweep", "kyfan-sweep"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2(capsys, command, workers):
    assert run_cli(capsys, command, "--samples", "10", "--workers", workers) == (
        2, "", "error: workers must be >= 1\n")


@pytest.mark.parametrize("argv,err", [
    (("means-eval", "--a", "4", "--b", "2", "--mean", "L", "--p", "1"),
     "error: --p is only valid with --mean Lp"),
    (("kyfan-check", "--x", " "), "error: empty sample"),
    (("ineq-check", "--id", "EQ14", "--a", "1", "--b", "2", "--c", "3", "--d", "4"),
     "hypothesis violation: require a >= b >= c >= d > 0, got (1.0, 2.0, 3.0, 4.0)"),
    (("kyfan-sweep", "--n-min", "5", "--n-max", "2", "--workers", "1"),
     "error: kyfan_n_range must satisfy 1 <= lo <= hi"),
    (("kyfan-sweep", "--n-min", "5", "--n-max", "2", "--workers", "2"),
     "error: kyfan_n_range must satisfy 1 <= lo <= hi"),
    (("sweep", "--ids", "EQ5", "--samples", "5", "--range-hi", "inf"),
     "error: bounds upper bound must be finite"),
    # the binary64 path returns nan here; the oracle's refusal keeps it from a false violation
    (("oracle-compare", "--op", "f", "--a", "4", "--b", "3", "--c", "2", "--d", "1", "--x", "nan"),
     "error: oracle f has no value at {'a': 4.0, 'b': 3.0, 'c': 2.0, 'd': 1.0, 'x': nan}: "
     "it needs finite x"),
    # means binary64 cannot separate: A' == G'; A == G and A' < G'; both pairs equal
    (("kyfan-check", "--x", "1e-20,2e-20"),
     "hypothesis violation: EQ21..EQ31 need A > G and A' > G' in binary64, "
     "got ln(A/G) = 0.058891517828191436, ln(A'/G') = 0.0"),
    (("kyfan-check", "--x", "0.3,0.3000000001"),
     "hypothesis violation: EQ21..EQ31 need A > G and A' > G' in binary64, "
     "got ln(A/G) = 0.0, ln(A'/G') = -1.5860328924349403e-16"),
    (("kyfan-check", "--x", "0.5,0.4999999999"),
     "hypothesis violation: EQ21..EQ31 need A > G and A' > G' in binary64, "
     "got ln(A/G) = 0.0, ln(A'/G') = 0.0"),
    # bounds too narrow for the sampler's floor on the ratio or the quad's order
    (("sweep", "--ids", "EQ10", "--samples", "2", "--range-lo", "1",
      "--range-hi", "1.0000001"),
     "error: no pair with ratio >= 1.000001 within 10000 redraws"),
    (("sweep", "--ids", "EQ5", "--samples", "2", "--range-lo", "1",
      "--range-hi", "1.0000000000000002"),
     "error: no valid quad for sign='any' within 10000 redraws"),
    # an output path that cannot be written is refused before the sweep runs
    (("sweep", "--ids", "EQ5", "--samples", "5", "--out", "/nonexistent/r.json"),
     "error: cannot write /nonexistent/r.json: no such directory"),
    (("kyfan-sweep", "--samples", "5", "--csv", "/nonexistent/r.csv"),
     "error: cannot write /nonexistent/r.csv: no such directory"),
    # the report would overwrite the CSV
    (("sweep", "--ids", "EQ5", "--samples", "5", "--out", "/tmp/meanineq-same.out",
      "--csv", "/tmp/../tmp/meanineq-same.out"),
     "error: --out and --csv name one file: /tmp/meanineq-same.out"),
    (("kyfan-sweep", "--samples", "5", "--out", "/tmp/meanineq-same.out",
      "--csv", "/tmp/meanineq-same.out"),
     "error: --out and --csv name one file: /tmp/meanineq-same.out"),
])
def test_rejected_input_exits_2_with_one_line(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err + "\n")


def test_kyfan_check_writes_strict_json(capsys):
    # EQ27's last member is past binary64 at n = 3000: its slack is +inf,
    # which JSON cannot carry as a number
    values = ",".join(repr(0.001 + 0.499 * i / 2999) for i in range(3000))
    code, out, _ = run_cli(capsys, "kyfan-check", "--x", values)

    def reject(constant):
        raise ValueError(f"non-finite constant {constant}")

    data = json.loads(out, parse_constant=reject)
    assert code == 0
    assert data["reports"]["EQ27"]["slacks"][-1] == "inf"


@pytest.mark.parametrize("argv", [
    ("means-eval", "--mean", "Lp", "--a", "4", "--b", "3", "--p", "-1e-5"),
    ("oracle-compare", "--op", "f", "--a", "4", "--b", "3", "--c", "2", "--d", "1",
     "--x", "-5e-324"),
    ("ineq-check", "--id", "EQ4", "--a", "4", "--b", "3", "--c", "2", "--d", "1",
     "--p", "-1.5e0", "--q", "2"),
])
def test_negative_float_in_exponent_notation(capsys, argv):
    # argparse alone reads "-1e-5" as a flag and exits 2 with "expected one argument"
    code, out, err = run_cli(capsys, *argv)
    k = next(k for k, tok in enumerate(argv) if tok[:2] in ("-1", "-5"))
    joined = (*argv[:k - 1], f"{argv[k - 1]}={argv[k]}", *argv[k + 1:])
    assert code == 0 and out
    assert run_cli(capsys, *joined) == (code, out, err)


@pytest.mark.parametrize("value", ["--a", "-h"])
def test_a_flag_after_a_float_flag_is_still_a_usage_error(capsys, value):
    code, out, err = run_cli(capsys, "means-eval", "--mean", "Lp", "--b", "3", "--p", value,
                             "4")
    assert code == 2 and out == ""
    assert "argument --p: expected one argument" in err
