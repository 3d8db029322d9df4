import json
import math
import multiprocessing
import sys
from fractions import Fraction

import pytest

import lenstau
from conftest import run_python, within
from lenstau import ohtsuki as oh
from lenstau import rt_oracle
from lenstau.cli import _Parser, _emit, _parse_r_list, build_parser, main
from lenstau.cyclotomic import Cyclotomic, gauss_sum
from lenstau.errors import EvenOrder, InvalidOption, OrderOne
from lenstau.lens_invariants import make_lens_space


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestTauPrime:
    def test_sphere(self, capsys):
        code, out, _ = run(capsys, "tau-prime", "--p", "1", "--q", "0", "--r", "7")
        assert code == 0
        assert "CaseOne" in out

    def test_zero_branch_json(self, capsys):
        code, out, _ = run(capsys, "tau-prime", "--p", "25", "--q", "7",
                           "--r", "5", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["branch"] == "Zero"
        assert all(pair == [0, 1] for pair in record["value"]["coeffs"])

    def test_rp3(self, capsys):
        code, out, _ = run(capsys, "tau-prime", "--p", "2", "--q", "1",
                           "--r", "3", "--format", "json")
        record = json.loads(out)
        assert record["value"]["coeffs"][0] == [1, 1]
        assert record["branch"] == "CaseOne"

    def test_value_round_trips(self, capsys):
        _, out, _ = run(capsys, "tau-prime", "--p", "5", "--q", "1",
                        "--r", "5", "--format", "json")
        record = json.loads(out)
        value = Cyclotomic.from_dict(record["value"])
        from lenstau.lens_invariants import make_lens_space, tau_prime
        assert value == tau_prime(make_lens_space(5, 1), 5).value

    def test_plain(self, capsys):
        code, out, _ = run(capsys, "tau-prime", "--p", "5", "--q", "1",
                           "--r", "5")
        assert code == 0
        assert out == (
            "tau'_5(L(5,1))  [branch CaseTwo(-1), c = 5]\n"
            "  exact: -z + z^3  (z = exp(2*pi*i/5))\n"
            "  numeric: -1.1180339887498949 + -1.5388417685876266i"
            "  (+- 2e-12)\n")

    def test_even_r_rejected(self, capsys):
        code, _, err = run(capsys, "tau-prime", "--p", "2", "--q", "1", "--r", "4")
        assert code == 1
        assert "odd" in err

    def test_non_coprime_rejected(self, capsys):
        code, _, err = run(capsys, "tau-prime", "--p", "4", "--q", "2", "--r", "5")
        assert code == 1


class TestNumericTolerance:
    @pytest.mark.parametrize("argv", [
        ["tau-prime", "--p", "4999", "--q", "1", "--r", "4999"],
        ["tau-prime", "--p", "4995", "--q", "1", "--r", "4995"],
        ["xi", "--p", "4999", "--q", "1", "--r", "4999"],
        ["gauss", "--c", "4999"],
        ["tau-prime", "--p", "252", "--q", "181", "--r", "891"],
        # 0.5 as a sum of 2499 roots of unity: its embedding is off by
        # 1.7e-12, more than 1e-12 * max(1, |value|)
        ["xi", "--p", "2", "--q", "1", "--r", "4999"]],
        ids=lambda argv: "-".join(argv[:1] + argv[2::2]))
    def test_bound_holds_against_mpmath(self, capsys, argv):
        # the exact value summed in 40 digits from the printed coefficients
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        record = json.loads(out)
        n = record["value"]["order"]
        with mpmath.workdps(40):
            exact = mpmath.fsum(
                mpmath.mpf(num) / den * mpmath.expjpi(mpmath.mpf(2 * k) / n)
                for k, (num, den) in enumerate(record["value"]["coeffs"])
                if num)
            numeric = mpmath.mpc(record["numeric"]["re"],
                                 record["numeric"]["im"])
            assert abs(numeric - exact) <= record["numeric_tolerance"]


class TestXi:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "xi", "--p", "2", "--q", "1", "--r", "3",
                           "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert Cyclotomic.from_dict(record["value"]) == 1


class TestOhtsuki:
    def test_sphere(self, capsys):
        code, out, _ = run(capsys, "ohtsuki", "--p", "1", "--q", "0",
                           "--terms", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["lambda"] == [[1, 1], [0, 1], [0, 1], [0, 1]]

    def test_rp3(self, capsys):
        _, out, _ = run(capsys, "ohtsuki", "--p", "2", "--q", "1",
                        "--terms", "2", "--format", "json")
        assert json.loads(out)["lambda"] == [[1, 2], [0, 1]]

    def test_plain(self, capsys):
        code, out, _ = run(capsys, "ohtsuki", "--p", "2", "--q", "1",
                           "--terms", "2")
        assert code == 0
        assert out == ("tau(L(2,1)) in powers of h = t - 1:\n"
                       "  lambda_0 = 1/2\n"
                       "  lambda_1 = 0\n")

    def test_lambda0(self, capsys):
        _, out, _ = run(capsys, "ohtsuki", "--p", "3", "--q", "1",
                        "--terms", "1", "--format", "json")
        assert json.loads(out)["lambda"] == [[1, 3]]

    def test_bad_terms(self, capsys):
        code, _, err = run(capsys, "ohtsuki", "--p", "3", "--q", "1",
                           "--terms", "0")
        assert code == 1

    def test_terms_above_max_terms(self, capsys):
        for argv in (["--p", "3", "--q", "1", "--terms",
                      str(oh.MAX_TERMS + 1)],
                     ["--p", "999983", "--q", "2", "--terms", "1001",
                      "--format", "json"]):
            code, _, err = run(capsys, "ohtsuki", *argv)
            assert code == 1
            assert "MAX_TERMS" in err

    def test_longest_series_in_lowest_terms(self, capsys):
        # MAX_TERMS coefficients at a large p, the costliest series request
        with within(60):
            code, out, _ = run(capsys, "ohtsuki", "--p", "999983", "--q", "2",
                               "--terms", "1000", "--format", "json")
        assert code == 0
        # the pairs run past the default 4300-digit limit of int()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            pairs = json.loads(out)["lambda"]
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(pairs) == 1000
        for k, (n, d) in enumerate(pairs):
            assert d > 0 and math.gcd(n, d) == 1, f"lambda_{k}"

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    def test_coefficients_past_the_int_digit_limit(self, capsys, fmt):
        # denominators of about 5000 digits, past Python's default
        # 4300-digit limit on int-to-str conversion
        p = 10 ** 40 + 1
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "ohtsuki", "--p", str(p), "--q", "1",
                             "--terms", "120", "--format", fmt)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        last = oh.ohtsuki_tau(make_lens_space(p, 1), 120).coeffs[-1]
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(last.denominator)) > 4300
            if fmt == "json":
                assert json.loads(out)["lambda"][-1] == \
                    [last.numerator, last.denominator]
            else:
                assert out.splitlines()[-1] == f"  lambda_119 = {last}"
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("den", [1, 7 ** 20])
    def test_exact_value_past_the_int_digit_limit(self, capsys, den):
        big = 10 ** 4999 + 3
        value = Cyclotomic(15, [big, 0, -big, Fraction(1, 9)], den)
        limit = sys.get_int_max_str_digits()
        _emit({"value": value}, "json", None)
        out, _ = capsys.readouterr()
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(big)) == 5000
            assert out == json.dumps({"value": value.to_dict()},
                                     sort_keys=True) + "\n"
        finally:
            sys.set_int_max_str_digits(limit)


class TestSmallCommands:
    def test_dedekind(self, capsys):
        code, out, _ = run(capsys, "dedekind", "--q", "1", "--p", "3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == [1, 18]

    def test_dedekind_non_coprime(self, capsys):
        code, _, _ = run(capsys, "dedekind", "--q", "2", "--p", "4")
        assert code == 1

    def test_jacobi(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--a", "2", "--n", "15",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == 1

    def test_jacobi_even_modulus(self, capsys):
        code, _, _ = run(capsys, "jacobi", "--a", "2", "--n", "8")
        assert code == 1

    def test_gauss(self, capsys):
        code, out, _ = run(capsys, "gauss", "--c", "3", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert Cyclotomic.from_dict(record["value"]) == gauss_sum(3)
        assert abs(record["numeric"]["im"] - 3 ** 0.5) < 1e-9

    def test_gauss_even(self, capsys):
        code, _, _ = run(capsys, "gauss", "--c", "4")
        assert code == 1

    def test_cf(self, capsys):
        code, out, _ = run(capsys, "cf", "--p", "7", "--q", "2",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["framings"] == [4, 2]

    def test_oracle_so3(self, capsys):
        code, out, _ = run(capsys, "oracle", "--p", "2", "--q", "1",
                           "--r", "3", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert abs(record["value"]["re"] - 1) < 1e-9

    def test_oracle_rt_even_r(self, capsys):
        code, out, _ = run(capsys, "oracle", "--p", "2", "--q", "1",
                           "--r", "4", "--kind", "rt", "--format", "json")
        assert code == 0

    def test_oracle_so3_even_r_rejected(self, capsys):
        code, _, _ = run(capsys, "oracle", "--p", "2", "--q", "1", "--r", "4")
        assert code == 1


class TestVerify:
    @pytest.mark.parametrize("argv, seconds", [
        # two workers, and none of them outlives the sweep
        (["--max-p", "12", "--r", "3,5,7,9", "--jobs", "2", "--format",
          "json"], 60),
        # chains of up to 149 terms, about 6.8k cases per order
        (["--max-p", "150", "--r", "15,45", "--jobs", "1"], 60),
        # chains of up to 59 terms at a large order: every case must match
        (["--max-p", "60", "--r", "4995", "--jobs", "1"], 120)],
        ids=["jobs-2", "deep-walk", "r-4995"])
    def test_sweep_matches_everywhere(self, capsys, monkeypatch, argv,
                                      seconds):
        # two CPUs whatever the host has, so --jobs 2 really forks
        monkeypatch.setattr(rt_oracle, "usable_cpus", lambda: 2)
        with within(seconds):
            assert run(capsys, "verify", *argv)[0] == 0
        assert multiprocessing.active_children() == []

    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-p", "4", "--r", "3,5",
                           "--jobs", "1", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["consistent"] is True
        assert record["match_kind"] == "direct"
        assert record["match_counts"]["none"] == 0

    def test_single_sphere(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-p", "1", "--r", "3",
                           "--jobs", "1")
        assert code == 0
        assert out == (
            "verify sweep: p <= 1, r in [3], tolerance 1e-08\n"
            "  convention: oracle: S_jk ~ sin(pi*j*k/r), twists "
            "exp(i*pi*(n^2-1)/(2r)), anomaly = Gauss-sum phase; "
            "bracket signs (-1,-1) [oracle-calibrated]\n"
            "  cases: 1\n"
            "  branch tallies: {'CaseOne': 1}\n"
            "  matches: {'direct': 1, 'conjugate': 0, 'none': 0} "
            "(kind: either)\n"
            "  worst |error|: 0\n")

    def test_even_r_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--max-p", "12", "--r", "4")
        assert code == 1
        assert "odd" in err

    def test_mismatch_exit_code(self, capsys):
        # an impossible tolerance forces match kind "none" -> exit 2
        # (r = 5 so the values are irrational and float error is nonzero)
        code, _, _ = run(capsys, "verify", "--max-p", "3", "--r", "5",
                         "--jobs", "1", "--tolerance", "1e-300")
        assert code == 2

    def test_per_case(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-p", "3", "--r", "3",
                           "--jobs", "1", "--per-case")
        assert code == 0
        assert "L(2,1) r=3" in out

    def test_sign_study_json(self, capsys):
        # only the calibrated reading matches everywhere, here and in Case
        # Two at large orders
        for argv, instances in (
                (["--max-p", "5", "--r", "3,5", "--jobs", "1"], 4),
                (["--max-p", "10", "--r", "891,4995"], 16)):
            with within(60):
                code, out, _ = run(capsys, "verify", *argv, "--sign-study",
                                   "--format", "json")
            assert code == 0
            study = json.loads(out)["sign_study"]
            assert set(study) == {"(-1,-1)", "(1,1)", "(-1,1)", "(1,-1)"}
            assert study["(-1,-1)"] == {
                "case_two_instances": instances, "integrality_failures": 0,
                "matched_direct": instances, "mismatched": 0}
            assert study["(1,1)"]["mismatched"] > 0

    def test_sign_study_walks_each_order_once(self, capsys, monkeypatch):
        # the study tallies the sweep's own records
        walked, real = [], rt_oracle._chain_walk

        def recording(r, max_p):
            walked.append(r)
            return real(r, max_p)
        monkeypatch.setattr(rt_oracle, "_chain_walk", recording)
        assert main(["verify", "--max-p", "12", "--r", "3,5,7",
                     "--sign-study", "--jobs", "1", "--format", "json"]) == 0
        assert sorted(walked) == [3, 5, 7]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("max_p", [8, 12])
    def test_sign_study_is_the_library_study(self, capsys, max_p, jobs):
        # the study reads p <= min(max_p, 10); at --jobs 2 it tallies
        # records that came back from a worker as rows
        from lenstau.rt_oracle import bracket_sign_study
        code, out, _ = run(capsys, "verify", "--max-p", str(max_p),
                           "--r", "3,5,7,9", "--sign-study", "--jobs", jobs,
                           "--format", "json")
        assert code == 0
        study = bracket_sign_study(min(max_p, 10), (3, 5, 7, 9))
        assert json.loads(out)["sign_study"] == {
            f"({s12},{srest})": stats for (s12, srest), stats in study.items()}


class TestDeterminism:
    def test_json_byte_identical(self, capsys):
        # errors and another command in between must not disturb the
        # parser that all calls in one process share
        args = ["tau-prime", "--p", "7", "--q", "3", "--r", "9",
                "--format", "json"]
        first = run(capsys, *args)
        assert first[0] == 0
        assert run(capsys, "tau-prime", "--p", "2", "--bogus")[0] == 1
        assert run(capsys, "tau-prime", "--p", "2", "--q", "1",
                   "--r", "4")[0] == 1
        assert run(capsys, "ohtsuki", "--p", "3", "--q", "1",
                   "--format", "json")[0] == 0
        assert run(capsys, *args) == first
        args = ["verify", "--max-p", "4", "--r", "3,5", "--jobs", "1",
                "--format", "json"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("argv", [
        # Case One, Zero and Case Two at r = 891
        *([cmd, "--p", p, "--q", q, "--r", "891"]
          for cmd in ("tau-prime", "xi")
          for p, q in (("1418", "213"), ("45", "2"), ("252", "181"))),
        ["gauss", "--c", "891"],
        # the costliest requests: Case Two with c = r near MAX_ORDER, and
        # MAX_TERMS coefficients at a large p
        ["tau-prime", "--p", "4995", "--q", "1", "--r", "4995"],
        ["gauss", "--c", "4995"],
        ["ohtsuki", "--p", "999983", "--q", "2", "--terms", "1000"]])
    def test_json_is_the_standard_encoders(self, capsys, argv):
        # 30 s each keeps any four of these within 120 s together
        with within(30):
            code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        # the Ohtsuki pairs run past the default 4300-digit limit of int()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_keys_sorted(self, capsys):
        _, out, _ = run(capsys, "tau-prime", "--p", "3", "--q", "1",
                        "--r", "5", "--format", "json")
        record = json.loads(out)
        assert list(record) == sorted(record)


class TestBadFlags:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_flag(self, capsys):
        assert run(capsys, "tau-prime", "--p", "2", "--q", "1") == (
            1, "", "lenstau tau-prime: error: the following arguments are "
                    "required: --r\n")

    @pytest.mark.parametrize("extra", [["--bogus", "x"], ["--", "x"]])
    def test_unrecognized_arguments(self, capsys, extra):
        assert run(capsys, "tau-prime", "--p", "2", "--q", "1", "--r", "5",
                   *extra) == (1, "", "lenstau: error: unrecognized "
                               f"arguments: {' '.join(extra)}\n")

    def test_no_command(self, capsys):
        assert run(capsys) == (1, "", "lenstau: error: the following "
                               "arguments are required: command\n")

    @pytest.mark.parametrize("argv, usage", [
        (["-h"], "usage: lenstau [-h]"),
        (["tau-prime", "-h"], "usage: lenstau tau-prime [-h]")])
    def test_help(self, capsys, argv, usage):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage)

    def test_bad_max_p(self, capsys):
        assert run(capsys, "verify", "--max-p", "0", "--r", "3")[0] == 1

    def test_negative_jobs(self, capsys):
        code, _, err = run(capsys, "verify", "--max-p", "2", "--r", "3",
                           "--jobs", "-1")
        assert code == 1
        assert "--jobs" in err

    def test_order_one_reaches_user(self, capsys):
        code, _, err = run(capsys, "tau-prime", "--p", "2", "--q", "1",
                           "--r", "1")
        assert code == 1
        assert "r must be odd and > 1" in err

    @pytest.mark.parametrize("text, error", [
        ("3,4", EvenOrder), ("0", EvenOrder), ("5,1", OrderOne),
        ("-1", OrderOne)])
    def test_bad_r_list(self, capsys, text, error):
        with pytest.raises(error, match="r must be odd and > 1"):
            _parse_r_list(text)
        code, _, err = run(capsys, "verify", "--max-p", "2", "--r", text)
        assert code == 1
        assert "r must be odd and > 1" in err

    def test_order_above_max_order_refused_before_work(self, capsys,
                                                       monkeypatch):
        verified = []
        monkeypatch.setattr(rt_oracle, "_verify_order",
                            lambda *args: verified.append(args))
        code, out, err = run(capsys, "verify", "--max-p", "5",
                             "--r", "3,5001", "--jobs", "2")
        assert code == 1 and out == ""
        assert "order 5001 exceeds MAX_ORDER = 5000" in err
        assert verified == []

    def test_bad_tolerance(self, capsys):
        assert run(capsys, "verify", "--max-p", "2", "--r", "3",
                   "--tolerance", "-1")[0] == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-p", "0", "--max-p must be >= 1"),
        ("--tolerance", "0", "--tolerance must be positive"),
        ("--tolerance", "inf", "--tolerance must be positive and below 1"),
        ("--tolerance", "nan", "--tolerance must be positive and below 1"),
        ("--tolerance", "1", "--tolerance must be positive and below 1"),
        ("--tolerance", "2", "--tolerance must be positive and below 1"),
        ("--tolerance", "1e308", "--tolerance must be positive and below 1"),
        ("--jobs", "-1", "--jobs must be >= 0"),
        ("--r", "3,x", "cannot parse r list"),
        ("--r", ",", "empty r list"),
        ("--r", "3,3", "order 3 is listed more than once")])
    def test_invalid_verify_option(self, capsys, flag, value, message):
        argv = ["verify", "--max-p", "2", "--r", "3", flag, value]
        args = build_parser().parse_args(argv)
        with pytest.raises(InvalidOption, match=message):
            args.func(args)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert message in err

    @pytest.mark.parametrize("argv, err", [
        (["--max-p", "0", "--tolerance", "2", "--jobs", "-1", "--r", "x"],
         "--max-p must be >= 1, got 0"),
        (["--max-p", "3", "--tolerance", "2", "--jobs", "-1", "--r", "x"],
         "--tolerance must be positive and below 1, got 2"),
        (["--max-p", "3", "--jobs", "-1", "--r", "x"],
         "--jobs must be >= 0, got -1"),
        (["--max-p", "3", "--r", "x"], "cannot parse r list 'x'"),
        (["--max-p", "3", "--r", ","], "empty r list")])
    def test_verify_error_order(self, capsys, argv, err):
        # several bad flags: the first in this order is the one reported
        assert run(capsys, "verify", *argv) == (
            1, "", f"lenstau: error: {err}\n")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_top_level_help_is_fixed(self, capsys, flag):
        code, out, _ = run(capsys, flag)
        assert code == 0
        assert "Command-line front end." not in out
        assert " ".join(out.split()).count(
            "Exact lens space invariants and a numeric check. Exit codes: "
            "0 success, 1 invalid input, 2 verification failure.") == 1


class TestOneProcess:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_command_parsed_by_its_own_parser(self, capsys, monkeypatch):
        # a known command is parsed once, by the same parser on every call
        parsed = []
        parse = _Parser.parse_known_args

        def record(self, *args, **kwargs):
            parsed.append(self)
            return parse(self, *args, **kwargs)
        monkeypatch.setattr(_Parser, "parse_known_args", record)
        for argv in (["tau-prime", "--p", "5", "--q", "1", "--r", "5"],
                     ["xi", "--p", "7", "--q", "3", "--r", "9"],
                     ["gauss", "--c", "15"],
                     ["ohtsuki", "--p", "3", "--q", "1"]):
            seen = []
            for _ in range(2):
                parsed.clear()
                assert run(capsys, *argv)[0] == 0
                seen += parsed
            assert len(seen) == 2 and seen[0] is seen[1]
            assert seen[0] is not build_parser()
            assert seen[0].prog == f"lenstau {argv[0]}"

    def test_json_renders_no_plain_text(self, capsys, monkeypatch):
        class Rendered(Exception):
            pass

        def refuse(self):
            raise Rendered
        monkeypatch.setattr(Cyclotomic, "__str__", refuse)
        for argv in (["tau-prime", "--p", "5", "--q", "1", "--r", "5"],
                     ["xi", "--p", "7", "--q", "3", "--r", "9"],
                     ["gauss", "--c", "15"]):
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            json.loads(out)
        with pytest.raises(Rendered):
            main(["gauss", "--c", "15"])


ORACLE_MODULES = "[m in sys.modules for m in ('numpy', 'lenstau.rt_oracle')]"


class TestColdStart:
    """The exact commands never import the numeric oracle or numpy."""

    def test_exact_commands_load_no_numpy(self):
        out = run_python(f"""
            import contextlib, io, json, sys
            import lenstau, lenstau.cli
            for argv in (["tau-prime", "--p", "252", "--q", "181", "--r", "891"],
                         ["xi", "--p", "7", "--q", "3", "--r", "9"],
                         ["ohtsuki", "--p", "999983", "--q", "2"],
                         ["dedekind", "--q", "5", "--p", "13"],
                         ["jacobi", "--a", "5", "--n", "21"],
                         ["gauss", "--c", "15"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    if lenstau.cli.main([*argv, "--format", "json"]) != 0:
                        raise SystemExit(f"{{argv}} failed")
            print(json.dumps({ORACLE_MODULES}))
        """)
        assert json.loads(out) == [False, False]

    @pytest.mark.parametrize("argv", [
        ["cf", "--p", "7", "--q", "3"],
        ["oracle", "--p", "7", "--q", "3", "--r", "5"],
        ["verify", "--max-p", "3", "--r", "3", "--jobs", "1"]])
    def test_oracle_commands_load_the_oracle(self, argv):
        out = run_python(f"""
            import contextlib, io, json, sys
            import lenstau.cli
            before = {ORACLE_MODULES}
            with contextlib.redirect_stdout(io.StringIO()):
                code = lenstau.cli.main({argv!r} + ["--format", "json"])
            print(json.dumps([code, before, {ORACLE_MODULES}]))
        """)
        assert json.loads(out) == [0, [False, False], [True, True]]

    def test_import_loads_no_dataclasses(self):
        out = run_python("""
            import json, sys
            import lenstau, lenstau.cli
            print(json.dumps([m in sys.modules
                              for m in ("dataclasses", "inspect")]))
        """)
        assert json.loads(out) == [False, False]

    def test_package_names(self):
        out = run_python(f"""
            import json, sys
            import lenstau
            listed = set(lenstau.__all__) <= set(dir(lenstau))
            try:
                lenstau.no_such_name
                missing = "no AttributeError"
            except AttributeError:
                missing = "AttributeError"
            before = {ORACLE_MODULES}
            namespace = {{}}
            exec("from lenstau import *", namespace)
            unbound = sorted(set(lenstau.__all__) - set(namespace))
            same = lenstau.verify is lenstau.rt_oracle.verify
            print(json.dumps([listed, missing, before, unbound, same]))
        """)
        assert json.loads(out) == [True, "AttributeError", [False, False],
                                   [], True]

    def test_oracle_names_follow_rt_oracle(self, monkeypatch):
        monkeypatch.setattr(rt_oracle, "verify", lambda *args: None)
        assert lenstau.verify is rt_oracle.verify
