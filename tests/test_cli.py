import contextlib
import io
import json
import os
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import primspec
from primspec import kl_classical
from primspec.cli import main
from primspec.weights import SuperWeight


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInclusion:
    def test_worked_subset(self, capsys):
        code, out, _ = run(
            capsys, "inclusion", "--weights", "1,2,3,3|3", "2,3,1,2|2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["relation"] == "subset"
        assert doc["p"] == 1
        assert doc["gamma"] == "1,3,0,2|3"

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "inclusion", "--weights", "1,0|0,1", "1,0|0,1")
        assert code == 0
        assert json.loads(out)["relation"] == "equal"

    def test_incomparable(self, capsys):
        code, out, _ = run(capsys, "inclusion", "--weights", "1,1|1,1", "0,0|0,0")
        assert code == 0
        assert json.loads(out)["relation"] == "incomparable"

    def test_unsupported_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "inclusion", "--weights", "2,1,0|0,1,2", "3,2,1|1,2,3"
        )
        assert code == 2
        assert json.loads(out)["relation"] == "unsupported"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "inclusion", "--weights", "junk", "1,0|1")
        assert code == 1
        assert "error" in err

    def test_empty_label_is_refused(self, capsys):
        code, out, err = run(capsys, "inclusion", "--weights", "1,,2|3", "2,1|3")
        assert code == 1 and out == ""
        assert err == "error: empty label in '1,,2|3'\n"

    def test_rank_validation_flags(self, capsys):
        code, _, err = run(
            capsys, "inclusion", "--weights", "1,0|1", "1,1|1", "--m", "3"
        )
        assert code == 1 and "--m" in err
        code, _, _ = run(
            capsys, "inclusion", "--weights", "1,0|1", "1,1|1", "--m", "2", "--n", "1"
        )
        assert code == 0
        code, out, err = run(capsys, "inclusion", "--weights", "1,0|1", "1,1|1", "--n", "2")
        assert code == 1 and out == ""
        assert err == "error: 1,0|1 has 1 right labels, --n says 2\n"


class TestAugPoset:
    def test_json_counts(self, capsys):
        code, out, _ = run(capsys, "aug-poset", "--m", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["classes"]) == 3

    def test_dot_output_byte_stable(self, capsys):
        code, first, _ = run(capsys, "aug-poset", "--m", "3", "--format", "dot")
        assert code == 0
        code, second, _ = run(capsys, "aug-poset", "--m", "3", "--format", "dot")
        assert first == second
        assert first.count("--") == 10
        assert '"2,1,1|1 = 1,2,1|1"' in first

    def test_bound_error(self, capsys):
        code, _, err = run(capsys, "aug-poset", "--m", "9")
        assert code == 1
        assert "bound" in err

    def test_kl_bound_flag_is_honored(self, capsys):
        code, _, err = run(capsys, "--kl-bound", "2", "aug-poset", "--m", "3")
        assert code == 1
        assert "2" in err

    def test_rank_zero_refused(self, capsys):
        code, out, err = run(capsys, "aug-poset", "--m", "0")
        assert code == 1 and out == ""
        assert "error" in err and "m >= 1" in err

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "poset.json"
        code, out, _ = run(
            capsys, "aug-poset", "--m", "2", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert len(json.loads(target.read_text())["classes"]) == 3

    def test_unwritable_out_names_the_flag_and_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "poset.json"
        code, out, err = run(capsys, "aug-poset", "--m", "2", "--out", str(target))
        assert code == 1 and out == ""
        assert err == f"error: --out {str(target)!r}: cannot write: No such file or directory\n"


class TestCrystal:
    def test_raising(self, capsys):
        code, out, _ = run(
            capsys, "crystal", "--weight", "1,0|0,1", "--op", "e", "--i", "1"
        )
        assert code == 0
        assert json.loads(out)["result"] == "1,0|0,2"

    def test_statistic(self, capsys):
        code, out, _ = run(
            capsys, "crystal", "--weight", "1,0|0,1", "--op", "eps", "--i", "0"
        )
        assert json.loads(out)["result"] == 0

    def test_undefined_operator_is_null(self, capsys):
        code, out, _ = run(
            capsys, "crystal", "--weight", "1,0|0,1", "--op", "e", "--i", "7"
        )
        assert code == 0
        assert json.loads(out)["result"] is None


class TestKl:
    def test_table_and_pair(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache-dir", str(tmp_path), "kl", "--m", "4",
            "--pair", "1,3,2,4;3,4,1,2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pair"]["polynomial"] == [[0, 1], [1, 1]]
        assert doc["pair"]["mu"] == 1
        assert kl_classical.cache_file(4, tmp_path).exists()

    def test_nonpositive_bound_refused(self, capsys):
        code, out, err = run(capsys, "--kl-bound", "0", "kl", "--m", "3")
        assert code == 1 and out == ""
        assert "bounds must be positive" in err
        assert err.startswith("error: --kl-bound 0:")

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_rank_below_one_refused(self, capsys, tmp_path, m):
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "kl", "--m", m)
        assert code == 1 and out == ""
        assert f"m >= 1, got {m}" in err
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_defaults_to_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PRIMSPEC_CACHE", str(tmp_path))
        code, out, _ = run(capsys, "kl", "--m", "3")
        assert code == 0
        assert json.loads(out)["cache_file"] == str(kl_classical.cache_file(3, tmp_path))

    def test_pair_word_not_a_permutation(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "kl", "--m", "4",
            "--pair", "1,2,3;1,2,3,4",
        )
        assert code == 1 and out == ""
        assert "permutation of 1..4" in err

    def test_pair_with_a_huge_rank_is_refused(self, capsys, tmp_path):
        # the word is checked against its own length, not a range of --m
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "kl", "--m", "99999999999999999999",
            "--pair", "1,2;2,1",
        )
        assert code == 1 and out == ""
        assert err == (
            "error: --pair word '1,2' is not a permutation of 1..99999999999999999999\n"
        )

    @pytest.mark.parametrize("pair", ["1,2", "1,2;2,1;1,2"])
    def test_pair_without_one_separator(self, capsys, tmp_path, pair):
        # refused before any table is built, so nothing is cached
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "kl", "--m", "2", "--pair", pair
        )
        assert code == 1 and out == ""
        assert "--pair" in err and "x1,..,xm;y1,..,ym" in err
        assert list(tmp_path.iterdir()) == []

    def test_pair_not_integers_names_the_flag(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "kl", "--m", "2", "--pair", "a,b;1,2"
        )
        assert code == 1 and out == ""
        assert err == "error: --pair 'a,b': 'a' is not an integer\n"
        assert list(tmp_path.iterdir()) == []

    def _corrupt_cache_run(self, capsys, tmp_path, text=None):
        path = kl_classical.cache_file(3, tmp_path)
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "kl", "--m", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(path) in err
        return err

    def test_cache_file_not_json(self, capsys, tmp_path):
        self._corrupt_cache_run(capsys, tmp_path, "not a cache file\n")

    def test_cache_file_names_unknown_permutation(self, capsys, tmp_path):
        line = "[[1, 2, 9], [2, 1, 3], [[0, 1]]]\n"
        header = json.dumps({"count": 1, "crc32": zlib.crc32(line.encode()),
                             "format": "primspec-kl", "m": 3, "version": 2}, sort_keys=True)
        err = self._corrupt_cache_run(capsys, tmp_path, f"{header}\n{line}")
        assert "KeyError" in err

    def test_unreadable_cache_path_is_named(self, capsys, tmp_path):
        # a directory where the cache file should be
        err = self._corrupt_cache_run(capsys, tmp_path)
        assert "cannot be read" in err


class TestSuperKl:
    def test_block_dump(self, capsys):
        code, out, _ = run(
            capsys, "super-kl", "--weights", "1,0|0,1", "--interval=-1:3"
        )
        assert code == 0
        doc = json.loads(out)
        assert ["1,1|1,1", "1,0|0,1"] in doc["order"]

    @pytest.mark.parametrize(
        "interval, message",
        [
            ("a:3", "--interval 'a:3': 'a' is not an integer"),
            ("3", "--interval '3' is not lo:hi with lo <= hi"),
            ("3:-1", "--interval '3:-1' is not lo:hi with lo <= hi"),
        ],
    )
    def test_bad_interval_names_the_flag(self, capsys, interval, message):
        code, out, err = run(
            capsys, "super-kl", "--weights", "1,0|0,1", f"--interval={interval}"
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_rank_bound_reaches_the_table(self, capsys):
        # a gl(5|1) block: refused at the default m+n <= 5, built at 6
        block = ("super-kl", "--weights", "1,0,0,0,0|0", "--interval=0:1")
        code, out, err = run(capsys, *block)
        assert code == 1 and out == ""
        assert err == "error: tensor factor count 6 exceeds the configured bound 5\n"
        code, out, _ = run(capsys, *block, "--rank-bound", "6")
        assert code == 0
        assert len(json.loads(out)["weights"]) == 15

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_nonpositive_rank_bound_names_the_flag(self, capsys, bound):
        code, out, err = run(capsys, "super-kl", "--weights", "1,0|0,1", "--rank-bound", bound)
        assert code == 1 and out == ""
        assert err == f"error: --rank-bound {bound}: bounds must be positive\n"

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_nonpositive_interval_bound_names_the_flag(self, capsys, bound):
        args = ("super-kl", "--weights", "1,0|0,1", "--interval-bound", bound)
        code, out, err = run(capsys, *args)
        assert code == 1 and out == ""
        assert err == f"error: --interval-bound {bound}: bounds must be positive\n"


class TestCounts:
    def test_range(self, capsys):
        code, out, _ = run(capsys, "counts", "--m", "1..6", "--no-enumerate")
        doc = json.loads(out)
        assert [row["t"] for row in doc["counts"]] == [1, 3, 8, 25, 78, 266]

    def test_enumerated_agrees(self, capsys):
        code, out, _ = run(capsys, "counts", "--m", "3")
        row = json.loads(out)["counts"][0]
        assert row["enumerated"] == row["t"] == 8

    def test_range_not_integers_names_the_flag(self, capsys):
        code, out, err = run(capsys, "counts", "--m", "1..x")
        assert code == 1 and out == ""
        assert err == "error: --m '1..x': 'x' is not an integer\n"

    def test_range_with_two_separators_is_refused(self, capsys):
        code, out, err = run(capsys, "counts", "--m", "1..2..3")
        assert code == 1 and out == ""
        assert err == "error: --m '1..2..3' is not a rank or a range like 1..6\n"

    def test_reversed_range_refused(self, capsys):
        code, out, err = run(capsys, "counts", "--m", "3..1")
        assert code == 1 and out == ""
        assert "3..1" in err

    @pytest.mark.parametrize("ranks", ["-1..2", "-1"])
    def test_negative_rank_names_the_flag(self, capsys, ranks):
        code, out, err = run(capsys, "counts", f"--m={ranks}")
        assert code == 1 and out == ""
        assert err == f"error: --m {ranks!r}: ranks must be nonnegative\n"

    def test_the_last_rank_that_prints_everywhere_is_accepted(self, capsys):
        # t at rank 2832 has 4,300 digits, the int-to-str limit of Python 3.11+
        code, out, _ = run(capsys, "counts", "--m", "2832")
        assert code == 0
        (row,) = json.loads(out)["counts"]
        assert row["m"] == 2832 and len(str(row["t"])) == 4300

    @pytest.mark.parametrize("ranks", ["2833", "99999999999999999999", "1..2833"])
    def test_a_rank_above_the_limit_names_the_flag(self, capsys, ranks):
        # refused before any row is computed, so a huge rank does not hang
        started = time.perf_counter()
        code, out, err = run(capsys, "counts", "--m", ranks)
        assert time.perf_counter() - started < 0.5
        assert code == 1 and out == ""
        assert err == f"error: --m {ranks!r}: ranks above 2832 are refused\n"

    def test_rank_zero_keeps_its_output(self, capsys):
        code, out, _ = run(capsys, "counts", "--m", "0", "--no-enumerate")
        assert code == 0
        assert json.loads(out) == {"counts": [{"m": 0, "s": 1, "t": 0}]}

    def test_range_from_zero_enumerates_the_rest(self, capsys):
        code, out, _ = run(capsys, "counts", "--m", "0..2")
        assert code == 0
        zero, *rows = json.loads(out)["counts"]
        assert zero == {"m": 0, "s": 1, "t": 0}
        assert [(row["m"], row["enumerated"]) for row in rows] == [(1, 1), (2, 3)]

    def test_ranks_above_the_bound_carry_only_the_formula(self, capsys):
        code, out, _ = run(capsys, "--kl-bound", "3", "counts", "--m", "3..4")
        assert code == 0
        three, four = json.loads(out)["counts"]
        assert three["enumerated"] == three["t"] == 8
        assert four == {"m": 4, "s": 10, "t": 25}


class TestComponents:
    def test_m3(self, capsys):
        code, out, _ = run(capsys, "components", "--m", "3")
        doc = json.loads(out)
        assert len(doc["components"]) == 3
        assert all(
            c["order_isomorphic_to_regular_stratum"] for c in doc["components"]
        )

    def test_rank_zero_refused(self, capsys):
        code, out, err = run(capsys, "components", "--m", "0")
        assert code == 1 and out == ""
        assert "m >= 1" in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [("kl", "--m", "x"), ("inclusion", "--weights", "1|1"), ("no-such-command",)],
    )
    def test_usage_errors_exit_1(self, capsys, argv):
        # exit 2 is reserved for the undecidable regime
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == "" and "usage:" in captured.err

    @pytest.mark.parametrize("argv", [("--help",), ("kl", "--help")])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # the reader of stdout is gone before the first write
        src = str(Path(primspec.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "primspec.cli", "inclusion",
                 "--weights", "1,2,3,3|3", "2,3,1,2|2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": path}, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys):
        args = ("inclusion", "--weights", "1,2,3,3|3", "2,3,1,2|2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


_INTS = ["0", "1", "2", "3", "-1", "+2", " 3", "", "x", "99999999999999999999",
         "-99999999999999999999"]
_SMALL_INTS = [i for i in _INTS if len(i) < 20]
_LABELS = ["0", "1", "2", "-1", "+1", " 2", "", "1.0", "99999999999999999999"]


@st.composite
def _weight_text(draw):
    """A weight with at most two labels a side, separators and labels
    drawn near a well-formed one."""
    side = st.lists(st.sampled_from(_LABELS), max_size=2)
    sep = st.sampled_from([",", ",", ",,", ", ", ";"])
    bar = st.sampled_from(["|", "|", "||", "", " | "])
    return draw(sep).join(draw(side)) + draw(bar) + draw(sep).join(draw(side))


def _pair(sep, ints):
    return st.builds(lambda a, s, b: a + s + b, ints, sep, ints)


_INT = st.sampled_from(_INTS)
_WEIGHT = _weight_text()
# a raised --interval-bound is a request for that much work, so it stays small
_COMMANDS = {
    "inclusion": [("--weights", st.tuples(_WEIGHT, _WEIGHT)), ("--m", _INT), ("--n", _INT)],
    "aug-poset": [("--m", _INT), ("--format", st.sampled_from(["json", "dot", "svg"]))],
    "crystal": [
        ("--weight", _WEIGHT),
        ("--op", st.sampled_from(["e", "f", "eps", "phi", "signature", "g"])),
        ("--i", _INT),
    ],
    "kl": [("--m", _INT), ("--pair", _pair(st.sampled_from([";", ";;", ","]),
                                           st.sampled_from(["1,2", "2,1", "1,,2", "1", ""])))],
    "super-kl": [
        ("--weights", st.lists(_WEIGHT, min_size=1, max_size=2).map(tuple)),
        ("--interval", _pair(st.sampled_from([":", "::", ".."]), st.sampled_from(_INTS))),
        ("--rank-bound", _INT),
        ("--interval-bound", st.sampled_from(_SMALL_INTS)),
    ],
    "counts": [
        ("--m", st.one_of(_INT, _pair(st.sampled_from(["..", "...", ".", ":"]), _INT))),
        ("--no-enumerate", st.just(())),
    ],
    "components": [("--m", _INT)],
}


@st.composite
def _near_miss_argv(draw):
    """argv for one subcommand: each flag kept or dropped, and the last one
    perhaps cut short of its value."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv, weights = [command], []
    for flag, values in _COMMANDS[command]:
        if draw(st.booleans()):
            value = draw(values)
            value = value if isinstance(value, tuple) else (value,)
            argv += [flag, *value]
            if "weight" in flag:
                weights += value
    if len(argv) > 1 and draw(st.integers(0, 4)) == 0:
        argv.pop()
    return argv, weights


class TestNearMissArgv:
    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_near_miss_argv())
    def test_exit_codes_and_error_lines(self, drawn):
        argv, weights = drawn
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert sum("error:" in line for line in lines) == 1, (argv, lines)
            assert "Traceback" not in err.getvalue()
        for text in weights:
            try:
                w = SuperWeight.parse(text)
            except ValueError:
                continue
            assert SuperWeight.parse(str(w)) == w
