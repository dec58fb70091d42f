import json

from primspec.cli import main


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

    def test_rank_validation_flags(self, capsys):
        code, _, err = run(
            capsys, "inclusion", "--weights", "1,0|1", "1,1|1", "--m", "3"
        )
        assert code == 1 and "--m" in err
        code, _, _ = run(
            capsys, "inclusion", "--weights", "1,0|1", "1,1|1", "--m", "2", "--n", "1"
        )
        assert code == 0


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
        assert (tmp_path / "kl_m4.jsonl").exists()

    def test_pair_word_not_a_permutation(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "kl", "--m", "4",
            "--pair", "1,2,3;1,2,3,4",
        )
        assert code == 1 and out == ""
        assert "permutation of 1..4" in err


class TestSuperKl:
    def test_block_dump(self, capsys):
        code, out, _ = run(
            capsys, "super-kl", "--weights", "1,0|0,1", "--interval=-1:3"
        )
        assert code == 0
        doc = json.loads(out)
        assert ["1,1|1,1", "1,0|0,1"] in doc["order"]


class TestCounts:
    def test_range(self, capsys):
        code, out, _ = run(capsys, "counts", "--m", "1..6", "--no-enumerate")
        doc = json.loads(out)
        assert [row["t"] for row in doc["counts"]] == [1, 3, 8, 25, 78, 266]

    def test_enumerated_agrees(self, capsys):
        code, out, _ = run(capsys, "counts", "--m", "3")
        row = json.loads(out)["counts"][0]
        assert row["enumerated"] == row["t"] == 8


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


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys):
        args = ("inclusion", "--weights", "1,2,3,3|3", "2,3,1,2|2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
