import io
import json
import time

import pytest

from hibilab.cli import MAX_TRIALS, main

import golden


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def dot_counts(dot):
    nodes = sum(1 for ln in dot.splitlines() if ln.endswith('";') and "->" not in ln)
    edges = dot.count("->")
    return nodes, edges


class TestHasse:
    def test_l4(self, capsys):
        code, out, _ = run(capsys, "hasse", "L", "4")
        assert code == 0
        assert dot_counts(out) == (15, 19)
        assert '"[2]" -> "[2,4]";' in out

    def test_gt1_single_node(self, capsys):
        code, out, _ = run(capsys, "hasse", "GT", "1")
        assert code == 0
        assert '"z^(1)_1";' in out
        assert "->" not in out

    def test_gt_sub_grassmannian(self, capsys):
        code, out, _ = run(capsys, "hasse", "gt-sub", "G", "7", "3", "--policy", "drop")
        assert code == 0
        assert dot_counts(out) == (12, 17)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "l3.dot"
        code, out, _ = run(capsys, "hasse", "L", "3", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("digraph {")

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "hasse", "Q", "4")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_bounds(self, capsys):
        assert run(capsys, "hasse", "L", "40")[0] == 2
        assert run(capsys, "hasse", "L")[0] == 2
        assert run(capsys, "hasse", "B", "5", "3")[0] == 2

    @pytest.mark.parametrize("bounds", [
        ["P", "24"], ["B", "32", "16", "8"], ["G", "32", "16"], ["Lm", "20", "6"],
    ])
    def test_size_guard_fires_before_enumeration(self, capsys, bounds):
        start = time.perf_counter()
        code, out, err = run(capsys, "hasse", *bounds)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and "guard" in err and err.count("\n") == 1

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "hasse", "P", "6")
        _, second, _ = run(capsys, "hasse", "P", "6")
        assert first == second


class TestSubposet:
    def test_matches_hasse_gt_sub(self, capsys):
        _, via_sub, _ = run(capsys, "subposet", "B", "5", "3", "2")
        _, via_hasse, _ = run(capsys, "hasse", "gt-sub", "B", "5", "3", "2")
        assert via_sub == via_hasse
        assert dot_counts(via_sub) == (11, 14)


class TestConvert:
    def test_worked_pattern_to_tableau(self, capsys, tmp_path):
        path = write_json(tmp_path, "pattern.json", {
            "n": 4, "rows": [list(r) for r in golden.EX_PATTERN_ROWS],
        })
        code, out, _ = run(capsys, "convert", "--from", "gt", "--to", "ssyt", path)
        assert code == 0
        assert json.loads(out)["rows"] == [list(r) for r in golden.EX_TABLEAU_ROWS]

    def test_empty_tableau_to_zero_pattern(self, capsys, tmp_path):
        path = write_json(tmp_path, "empty.json", {"shape": [], "rows": []})
        code, out, _ = run(capsys, "convert", "--from", "ssyt", "--to", "gt",
                           "--n", "3", path)
        assert code == 0
        assert json.loads(out) == {"n": 3, "rows": [[0, 0, 0], [0, 0], [0]]}

    def test_round_trip_byte_identical(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", {
            "shape": [2, 1], "rows": [[1, 2], [2]],
        })
        _, as_gt, _ = run(capsys, "convert", "--from", "ssyt", "--to", "gt", path)
        back_path = tmp_path / "gt.json"
        back_path.write_text(as_gt)
        _, as_ssyt, _ = run(capsys, "convert", "--from", "gt", "--to", "ssyt",
                            str(back_path))
        norm_path = tmp_path / "norm.json"
        norm_path.write_text(as_ssyt)
        _, again, _ = run(capsys, "convert", "--from", "ssyt", "--to", "ssyt",
                          str(norm_path))
        assert again == as_ssyt

    def test_chain_conversions(self, capsys, tmp_path):
        path = write_json(tmp_path, "chain.json", {
            "n": 4, "columns": [[2, 3], [1, 2, 4], [4]],
        })
        code, out, _ = run(capsys, "convert", "--from", "chain", "--to", "ssyt", path)
        assert code == 0
        assert json.loads(out)["shape"] == [3, 2, 1]

    def test_invalid_tableau_is_exit_3(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json", {"rows": [[2, 1]]})
        code, _, err = run(capsys, "convert", "--from", "ssyt", "--to", "gt", path)
        assert code == 3
        assert "weakly increase" in err

    def test_non_interlacing_pattern_is_exit_3(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json", {"n": 2, "rows": [[1, 0], [2]]})
        code, _, err = run(capsys, "convert", "--from", "gt", "--to", "ssyt", path)
        assert code == 3
        assert "interlace" in err

    def test_non_multichain_is_exit_3(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json", {
            "n": 4, "columns": [[1, 4], [2, 3]],
        })
        code, _, err = run(capsys, "convert", "--from", "chain", "--to", "ssyt", path)
        assert code == 3
        assert "incomparable" in err


    @pytest.mark.parametrize("src,dst,text", [
        ("ssyt", "gt", "[1,2]"),
        ("gt", "ssyt", '{"n":3,"rows":5}'),
        ("gt", "ssyt", '{"n":3}'),
        ("ssyt", "gt", '{"shape":[1e400],"rows":[[1]]}'),
    ])
    def test_malformed_document_is_exit_3(self, capsys, monkeypatch, src, dst, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "convert", "--from", src, "--to", dst, "-")
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestDim:
    @pytest.mark.parametrize("shape,n,m,expected", [
        ("(2,1)", "3", None, "8"),
        ("(1,1,1)", "3", None, "1"),
        ("(1,1)", "4", "2", "6"),
    ])
    def test_examples(self, capsys, shape, n, m, expected):
        argv = ["dim", shape, n] + ([m] if m else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == expected

    def test_too_deep(self, capsys):
        assert run(capsys, "dim", "(1,1,1)", "2")[0] == 2

    def test_counts_without_enumerating(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "dim", "(3,3,3,3,3,3)", "12")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out == "24293412\n"


class TestEnumerate:
    def test_three_lines_in_lex_order(self, capsys):
        code, out, _ = run(capsys, "enumerate", "(1)", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        rows = [json.loads(line)["rows"] for line in lines]
        assert rows == sorted(rows)

    def test_output_guard_is_exit_2(self, capsys):
        code, out, err = run(capsys, "enumerate", "(4,4,4)", "10")
        assert code == 2 and out == ""
        assert err.startswith("error: 1557270 patterns") and err.count("\n") == 1


class TestStraighten:
    def test_hibi_mode(self, capsys):
        code, out, _ = run(capsys, "straighten", "--mode", "hibi",
                           "x[1,4]*x[2,3]", "4")
        assert code == 0
        assert out.strip() == "x[1,3]*x[2,4]"

    def test_hibi_standard_unchanged(self, capsys):
        code, out, _ = run(capsys, "straighten", "--mode", "hibi",
                           "x[1]*x[1,2]", "4")
        assert code == 0
        assert out.strip() == "x[1,2]*x[1]"

    def test_flag_mode(self, capsys):
        code, out, _ = run(capsys, "straighten", "--mode", "flag",
                           "d[1,4]*d[2,3]", "4", "2")
        assert code == 0
        assert out.strip() == "+1*D[[1,3]≤[2,4]] -1*D[[1,2]≤[3,4]]"

    def test_flag_standard_unchanged(self, capsys):
        code, out, _ = run(capsys, "straighten", "--mode", "flag",
                           "d[1,3]*d[2,4]", "4", "2")
        assert code == 0
        assert out.strip() == "+1*D[[1,3]≤[2,4]]"

    def test_parse_error(self, capsys):
        assert run(capsys, "straighten", "--mode", "flag", "nope", "4", "2")[0] == 2

    @pytest.mark.parametrize("argv", [
        ["--mode", "hibi", "x[1]", "3", "5"],
        ["--mode", "flag", "d[1]", "3", "5"],
        ["--mode", "flag", "d[1,2,3,4,5,6,7,8,9]", "9"],
    ])
    def test_bounds_are_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "straighten", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestSkew:
    def test_worked_example(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", {
            "rows": [list(r) for r in golden.SKEW_INPUT_ROWS],
        })
        code, out, _ = run(capsys, "skew", path, "--k", "4")
        assert code == 0
        data = json.loads(out)
        assert data["outer"] == [12, 10, 6, 4]
        assert data["inner"] == [8, 5, 3, 0]
        assert data["rows"][3] == [1, 1, 2, 4]

    def test_content_flag(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", {
            "rows": [list(r) for r in golden.SKEW_INPUT_ROWS],
        })
        code, out, _ = run(capsys, "skew", path, "--k", "4", "--n", "10", "--content")
        assert code == 0
        assert json.loads(out) == list(golden.SKEW_CONTENT_DERIVED)

    def test_invalid_input(self, capsys, tmp_path):
        path = write_json(tmp_path, "t.json", {"rows": [[1, 2]]})
        assert run(capsys, "skew", path, "--k", "3")[0] == 3


class TestCheck:
    def test_birkhoff_passes(self, capsys):
        code, out, _ = run(capsys, "check", "birkhoff", "--n", "4")
        assert code == 0
        assert out.startswith("PASS suite=birkhoff")
        assert "failures=0" in out

    def test_sagbi_passes(self, capsys):
        code, out, _ = run(capsys, "check", "sagbi", "--n", "4", "--m", "2")
        assert code == 0
        assert out.startswith("PASS suite=sagbi")

    def test_enumeration_guard_is_exit_2(self, capsys):
        code, out, err = run(capsys, "check", "birkhoff", "--n", "7")
        assert code == 2 and out == ""
        assert "guard" in err and err.count("\n") == 1

    @pytest.mark.parametrize("suite,trials", [
        ("hibi", -1), ("hibi", MAX_TRIALS + 1), ("distributivity", 10**12),
    ])
    def test_trials_guard_is_exit_2(self, capsys, suite, trials):
        code, out, err = run(capsys, "check", suite, "--trials", str(trials))
        assert code == 2 and out == ""
        assert err == f"error: trials must be in 0..{MAX_TRIALS}, got {trials}\n"

    def test_non_integer_node_guard_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("HIBILAB_MAX_NODES", "abc")
        code, out, err = run(capsys, "check", "birkhoff", "--n", "3")
        assert code == 2 and out == ""
        assert err == "error: HIBILAB_MAX_NODES must be an integer, got 'abc'\n"

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "check", "nothing")
        assert code == 2
        assert "unknown suite" in err

    def test_seeded_determinism(self, capsys):
        _, first, _ = run(capsys, "check", "hibi", "--n", "4", "--trials", "50",
                          "--seed", "7")
        _, second, _ = run(capsys, "check", "hibi", "--n", "4", "--trials", "50",
                           "--seed", "7")
        assert first == second
