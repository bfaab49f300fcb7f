import json
import os
import random
import re
from pathlib import Path

import pytest

import incdepth
from incdepth import (InclusionMatrix, MatrixParseError, fixture_path,
                      parse_int_matrix, parse_matrix, render_matrix)
from incdepth.cli import main

from _oracles import random_inclusion

S3S4 = InclusionMatrix([[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]])


def _subprocess_env() -> dict[str, str]:
    """Environment whose PYTHONPATH starts with the directory holding the
    imported incdepth, so a child process imports the code under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(incdepth.__file__).parent.parent),
                      env.get("PYTHONPATH")]))
    return env


class TestParse:
    def test_s3s4_text(self):
        m = parse_matrix("3 5\n1 1 0 0 0\n0 1 1 1 0\n0 0 0 1 1\n")
        assert m == S3S4

    def test_one_by_one(self):
        assert parse_matrix("1 1\n1\n") == InclusionMatrix([[1]])

    def test_comments_and_blanks_ignored(self):
        text = "# generated\n\n2 2\n# row one\n1 0\n\n0 1\n"
        assert parse_matrix(text) == InclusionMatrix([[1, 0], [0, 1]])

    def test_missing_trailing_newline(self):
        assert parse_matrix("1 2\n1 1") == InclusionMatrix([[1, 1]])

    def test_zero_row_names_line(self):
        with pytest.raises(MatrixParseError, match="line 3: zero row 2"):
            parse_matrix("2 2\n1 0\n0 0\n")

    def test_zero_column(self):
        with pytest.raises(MatrixParseError, match="zero column 2"):
            parse_matrix("2 2\n1 0\n1 0\n")

    def test_malformed_header(self):
        with pytest.raises(MatrixParseError, match="line 1: malformed header"):
            parse_matrix("3\n1 1 1\n")
        with pytest.raises(MatrixParseError, match="malformed header"):
            parse_matrix("a b\n")

    def test_wrong_row_length(self):
        with pytest.raises(MatrixParseError,
                           match="line 2: row 1 has 2 entries, expected 3"):
            parse_matrix("1 3\n1 1\n")

    def test_negative_entry_names_cell(self):
        with pytest.raises(MatrixParseError,
                           match=r"line 2: negative entry -2 at \(1,2\)"):
            parse_matrix("1 2\n1 -2\n")

    def test_non_integer_entry(self):
        with pytest.raises(MatrixParseError, match=r"\(2,1\)"):
            parse_matrix("2 1\n1\nx\n")

    def test_truncated(self):
        with pytest.raises(MatrixParseError, match="expected 3 rows, found 1"):
            parse_matrix("3 1\n1\n")

    def test_trailing_garbage(self):
        with pytest.raises(MatrixParseError, match="line 3: unexpected content"):
            parse_matrix("1 1\n1\n1\n")

    def test_int_matrix_skips_inclusion_checks(self):
        m = parse_int_matrix("2 2\n1 0\n0 0\n")
        assert m.entries == ((1, 0), (0, 0))


class TestRenderRoundTrip:
    def test_fixtures(self):
        for name in ("s3s4.mat", "c2m2.mat", "h8_mmt.mat"):
            text = fixture_path(name).read_text()
            m = parse_int_matrix(text)
            assert render_matrix(m) == text

    def test_random_round_trip(self):
        rng = random.Random(18)
        for _ in range(50):
            m = random_inclusion(rng, max_dim=6)
            assert parse_matrix(render_matrix(m)) == m


class TestComputeCommand:
    def test_s3s4(self, capsys):
        assert main(["compute", "--matrix", str(fixture_path("s3s4.mat"))]) == 0
        out = capsys.readouterr().out
        assert "depth: 5" in out
        assert "h_depth: 7" in out
        assert "depth_transpose: 6" in out

    def test_c2m2_json(self, capsys):
        assert main(["compute", "--json",
                     "--matrix", str(fixture_path("c2m2.mat"))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["depth"] == 2
        assert rep["h_depth"] == 1
        assert rep["q_witness"] == 2

    def test_json_key_order(self, capsys):
        assert main(["compute", "--json",
                     "--matrix", str(fixture_path("s3s4.mat"))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert list(rep) == ["rows", "cols", "depth", "depth_transpose",
                             "h_depth", "min_odd_depth", "min_even_depth",
                             "q_witness", "spectral_bound", "methods_agree"]

    def test_json_byte_stable(self, capsys):
        argv = ["compute", "--json", "--matrix", str(fixture_path("s3s4.mat"))]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_transpose_flag(self, capsys):
        assert main(["compute", "--transpose", "--json",
                     "--matrix", str(fixture_path("s3s4.mat"))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["rows"] == 5 and rep["cols"] == 3
        assert rep["depth"] == 6 and rep["depth_transpose"] == 5

    def test_symmetric_odd(self, capsys):
        assert main(["compute", "--symmetric-odd",
                     "--matrix", str(fixture_path("h8_mmt.mat"))]) == 0
        assert "min_odd_depth: 3" in capsys.readouterr().out

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n1\n1\n"))
        assert main(["compute", "--matrix", "-"]) == 0
        assert "depth: 2" in capsys.readouterr().out

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 0\n0 0\n")
        assert main(["compute", "--matrix", str(bad)]) == 2
        assert "zero row 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["compute", "--matrix", "/nonexistent.mat"]) == 2
        assert "error" in capsys.readouterr().err

    def test_internal_failure_exits_3(self, capsys, monkeypatch):
        import incdepth.cli as cli_mod

        def boom(_):
            raise AssertionError("forced invariant breach")

        monkeypatch.setattr(cli_mod, "depth_report", boom)
        assert main(["compute", "--matrix", str(fixture_path("s3s4.mat"))]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "incdepth.cli", "compute",
             "--matrix", str(fixture_path("c2m2.mat"))],
            capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 0
        assert "depth: 2" in proc.stdout

    def test_invariant_checks_survive_optimize_flag(self):
        # python -O strips assert statements; the report's checks must stay.
        import subprocess
        import sys
        script = (
            "import sys\n"
            "import incdepth.depth\n"
            "from incdepth import fixture_path\n"
            "from incdepth.cli import main\n"
            "incdepth.depth.has_depth = lambda m, n: None\n"
            "sys.exit(main(['compute', '--matrix', str(fixture_path('s3s4.mat'))]))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True,
                              env=_subprocess_env())
        assert proc.returncode == 3
        assert "internal error: no dominance witness" in proc.stderr


class TestGraphCommand:
    def test_s3s4(self, capsys):
        assert main(["graph", "--matrix", str(fixture_path("s3s4.mat"))]) == 0
        out = capsys.readouterr().out
        assert "min_odd_depth: 5" in out
        assert "min_even_depth: 6" in out
        assert "h_depth: 7" in out

    def test_identity(self, tmp_path, capsys):
        path = tmp_path / "i2.mat"
        path.write_text("2 2\n1 0\n0 1\n")
        assert main(["graph", "--matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert "min_odd_depth: 1" in out
        assert "min_even_depth: 2" in out

    def test_column_pair_json(self, capsys):
        assert main(["graph", "--json",
                     "--matrix", str(fixture_path("c2m2.mat"))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["min_odd_depth"], rep["min_even_depth"], rep["h_depth"]) \
            == (3, 2, 1)

    def test_dot_export(self, tmp_path, capsys):
        out_file = tmp_path / "graph.dot"
        assert main(["graph", "--matrix", str(fixture_path("s3s4.mat")),
                     "--dot", str(out_file)]) == 0
        capsys.readouterr()
        dot = out_file.read_text()
        assert dot.count("--") == 7
        assert "b1 -- w1;" in dot

    def test_dot_stdout(self, capsys):
        assert main(["graph", "--matrix", str(fixture_path("c2m2.mat")),
                     "--dot", "-"]) == 0
        out = capsys.readouterr().out
        assert "b2 -- w1;" in out


class TestSymCommand:
    def test_n4_matches_fixture_bytes(self, capsys):
        assert main(["sym", "--n", "4"]) == 0
        assert capsys.readouterr().out == fixture_path("s3s4.mat").read_text()

    def test_n2(self, capsys):
        assert main(["sym", "--n", "2"]) == 0
        assert capsys.readouterr().out == "1 2\n1 1\n"

    def test_n5_k3_row_sums(self, capsys):
        assert main(["sym", "--n", "5", "--k", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "3 7"
        sums = [sum(int(t) for t in line.split()) for line in lines[1:]]
        assert sums == [5, 8, 5]

    def test_k_not_below_n_exits_2(self, capsys):
        assert main(["sym", "--n", "4", "--k", "4"]) == 2
        assert main(["sym", "--n", "4", "--k", "5"]) == 2
        capsys.readouterr()

    def test_n_below_2_exits_2(self, capsys):
        assert main(["sym", "--n", "1"]) == 2
        capsys.readouterr()

    def test_json(self, capsys):
        assert main(["sym", "--json", "--n", "4"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["rows"] == 3 and rep["cols"] == 5
        assert rep["entries"][0] == [1, 1, 0, 0, 0]

    def test_output_reparses(self, capsys):
        for n in range(2, 7):
            assert main(["sym", "--n", str(n)]) == 0
            text = capsys.readouterr().out
            parse_matrix(text)


class TestCheckCommand:
    def test_s3s4_all_pass(self, capsys):
        assert main(["check", "--matrix", str(fixture_path("s3s4.mat"))]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 6

    def test_c2m2_all_pass(self, capsys):
        assert main(["check", "--matrix", str(fixture_path("c2m2.mat"))]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_random_all_pass(self, tmp_path, capsys):
        rng = random.Random(19)
        for i in range(10):
            m = random_inclusion(rng, max_dim=5)
            path = tmp_path / f"m{i}.mat"
            path.write_text(render_matrix(m))
            assert main(["check", "--matrix", str(path)]) == 0
        capsys.readouterr()

    def test_json(self, capsys):
        assert main(["check", "--json",
                     "--matrix", str(fixture_path("s3s4.mat"))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["all_pass"] is True
        assert len(rep["checks"]) == 6


README = Path(__file__).resolve().parent.parent / "README.md"

S3S4_TEXT = """\
rows: 3
cols: 5
depth: 5
depth_transpose: 6
h_depth: 7
min_odd_depth: 5
min_even_depth: 6
q_witness: 7
spectral_bound: 5
methods_agree: graph_depth=yes graph_hdepth=yes transpose_parity=yes
"""

S3S4_GRAPH = """\
rows: 3
cols: 5
min_odd_depth: 5
min_even_depth: 6
h_depth: 7
"""

S3S4_CHECK = """\
PASS  |d - d_H| <= 2             (d=5 d_H=7)
PASS  |d(Mt) - d(M)| <= 1        (d(Mt)=6 d=5)
PASS  0 <= d_H - d(Mt) <= 1      (d_H=7 d(Mt)=6)
PASS  d <= spectral bound        (d=5 bound=5)
PASS  d_H is odd                 (d_H=7)
PASS  graph agrees with matrix   (graph_depth=yes graph_hdepth=yes transpose_parity=yes)
"""

S3S4_CHECK_JSON = """\
{
  "checks": [
    {
      "name": "|d - d_H| <= 2",
      "passed": true,
      "detail": "d=5 d_H=7"
    },
    {
      "name": "|d(Mt) - d(M)| <= 1",
      "passed": true,
      "detail": "d(Mt)=6 d=5"
    },
    {
      "name": "0 <= d_H - d(Mt) <= 1",
      "passed": true,
      "detail": "d_H=7 d(Mt)=6"
    },
    {
      "name": "d <= spectral bound",
      "passed": true,
      "detail": "d=5 bound=5"
    },
    {
      "name": "d_H is odd",
      "passed": true,
      "detail": "d_H=7"
    },
    {
      "name": "graph agrees with matrix",
      "passed": true,
      "detail": "graph_depth=yes graph_hdepth=yes transpose_parity=yes"
    }
  ],
  "all_pass": true
}
"""


def _readme_json_report() -> str:
    section = README.read_text().split("### JSON report", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("argv, fixture, expected", [
    (["compute"], "s3s4.mat", S3S4_TEXT),
    (["compute", "--json"], "s3s4.mat", _readme_json_report()),
    (["graph"], "s3s4.mat", S3S4_GRAPH),
    (["check"], "s3s4.mat", S3S4_CHECK),
    (["check", "--json"], "s3s4.mat", S3S4_CHECK_JSON),
    (["compute", "--symmetric-odd"], "h8_mmt.mat", "min_odd_depth: 3\n"),
])
def test_stdout_bytes(argv, fixture, expected, capsys):
    assert main(argv + ["--matrix", str(fixture_path(fixture))]) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert err == ""


def test_disagreement_flag_bytes(capsys, monkeypatch):
    import dataclasses

    import incdepth.cli as cli_mod

    real = cli_mod.depth_report

    def parity_off(m):
        rep = real(m)
        return dataclasses.replace(
            rep, methods_agree={**rep.methods_agree, "transpose_parity": False})

    monkeypatch.setattr(cli_mod, "depth_report", parity_off)
    path = str(fixture_path("s3s4.mat"))
    flags = "graph_depth=yes graph_hdepth=yes transpose_parity=NO"
    assert main(["compute", "--matrix", path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"methods_agree: {flags}"
    assert main(["check", "--matrix", path]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"FAIL  graph agrees with matrix   ({flags})"


@pytest.mark.parametrize("text, message", [
    ("", "empty input: expected a 'rows cols' header"),
    ("# only a comment\n\n", "empty input: expected a 'rows cols' header"),
    ("3\n1 1 1\n", "line 1: malformed header, expected 'rows cols'"),
    ("a b\n", "line 1: malformed header, expected 'rows cols'"),
    ("1 2 3\n1 1\n", "line 1: malformed header, expected 'rows cols'"),
    ("# c\n2 x\n", "line 2: malformed header, expected 'rows cols'"),
    ("0 2\n", "line 1: header dimensions must be positive, got 0 2"),
    ("2 -1\n", "line 1: header dimensions must be positive, got 2 -1"),
    ("1 3\n1 1\n", "line 2: row 1 has 2 entries, expected 3"),
    ("2 1\n1\nx\n", "line 3: entry (2,1) is not an integer: 'x'"),
    ("1 2\n1 -2\n", "line 2: negative entry -2 at (1,2)"),
    ("3 1\n1\n", "unexpected end of input: expected 3 rows, found 1"),
    ("1 1\n1\n1\n", "line 3: unexpected content after 1 matrix rows"),
    ("1 1\n0\n", "line 2: zero row 1"),
    ("2 2\n1 0\n0 0\n", "line 3: zero row 2"),
    ("# c\n\n2 2\n0 0\n1 1\n", "line 4: zero row 1"),
    ("2 2\n0 0\n1 0\n", "line 2: zero row 1"),
    ("2 2\n1 0\n1 0\n", "zero column 2"),
    ("2 3\n# mid\n0 1 0\n\n1 1 0\n", "zero column 3"),
])
def test_parse_diagnostics(text, message):
    with pytest.raises(MatrixParseError) as info:
        parse_matrix(text)
    assert type(info.value) is MatrixParseError
    assert str(info.value) == message


def test_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.mat"
    bad.write_bytes(b"\xff\xfe1 1\n1\n")
    assert main(["compute", "--matrix", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: 'utf-8' codec can't decode")


def test_all_names_documented_in_readme():
    text = README.read_text()
    assert [name for name in incdepth.__all__
            if not re.search(rf"\b{name}\b", text)] == []
    assert all(hasattr(incdepth, name) for name in incdepth.__all__)
