import json
import os
import random
import re
import sys
from pathlib import Path

import pytest

import incdepth
from incdepth import (InclusionMatrix, MatrixParseError, fixture_path,
                      parse_int_matrix, parse_matrix, render_matrix, tower_matrix)
from incdepth import cli
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

    def test_negative_zero_is_zero(self):
        assert parse_matrix("2 2\n-00 1\n1 -0\n") == InclusionMatrix([[0, 1], [1, 0]])

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


    def test_line_ends_and_bom(self):
        # lines end at \r\n, \r and \n; one leading byte order mark is dropped
        want = InclusionMatrix([[1, 1, 0], [0, 1, 1]])
        for text in ("2 3\r\n# c\r\n1 1 0\r\n0 1 1\r\n", "2 3\r# c\r1 1 0\r0 1 1\r",
                     "\ufeff2 3\n1 1 0\n0 1 1\n", "\ufeff# c\r\n2 3\r1 1 0\n0 1 1"):
            assert parse_matrix(text) == want, text

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

    def test_bom_file(self, tmp_path, capsys):
        path = tmp_path / "bom.mat"
        path.write_bytes(b"\xef\xbb\xbf" + fixture_path("s3s4.mat").read_bytes())
        assert main(["compute", "--json", "--matrix", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["depth"] == 5

    def test_stdin_line_ends_and_bom(self):
        # the process's own stdin keeps a \r, which must still end a line
        import subprocess
        for data, code, out, err in (
                (b"2 3\n# note\xc2\x85\n1 x 1\n1 1 1\n", 2, b"",
                 b"error: line 3: entry (1,2) is not an integer: 'x'\n"),
                (b"2 2\n1 1\x0c1 1\n", 2, b"",
                 b"error: line 2: row 1 has 4 entries, expected 2\n"),
                (b"\xef\xbb\xbf2 1\r1\r\n1\r", 0, b"rows: 2\ncols: 1\ndepth: 2\n", b"")):
            proc = subprocess.run(
                [sys.executable, "-m", "incdepth", "compute", "--matrix", "-"],
                input=data, capture_output=True, env=_subprocess_env())
            assert proc.returncode == code, (data, proc.stderr)
            assert proc.stdout[:len(out)] == out and proc.stderr == err, data

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 0\n0 0\n")
        assert main(["compute", "--matrix", str(bad)]) == 2
        assert "zero row 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["compute", "--matrix", "/nonexistent.mat"]) == 2
        assert "error" in capsys.readouterr().err

    def test_internal_failure_exits_3(self, capsys, monkeypatch):
        _assert_internal_failure(capsys, monkeypatch)

    def test_module_entry_point(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "incdepth.cli", "compute",
             "--matrix", str(fixture_path("c2m2.mat"))],
            capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 0
        assert "depth: 2" in proc.stdout

    def test_package_entry_point_warns_nothing(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "incdepth", "compute",
             "--matrix", str(fixture_path("c2m2.mat"))],
            capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 0
        assert "depth: 2" in proc.stdout
        assert proc.stderr == ""

    def test_files_use_utf8_not_the_locale_encoding(self, tmp_path, capsys):
        # a matrix file read and a DOT file written with the locale's
        # default encoding each raise EncodingWarning under these flags
        import subprocess
        fixture = fixture_path("s3s4.mat")
        dot = tmp_path / "x.dot"
        for argv, stdin in ((["compute", "--matrix", str(fixture)], None),
                            (["graph", "--matrix", "-", "--dot", str(dot)],
                             fixture.read_bytes())):
            plain, strict = (subprocess.run(
                [sys.executable, *flags, "-m", "incdepth", *argv], input=stdin,
                capture_output=True, env=_subprocess_env())
                for flags in ([], ["-X", "warn_default_encoding", "-W", "error"]))
            assert (strict.returncode, strict.stderr) == (0, b""), strict.stderr
            assert strict.stdout == plain.stdout, argv
        # the DOT file holds the text that --dot - prints before the values
        assert main(["graph", "--matrix", str(fixture), "--dot", "-"]) == 0
        assert capsys.readouterr().out.startswith(dot.read_text(encoding="utf-8"))

    def test_invariant_checks_survive_optimize_flag(self):
        # python -O strips assert statements; the report's checks must stay:
        # a missing witness, a depth past the spectral bound, and on
        # S_12 <= S_18 a Krylov dimension above the k the count finds, each
        # exit 3
        import subprocess
        import sys
        tower = render_matrix(tower_matrix(12, 18))
        for patch, text, message in (
                ("incdepth.charpoly.least_q = lambda a, b: None", None,
                 "internal error: no dominance witness"),
                ("incdepth.charpoly.bound_and_witness = lambda m, d: (1, 7)", None,
                 "internal error: d <= spectral bound fails (d=5 bound=1)\n"),
                ("incdepth.charpoly.krylov_dim = lambda g, p: 13", tower,
                 "internal error: Krylov dimension 13 exceeds k = 12\n")):
            path = "'-'" if text else "str(fixture_path('s3s4.mat'))"
            script = (
                "import sys\n"
                "import incdepth.charpoly\n"
                "from incdepth import fixture_path\n"
                "from incdepth.cli import main\n"
                f"{patch}\n"
                f"sys.exit(main(['compute', '--matrix', {path}]))\n")
            proc = subprocess.run([sys.executable, "-O", "-c", script], input=text,
                                  capture_output=True, text=True,
                                  env=_subprocess_env())
            assert proc.returncode == 3, (patch, proc.stderr)
            assert message in proc.stderr, (patch, proc.stderr)


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

    def test_dot_into_missing_directory_exits_2(self, tmp_path, capsys):
        out_file = tmp_path / "nodir" / "x.dot"
        assert main(["graph", "--matrix", str(fixture_path("s3s4.mat")),
                     "--dot", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out_file}: ")
        assert "internal error" not in captured.err
        assert not out_file.parent.exists()

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

    def test_matrix_option_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sym", "--n", "4", "--matrix", "x"])
        assert info.value.code == 2
        assert "unrecognized arguments: --matrix x" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n", [4, 17])
    def test_closed_stdout_exits_2(self, n):
        # sym --n 4 fits the stdout buffer, so only main's flush meets the
        # closed pipe; sym --n 17 (about 137 KB) meets it while writing.
        # PYTHONUNBUFFERED is dropped so that stdout buffers as in a shell.
        import subprocess
        import sys
        env = _subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "incdepth", "sym", "--n", str(n)],
                                  stdout=write, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_reader_leaving_mid_write_exits_2(self, unbuffered):
        # as in sym --n 17 | head -c 1: the reader takes one byte and leaves
        # while sym's one write of about 137 KB waits on the full pipe, whose
        # 64 KB were taken. Under PYTHONUNBUFFERED=1 stdout's binary layer is
        # the raw file, whose write then returns that short count.
        import subprocess
        import sys
        env = _subprocess_env()
        env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen([sys.executable, "-m", "incdepth", "sym", "--n", "17"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert os.read(proc.stdout.fileno(), 1) == b"2"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


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
PASS  -2 <= d - d_H <= 1         (d=5 d_H=7)
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
      "name": "-2 <= d - d_H <= 1",
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


STDOUT_BYTES = [
    (["compute"], "s3s4.mat", S3S4_TEXT),
    (["compute", "--json"], "s3s4.mat", _readme_json_report()),
    (["graph"], "s3s4.mat", S3S4_GRAPH),
    (["check"], "s3s4.mat", S3S4_CHECK),
    (["check", "--json"], "s3s4.mat", S3S4_CHECK_JSON),
    (["compute", "--symmetric-odd"], "h8_mmt.mat", "min_odd_depth: 3\n"),
]


@pytest.mark.parametrize("argv, fixture, expected", STDOUT_BYTES)
def test_stdout_bytes(argv, fixture, expected, capsys):
    assert main(argv + ["--matrix", str(fixture_path(fixture))]) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert err == ""


def test_disagreement_flag_bytes(capsys, monkeypatch):
    _assert_disagreement_flags(capsys, monkeypatch)


def _assert_internal_failure(capsys, monkeypatch):
    def boom(_):
        raise AssertionError("forced invariant breach")

    monkeypatch.setattr(cli, "depth_report", boom)
    assert main(["compute", "--matrix", str(fixture_path("s3s4.mat"))]) == 3
    assert "internal error" in capsys.readouterr().err


def _assert_disagreement_flags(capsys, monkeypatch):
    import dataclasses

    real = cli.depth_report

    def parity_off(m):
        rep = real(m)
        return dataclasses.replace(
            rep, methods_agree={**rep.methods_agree, "transpose_parity": False})

    monkeypatch.setattr(cli, "depth_report", parity_off)
    path = str(fixture_path("s3s4.mat"))
    flags = "graph_depth=yes graph_hdepth=yes transpose_parity=NO"
    assert main(["compute", "--matrix", path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"methods_agree: {flags}"
    assert main(["check", "--matrix", path]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"FAIL  graph agrees with matrix   ({flags})"


PARSE_DIAGNOSTICS = [
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
    # cells are read left to right and the first bad one is named; -0 is 0
    ("1 2\n-1 x\n", "line 2: negative entry -1 at (1,1)"),
    ("1 2\nx -1\n", "line 2: entry (1,1) is not an integer: 'x'"),
    ("1 1\n-0\n", "line 2: zero row 1"),
    ("1 2\n1_0 3\n", "line 2: entry (1,1) is not an integer: '1_0'"),
    ("1 2\n1 +3\n", "line 2: entry (1,2) is not an integer: '+3'"),
    ("1 1\n\u0661\n", "line 2: entry (1,1) is not an integer: '\u0661'"),
    ("+1 2\n1 1\n", "line 1: malformed header, expected 'rows cols'"),
    ("1_0 2\n1 1\n", "line 1: malformed header, expected 'rows cols'"),
    ("3 1\n1\n", "unexpected end of input: expected 3 rows, found 1"),
    ("1 1\n1\n1\n", "line 3: unexpected content after 1 matrix rows"),
    ("1 1\n0\n", "line 2: zero row 1"),
    ("2 2\n1 0\n0 0\n", "line 3: zero row 2"),
    ("# c\n\n2 2\n0 0\n1 1\n", "line 4: zero row 1"),
    ("2 2\n0 0\n1 0\n", "line 2: zero row 1"),
    ("2 2\n1 0\n1 0\n", "zero column 2"),
    ("2 3\n# mid\n0 1 0\n\n1 1 0\n", "zero column 3"),
    # lines end at \r\n, \r and \n only, so the numbers are those of grep -n,
    # and another line break inside a line is whitespace
    ("2 3\r\n# c\r\n1 x 1\r\n1 1 1\r\n", "line 3: entry (1,2) is not an integer: 'x'"),
    ("2 3\r# c\r1 x 1\r1 1 1\r", "line 3: entry (1,2) is not an integer: 'x'"),
    ("2 3\n# c\x85\n1 x 1\n1 1 1\n", "line 3: entry (1,2) is not an integer: 'x'"),
    ("2 3\n# c\u2028\n1 x 1\n1 1 1\n", "line 3: entry (1,2) is not an integer: 'x'"),
    ("2 2\n1 1\x0c1 1\n", "line 2: row 1 has 4 entries, expected 2"),
    ("2 2\n1 1\x1e1 1\n", "line 2: row 1 has 4 entries, expected 2"),
    ("\ufeff\ufeff1 1\n1\n", "line 1: malformed header, expected 'rows cols'"),
]


@pytest.mark.parametrize("text, message", PARSE_DIAGNOSTICS)
def test_parse_diagnostics(text, message):
    with pytest.raises(MatrixParseError) as info:
        parse_matrix(text)
    assert type(info.value) is MatrixParseError
    assert str(info.value) == message


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter has no int-to-str limit")
def test_entry_past_the_digit_limit(tmp_path, capsys):
    # a decimal entry one digit past the interpreter's int-to-str limit is
    # named by its digit count, without the sign, on one short line; one at
    # the limit is read, and a header past it is still malformed
    limit = sys.get_int_max_str_digits()
    for sign in ("", "-"):
        with pytest.raises(MatrixParseError) as info:
            parse_matrix(f"1 2\n1 {sign}{'9' * (limit + 1)}\n")
        assert str(info.value) == (
            f"line 2: entry (1,2) has {limit + 1} digits, more than the limit of {limit}")
    assert parse_matrix(f"1 1\n{'9' * limit}\n").matrix.entries[0][0] % 10**9 == 10**9 - 1
    with pytest.raises(MatrixParseError, match=r"^line 1: malformed header"):
        parse_matrix(f"1 {'1' * (limit + 1)}\n1\n")
    path = tmp_path / "wide.mat"
    path.write_text(f"1 1\n{'9' * (limit + 1)}\n")
    assert main(["compute", "--matrix", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: line 2: entry (1,1) has {limit + 1} digits, more than the limit of {limit}\n")


def test_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.mat"
    bad.write_bytes(b"\xff\xfe1 1\n1\n")
    assert main(["compute", "--matrix", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: 'utf-8' codec can't decode")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_report_value_beyond_the_digit_limit(flags, tmp_path, capsys):
    # q_witness = (10^2200 - 1)^2 has 4400 digits, more than the default
    # int-to-str limit of 4300; every other field is that of any 1x1 matrix
    small, wide = tmp_path / "small.mat", tmp_path / "wide.mat"
    small.write_text("1 1\n9\n")
    wide.write_text("1 1\n" + "9" * 2200 + "\n")
    assert main(["compute", *flags, "--matrix", str(small)]) == 0
    q_small = capsys.readouterr().out
    limit = sys.get_int_max_str_digits()
    assert main(["compute", *flags, "--matrix", str(wide)]) == 0
    out, err = capsys.readouterr()
    assert out == q_small.replace("81", "9" * 2199 + "8" + "0" * 2199 + "1")
    assert err == ""
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("command, options", [
    ("compute", ["--json", "--matrix", "--transpose", "--symmetric-odd"]),
    ("graph", ["--json", "--matrix", "--dot"]),
    ("sym", ["--json", "--n", "--k"]),
    ("check", ["--json", "--matrix"]),
])
def test_help_lists_options_in_order(command, options, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M) == options


def test_all_names_documented_in_readme():
    text = README.read_text()
    assert [name for name in incdepth.__all__
            if not re.search(rf"\b{name}\b", text)] == []
    assert all(hasattr(incdepth, name) for name in incdepth.__all__)


class TestParserReuse:
    """main builds its parser once per process; every later call reuses it."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_import_builds_no_parser(self):
        import subprocess
        script = ("import sys, incdepth, incdepth.cli\n"
                  "sys.exit(incdepth.cli._build_parser.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=_subprocess_env())
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_second_pass_repeats_every_byte(self, capsysbinary, monkeypatch):
        import io
        calls = [(argv + ["--matrix", str(fixture_path(fixture))], "")
                 for argv, fixture, _ in STDOUT_BYTES]
        calls += [(["compute", "--matrix", "-"], text)
                  for text, _ in PARSE_DIAGNOSTICS]
        calls += [([command, "--help"], "")
                  for command in ("compute", "graph", "sym", "check")]
        calls.append((["sym", "--n", "4", "--matrix", "x"], ""))

        def run(argv, stdin):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsysbinary.readouterr())

        first = [run(*call) for call in calls]
        assert [run(*call) for call in calls] == first
        reports, diagnostics = len(STDOUT_BYTES), len(PARSE_DIAGNOSTICS)
        assert first[:reports] == [(0, expected.encode(), b"")
                                   for _, _, expected in STDOUT_BYTES]
        assert first[reports:reports + diagnostics] == \
            [(2, b"", f"error: {message}\n".encode()) for _, message in PARSE_DIAGNOSTICS]
        assert all(code == 0 and out.startswith(b"usage: incdepth ") and err == b""
                   for code, out, err in first[-5:-1])
        code, out, err = first[-1]
        assert (code, out) == (2, b"")
        assert b"unrecognized arguments: --matrix x" in err

    def test_transpose_does_not_carry_over(self, capsys):
        argv = ["compute", "--json", "--matrix", str(fixture_path("s3s4.mat"))]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(["compute", "--transpose", *argv[1:]]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 5
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        assert json.loads(plain)["rows"] == 3

    @pytest.mark.parametrize("order", ["failure first", "flags first"])
    def test_patched_depth_report_in_either_order(self, order, capsys, monkeypatch):
        # the parser exists before each patch, and main still finds it
        checks = [_assert_internal_failure, _assert_disagreement_flags]
        if order == "flags first":
            checks.reverse()
        argv = ["compute", "--matrix", str(fixture_path("s3s4.mat"))]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        for check in checks:
            check(capsys, monkeypatch)
            monkeypatch.undo()
        assert main(argv) == 0
        assert capsys.readouterr().out == plain

    def test_patched_handler_is_called(self, monkeypatch):
        cli._build_parser()
        monkeypatch.setattr(cli, "cmd_sym", lambda args: 7)
        assert main(["sym", "--n", "4"]) == 7
