import json
import random

import pytest

from incdepth import (InclusionMatrix, MatrixParseError, fixture_path,
                      parse_int_matrix, parse_matrix, render_matrix)
from incdepth.cli import main

from _oracles import random_inclusion

S3S4 = InclusionMatrix([[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]])


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
            capture_output=True, text=True)
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
                              capture_output=True, text=True)
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
