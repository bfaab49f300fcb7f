"""Acceptance suite: one test and one printed pass/fail line per criterion.

All comparisons are exact integer equalities. Run with `pytest -v -s` to
see the per-criterion lines.
"""

import random

from incdepth import (InclusionMatrix, IntMatrix, build_graph, depth_report,
                      fixture_path, min_depth, min_even_depth_graph, min_hdepth,
                      min_hdepth_graph, min_odd_depth_graph,
                      min_odd_depth_symmetric, parse_int_matrix, parse_matrix,
                      partitions)
from incdepth.cli import main

from _oracles import (all_binary_inclusions, char_poly, count_partitions,
                      depth_upper_bound, has_depth, identity, min_depth_exact,
                      min_hdepth_exact, poly_at_matrix, random_inclusion, scale,
                      zero_count)


def _line(num: int, ok: bool, description: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")


def _fixture(name: str) -> InclusionMatrix:
    return parse_matrix(fixture_path(name).read_text())


def test_criterion_1_s3s4_reproduction():
    m = _fixture("s3s4.mat")
    g = build_graph(m)
    got = {
        "min_depth": min_depth(m),
        "min_odd_depth_graph": min_odd_depth_graph(g),
        "min_even_depth_graph": min_even_depth_graph(g),
        "min_depth_transpose": min_depth(m.transposed()),
        "min_hdepth": min_hdepth(m),
        "min_hdepth_graph": min_hdepth_graph(g),
        "spectral_bound": depth_upper_bound(m),
    }
    want = {
        "min_depth": 5,
        "min_odd_depth_graph": 5,
        "min_even_depth_graph": 6,
        "min_depth_transpose": 6,
        "min_hdepth": 7,
        "min_hdepth_graph": 7,
        "spectral_bound": 5,
    }
    _line(1, got == want, f"S3 in S4 reproduction {got}")
    assert got == want


def test_criterion_2_c2m2_reproduction():
    m = _fixture("c2m2.mat")
    d = min_depth(m)
    q = has_depth(m, 2)
    d_h = min_hdepth(m)
    ok = d == 2 and q == 2 and d_h == 1
    _line(2, ok, f"C^2 in M_2(C) reproduction d={d} q={q} d_H={d_h}")
    assert (d, q, d_h) == (2, 2, 1)


def test_criterion_3_h8_partial_reproduction():
    sym = parse_int_matrix(fixture_path("h8_mmt.mat").read_text())
    odd = min_odd_depth_symmetric(sym)
    z1 = zero_count(sym)
    z2 = zero_count(sym * sym)
    ok = odd == 3 and z1 == 8 and z2 == 8
    _line(3, ok, f"H8 bracketed square odd depth {odd}, Z={z1}, Z^2={z2}")
    assert (odd, z1, z2) == (3, 8, 8)


def test_criterion_4_generator_correctness(capsys):
    assert main(["sym", "--n", "4"]) == 0
    generated = capsys.readouterr().out
    fixture = fixture_path("s3s4.mat").read_text()
    counts_ok = all(len(partitions(n)) == count_partitions(n)
                    for n in range(1, 13))
    ok = generated == fixture and counts_ok
    with capsys.disabled():
        _line(4, ok, "sym --n 4 byte-identical to fixture; "
                     "partition counts 1..12 match oracle")
    assert generated == fixture
    assert counts_ok


def test_criterion_5_property_suite():
    rng = random.Random(0xD5)
    failures = []
    for index in range(1000):
        m = random_inclusion(rng, max_dim=6, max_entry=3)
        d = min_depth(m)
        d_t = min_depth(m.transposed())
        d_h = min_hdepth(m)
        g = build_graph(m)
        odd = min_odd_depth_graph(g)
        even = min_even_depth_graph(g)
        g_h = min_hdepth_graph(g)
        bound = depth_upper_bound(m)

        checks = {
            "a_graph_equals_matrix": min(odd, even) == d and g_h == d_h,
            "b_transpose_within_one": abs(d_t - d) <= 1,
            "c_parity_rule": d_h == (d_t if d_t % 2 else d_t + 1)
                             and 0 <= d_h - d_t <= 1,
            "d_hdepth_within_two": abs(d - d_h) <= 2,
            "e_spectral_bound": d <= bound,
            "f_monotone": all((has_depth(m, n) is not None) == (n >= d)
                              for n in range(1, d + 3)),
            "g_boolean_equals_exact": d == min_depth_exact(m, bound)
                                      and d_h == min_hdepth_exact(m),
        }
        rows = list(range(m.rows))
        cols = list(range(m.cols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = InclusionMatrix([[m.matrix.entries[i][j] for j in cols] for i in rows])
        checks["h_permutation_invariant"] = (min_depth(permuted) == d
                                             and min_hdepth(permuted) == d_h)
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            failures.append((index, bad, m))
    _line(5, not failures,
          f"property suite on 1000 seeded matrices (<=6x6, entries 0..3)"
          + (f"; failures: {failures[:3]}" if failures else ""))
    assert not failures


def test_criterion_6_exhaustive_small_oracle():
    checked = 0
    failures = []
    for m in all_binary_inclusions(3, 3):
        checked += 1
        bound = depth_upper_bound(m)
        if min_depth(m) != min_depth_exact(m, bound):
            failures.append(("depth", m))
        if min_hdepth(m) != min_hdepth_exact(m):
            failures.append(("hdepth", m))
    _line(6, not failures,
          f"exhaustive 0/1 oracle agreement on {checked} matrices <= 3x3")
    assert checked > 100
    assert not failures


def test_criterion_7_cayley_hamilton():
    rng = random.Random(0xC7)
    failures = 0
    for _ in range(100):
        cells = [[0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i, 5):
                cells[i][j] = cells[j][i] = rng.randint(-9, 9)
        m = IntMatrix(cells)
        if poly_at_matrix(char_poly(m), m) != scale(identity(5), 0):
            failures += 1
    _line(7, failures == 0,
          f"Cayley-Hamilton exact on 100 random symmetric 5x5, {failures} failures")
    assert failures == 0


def test_criterion_8_sharpness_witnesses():
    s3s4 = depth_report(_fixture("s3s4.mat"))
    c2m2 = depth_report(_fixture("c2m2.mat"))
    gap_h = s3s4.h_depth - s3s4.depth
    gap_d = c2m2.depth - c2m2.h_depth
    ok = gap_h == 2 and gap_d == 1
    _line(8, ok, f"equality cases attained: d_H-d={gap_h} on s3s4, "
                 f"d-d_H={gap_d} on c2m2")
    assert gap_h == 2
    assert gap_d == 1
