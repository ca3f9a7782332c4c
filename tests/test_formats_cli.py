"""File formats and the command-line front end."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buchstaber import formats
from buchstaber.cli import main
from buchstaber.complexes import SimplicialComplex, face_mask
from buchstaber.generators import (
    cycle,
    cyclic_polytope_boundary,
    join,
    points,
    random_complex,
    simplex,
    skeleton,
)
from buchstaber.invariant import XiWitness, analyze


def test_complex_text_roundtrip():
    text = formats.complex_to_text(cycle(4))
    assert formats.parse_complex_text(text) == cycle(4)
    assert text.splitlines()[0] == "m 4"


def test_complex_text_comments_and_nonsimplex_form():
    text = "# a square\nm 4\nnonsimplex 1 3\nnonsimplex 2 4  # diagonals\n"
    assert formats.parse_complex_text(text) == cycle(4)


def test_complex_text_empty_complex():
    K = SimplicialComplex.from_facets(2, [])
    text = formats.complex_to_text(K)
    assert "facet" in text
    assert formats.parse_complex_text(text) == K
    assert formats.parse_complex_text("m 2\n") == K


def test_complex_text_errors():
    for bad in (
        "facet 1 2\n",  # before m
        "m 3\nm 4\n",  # duplicate
        "m 3\nfacet 1 2\nnonsimplex 3\n",  # mixed forms
        "m 3\nwidget 1\n",  # unknown statement
        "m x\n",  # non-integer
        "",  # missing m
        "m 3\nfacet 1 9\n",  # vertex out of range
    ):
        with pytest.raises(ValueError):
            formats.parse_complex_text(bad)


def parse_complex_text_reference(text):
    """The complex text parser with every token read by int() and every
    facet packed by from_facets: the oracle for the token-table parser."""
    m = None
    facets, nonsimp = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            values = [int(x) for x in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer token") from exc
        if kind == "m":
            if m is not None:
                raise ValueError(f"line {lineno}: duplicate 'm' statement")
            if len(values) != 1:
                raise ValueError(f"line {lineno}: 'm' takes exactly one integer")
            m = values[0]
        elif kind == "facet":
            if m is None:
                raise ValueError(f"line {lineno}: 'facet' before 'm'")
            facets.append(values)
        elif kind == "nonsimplex":
            if m is None:
                raise ValueError(f"line {lineno}: 'nonsimplex' before 'm'")
            nonsimp.append(values)
        else:
            raise ValueError(f"line {lineno}: unknown statement {kind!r}")
    if m is None:
        raise ValueError("missing 'm' statement")
    if facets and nonsimp:
        raise ValueError("'facet' and 'nonsimplex' statements are mutually exclusive")
    if nonsimp:
        return SimplicialComplex.from_min_nonsimplices(m, nonsimp)
    return SimplicialComplex.from_facets(m, facets)


def parse_outcome(parse, text):
    """The parsed complex, or the message of the ValueError raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def complex_texts(draw):
    """Complex texts mixing the token table's keys with tokens it lacks:
    zero, m + 1, leading zeros and signs, underscores, non-integers and a
    non-ASCII digit; repeated vertices, tabs, CRLF line ends, comments,
    blank lines, empty statements, and a missing, repeated or malformed m."""
    m = draw(st.sampled_from([0, 1, 2, 3, 5, 9, 64, 65]))
    table = st.integers(1, max(m, 1)).map(str)
    odd = st.sampled_from(["0", str(m + 1), "01", "+3", "1_0", "-1", "٣", "99999999999999999999"])
    vertices = st.lists(st.one_of(table, table, table, odd), max_size=6)
    facet = vertices.map(lambda vs: " ".join(["facet", *vs]))
    statement = st.one_of(
        facet, facet, facet,
        vertices.map(lambda vs: " ".join(["nonsimplex", *vs])),
        st.sampled_from(["", "  ", "# comment", "facet", "nonsimplex", "facet 1 1 1",
                         "facet 1 x", "facet 2.0", "widget 1", "widget x", f"m {m}", "m",
                         "m 3 4"]),
    )
    lines = draw(st.lists(statement, max_size=8))
    m_line = draw(st.sampled_from([f"m {m}", f"m\t{m}", f"m {m}  # vertices", f"m 0{m}", None]))
    if m_line is not None:
        lines.insert(draw(st.sampled_from([0, 0, len(lines) // 2])), m_line)
    out = []
    for line in lines:
        if draw(st.booleans()):
            line = line.replace(" ", "\t")
        if draw(st.booleans()):
            line += " # note"
        out.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(out)


@settings(max_examples=300)
@given(complex_texts())
def test_complex_text_parser_matches_the_int_reference(text):
    assert parse_outcome(formats.parse_complex_text, text) == parse_outcome(
        parse_complex_text_reference, text
    )


def test_complex_text_parser_reports_each_error_as_the_reference():
    # one case per message, in the order the reference meets them
    for text in (
        "m 3\nfacet 1 9\nfacet 2 x\n",  # a non-integer token after a vertex out of range
        "m 3\nfacet 01 +3\nfacet 1_0\n",  # tokens outside the table, out of range late
        "m 65\nfacet 1 66\n",  # m out of range before the vertex
        "m 0\nfacet 1\n",
        "m 3\nfacet 4\nnonsimplex 1\n",  # mixed forms before the range
        "m 4\nnonsimplex 5\n",
        "m 2\nfacet 1 2\n",  # accepted
        "m 3\r\nfacet\t01 2 # c\r\n\r\nfacet 3 3\r\n",  # accepted
    ):
        assert parse_outcome(formats.parse_complex_text, text) == parse_outcome(
            parse_complex_text_reference, text
        ), text


def test_complex_json_roundtrip():
    text = formats.complex_to_json(cycle(4))
    assert formats.parse_complex_json(text) == cycle(4)
    obj = json.loads(text)
    assert obj["m"] == 4
    K = formats.parse_complex_json('{"m": 4, "nonsimplices": [[1, 3], [2, 4]]}')
    assert K == cycle(4)
    with pytest.raises(ValueError):
        formats.parse_complex_json('{"m": 3, "facets": [[1]], "nonsimplices": [[2]]}')
    with pytest.raises(ValueError):
        formats.parse_complex_json("[1, 2]")


MALFORMED_COMPLEX_JSON = [
    '{"m": "3", "facets": [[1]]}',
    '{"m": 3, "facets": 5}',
    '{"m": 3, "facets": [["2"]]}',
    '{"m": 3, "nonsimplices": [[1], "x"]}',
    '{"m": 3.0, "facets": [[1]]}',
    '{"m": 3, "facets": [[true]]}',
    '{"m": 3, "nonsimplices": {"1": [2]}}',
]


@pytest.mark.parametrize("text", MALFORMED_COMPLEX_JSON)
def test_malformed_complex_json_is_an_input_error(text, tmp_path, capsys):
    with pytest.raises(ValueError):
        formats.parse_complex_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_matrix_text_roundtrip():
    rows = [[1, -2, 3], [0, 4, -5]]
    assert formats.parse_matrix_text("1 -2 3\n0 4 -5\n") == rows
    with pytest.raises(ValueError):
        formats.parse_matrix_text("1 2\n3\n")
    with pytest.raises(ValueError):
        formats.parse_matrix_text("# nothing\n")
    with pytest.raises(ValueError):
        formats.parse_matrix_text("1 a\n")


def test_gf2_row_conversions():
    masks, k = formats.gf2_rows_from_lists([[1, 0], [1, 1]])
    assert (masks, k) == ([0b01, 0b11], 2)
    assert formats.gf2_rows_to_lists(masks, k) == [[1, 0], [1, 1]]
    with pytest.raises(ValueError):
        formats.gf2_rows_from_lists([[2, 0]])


def test_xi_witness_json_roundtrip():
    # the wire form read back by its definition: key str(a), value the
    # vertex list of xi(a)
    from buchstaber.invariant import validate_xi, xi_search

    for K, k in ((cycle(4), 2), (cycle(5), 3), (points(3), 2)):
        w = xi_search(K, k)
        obj = json.loads(json.dumps(formats.xi_witness_to_dict(w)))
        assert list(obj) == [str(a) for a in range(1, 1 << k)]
        back = XiWitness(k, {int(a): face_mask(verts, K.m) for a, verts in obj.items()})
        assert back.assignment == w.assignment
        assert validate_xi(K, back)


def test_report_text_and_json_agree():
    rep = analyze(cycle(4))
    d = formats.report_to_dict(rep)
    js = json.loads(formats.report_to_json(rep))
    assert js == d
    text = formats.report_to_text(rep)
    assert f"m = {d['m']}" in text
    assert f"dim = {d['dim']}" in text
    assert f"|N(K)| = {d['num_min_nonsimplices']}" in text
    assert f"criteria level = {d['criteria_level']}" in text
    assert f"cover bound = {d['cover']['value']}" in text
    assert f"s_real(K) = {d['s_real']['value']} (exact)" in text
    assert text.rstrip().endswith(f"s(K) = {d['s']['value']} (exact)")


def dumped(rep):
    """The report JSON by its definition: the stdlib encoder on report_to_dict."""
    return json.dumps(formats.report_to_dict(rep), indent=2) + "\n"


def test_report_json_is_the_stdlib_dump_of_the_report_dict(corpus_reports):
    for rep in corpus_reports:
        assert formats.report_to_json(rep) == dumped(rep)


def test_report_json_matches_the_stdlib_dump_on_polytopes():
    # C^n(m) at n >= 10 spends seconds in the criteria alone, so n stops at 9
    for m in range(5, 17):
        for n in range(2, min(m, 10)):
            rep = analyze(cyclic_polytope_boundary(n, m), polytopal=True, max_k=3)
            assert formats.report_to_json(rep) == dumped(rep), (n, m)


def test_report_json_matches_the_stdlib_dump_on_every_optional_field():
    ghosts = analyze(SimplicialComplex.from_facets(5, [[1, 2], [2, 3], [3, 1]]), polytopal=True)
    greedy = analyze(skeleton(9, 1), polytopal=True, max_k=2)
    interval = analyze(skeleton(6, 2), max_k=1)
    bare = analyze(simplex(3))
    assert ghosts.ghost_vertices and ghosts.graph_chromatic == 3
    assert greedy.cover.heuristic and greedy.warnings
    assert not interval.s_real_exact and interval.warnings
    assert bare.xi_witness is None and bare.matrix_rows is None and bare.criterion_witness is None
    for rep in (ghosts, greedy, interval, bare):
        assert formats.report_to_json(rep) == dumped(rep)
    # a warning that needs escaping, and a witness of rank 0
    odd = dataclasses.replace(bare, warnings=("\u00e9 \"q\" \\ \x01",), xi_witness=XiWitness(0, {}))
    assert formats.report_to_json(odd) == dumped(odd)


def test_report_interval_rendering():
    from buchstaber.generators import skeleton

    # dim 2, so no exact graph value rescues the capped climb; the criteria
    # level still lifts the verified lower bound to 3 (level 3 refutes no
    # rank, so the upper bound stays m - dim - 1)
    rep = analyze(skeleton(6, 2), max_k=1)
    text = formats.report_to_text(rep)
    assert "s_real(K) in [3, 4]" in text
    d = formats.report_to_dict(rep)
    assert d["s_real"]["value"] is None and not d["s_real"]["exact"]
    assert d["s_real"]["searched"] == 1
    assert "s(K) in [3, 4]" in text


def run_cli(tmp_path, *args):
    out = tmp_path / "out.txt"
    code = main([*args, "-o", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_cli_gen_and_analyze(tmp_path):
    sq = tmp_path / "sq.cplx"
    assert main(["gen", "cycle", "4", "-o", str(sq)]) == 0
    code, text = run_cli(tmp_path, "analyze", str(sq))
    assert code == 0
    assert text.rstrip().endswith("s(K) = 2 (exact)")


def test_python_m_buchstaber_runs_the_cli(tmp_path):
    # the package's own source directory first on the path, as from a checkout
    src = Path(formats.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    sq = tmp_path / "sq.cplx"
    sq.write_text(formats.complex_to_text(cycle(4)))
    proc = subprocess.run(
        [sys.executable, "-m", "buchstaber", "analyze", str(sq)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(tmp_path, "analyze", str(sq))[1]
    bad = subprocess.run(
        [sys.executable, "-m", "buchstaber", "analyze", str(tmp_path / "missing.cplx")],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert bad.returncode == 1 and bad.stderr.startswith("error: ")


def test_cli_gen_cyclic_then_analyze(tmp_path):
    path = tmp_path / "c36.cplx"
    assert main(["gen", "cyclic", "3", "6", "-o", str(path)]) == 0
    code, text = run_cli(tmp_path, "analyze", str(path))
    assert code == 0
    assert "m = 6" in text and "dim = 2" in text


def test_cli_analyze_json_matches_text_numbers(tmp_path):
    sq = tmp_path / "sq.cplx"
    main(["gen", "cycle", "4", "-o", str(sq)])
    code, js = run_cli(tmp_path, "analyze", str(sq), "--json")
    assert code == 0
    obj = json.loads(js)
    code, text = run_cli(tmp_path, "analyze", str(sq))
    assert f"s(K) = {obj['s']['value']} (exact)" in text
    assert f"criteria level = {obj['criteria_level']}" in text


def test_cli_gen_json_roundtrip(tmp_path):
    path = tmp_path / "k.json"
    assert main(["gen", "points", "3", "--json", "-o", str(path)]) == 0
    assert formats.load_complex(str(path)) == points(3)
    for spec, K in (
        (["cycle", "4"], cycle(4)),
        (["cyclic", "2", "5"], cycle(5)),
        (["simplex", "3"], simplex(3)),
    ):
        code, text = run_cli(tmp_path, "gen", *spec)
        assert code == 0 and formats.parse_complex_text(text) == K


def test_cli_gen_join_and_random(tmp_path):
    a = tmp_path / "a.cplx"
    b = tmp_path / "b.cplx"
    main(["gen", "points", "2", "-o", str(a)])
    main(["gen", "points", "2", "-o", str(b)])
    code, text = run_cli(tmp_path, "gen", "join", str(a), str(b))
    assert code == 0 and "m 4" in text
    assert formats.parse_complex_text(text) == join(points(2), points(2))
    code, t1 = run_cli(tmp_path, "gen", "random", "6", "1", "2", "--seed", "42")
    code, t2 = run_cli(tmp_path, "gen", "random", "6", "1", "2", "--seed", "42")
    assert t1 == t2
    code, text = run_cli(tmp_path, "gen", "random", "6", "1", "2", "1", "--seed", "42")
    assert code == 0 and formats.parse_complex_text(text) == random_complex(6, 42, 1, 2, 1)


def test_cli_sreal_and_criteria(tmp_path):
    sq = tmp_path / "sq.cplx"
    main(["gen", "cycle", "4", "-o", str(sq)])
    code, text = run_cli(tmp_path, "sreal", str(sq))
    assert code == 0
    assert text.startswith("s_real(K) = 2 (exact)")
    assert "xi witness" in text
    code, text = run_cli(tmp_path, "criteria", str(sq))
    assert code == 0
    assert text.startswith("criteria level = 2")


def as_json(obj):
    return json.dumps(obj, indent=2) + "\n"


def test_cli_sreal_and_criteria_full_output(tmp_path):
    # every byte of the sreal and criteria verbs, text and JSON, on an exact
    # result (the 4-cycle) and a capped interval (8 points)
    sq = tmp_path / "sq.cplx"
    p8 = tmp_path / "p8.cplx"
    main(["gen", "cycle", "4", "-o", str(sq)])
    main(["gen", "points", "8", "-o", str(p8)])
    cases = {
        sq: (
            0,
            "s_real(K) = 2 (exact)\n"
            "xi witness: 1 -> {1,3}; 2 -> {1,3}; 3 -> {2,4}\n"
            "matrix witness (gf2, k=2): [1 1] [1 0] [1 1] [1 0]\n",
            {
                "lower": 2, "upper": 2, "exact": True, "value": 2,
                "xi_witness": {"1": [1, 3], "2": [1, 3], "3": [2, 4]},
                "matrix_witness": {
                    "ring": "gf2", "k": 2, "rows": [[1, 1], [1, 0], [1, 1], [1, 0]],
                },
            },
            "criteria level = 2 (case 2: {1,3}, {2,4})\n",
            {"level": 2, "witness": {"level": 2, "case": 2, "sets": [[1, 3], [2, 4]]}},
        ),
        p8: (
            2,
            "s_real(K) in [2, 7]\n"
            "xi witness: 1 -> {1,2}; 2 -> {1,2}; 3 -> {3,4}\n"
            "matrix witness (gf2, k=2): [1 1] [1 1] [1 0] [1 0] [0 0] [0 0] [0 0] [0 0]\n",
            {
                "lower": 2, "upper": 7, "exact": False, "value": None,
                "xi_witness": {"1": [1, 2], "2": [1, 2], "3": [3, 4]},
                "matrix_witness": {
                    "ring": "gf2", "k": 2,
                    "rows": [[1, 1], [1, 1], [1, 0], [1, 0]] + [[0, 0]] * 4,
                },
            },
            "criteria level = 3 (case 5: {1,2}, {3,4}, {5,6})\n",
            {"level": 3, "witness": {"level": 3, "case": 5, "sets": [[1, 2], [3, 4], [5, 6]]}},
        ),
    }
    for path, (code, sreal_text, sreal_obj, crit_text, crit_obj) in cases.items():
        assert run_cli(tmp_path, "sreal", str(path), "--max-k", "2") == (code, sreal_text)
        assert run_cli(tmp_path, "sreal", str(path), "--max-k", "2", "--json") == (
            code, as_json(sreal_obj),
        )
        assert run_cli(tmp_path, "criteria", str(path)) == (0, crit_text)
        assert run_cli(tmp_path, "criteria", str(path), "--json") == (0, as_json(crit_obj))


def test_cli_json_verbs_print_the_stdlib_indent_encoding(tmp_path):
    # each --json verb prints its object exactly as json.dumps(indent=2)
    # would; read back, the object renders to the same bytes
    c5 = tmp_path / "c5.cplx"
    p3 = tmp_path / "p3.cplx"
    main(["gen", "cycle", "5", "-o", str(c5)])
    main(["gen", "points", "3", "-o", str(p3)])
    mat = tmp_path / "m.txt"
    mat.write_text("1 0\n0 1\n1 1\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n1 0\n0 1\n")
    runs = [
        ("analyze", str(c5)),
        ("analyze", str(p3), "--polytopal"),
        ("sreal", str(c5)),
        ("criteria", str(c5)),
        ("verify", str(p3), str(mat), "--ring", "int"),
        ("verify", str(p3), str(bad), "--ring", "gf2"),
        ("oracle", str(p3)),
        ("lemma23",),
    ]
    for args in runs:
        code, out = run_cli(tmp_path, *args, "--json")
        assert code == 0 and out, args
        assert out == as_json(json.loads(out)), args


def test_cli_sreal_guard_exit_code(tmp_path):
    path = tmp_path / "p8.cplx"
    main(["gen", "points", "8", "-o", str(path)])
    code, text = run_cli(tmp_path, "sreal", str(path), "--max-k", "2")
    assert code == 2
    assert "s_real(K) in [2, 7]" in text


def test_cli_verify(tmp_path):
    p3 = tmp_path / "p3.cplx"
    main(["gen", "points", "3", "-o", str(p3)])
    mat = tmp_path / "m.txt"
    mat.write_text("1 0\n0 1\n1 1\n")
    code, text = run_cli(tmp_path, "verify", str(p3), str(mat), "--ring", "gf2")
    assert code == 0 and text == "PASS\n"
    code, text = run_cli(tmp_path, "verify", str(p3), str(mat), "--ring", "int")
    assert code == 0 and text == "PASS\n"
    sq = tmp_path / "sq.cplx"
    main(["gen", "cycle", "4", "-o", str(sq)])
    lam = tmp_path / "lam.txt"
    lam.write_text("1 1 0 0\n0 0 1 1\n")
    code, text = run_cli(tmp_path, "verify", str(sq), str(lam), "--ring", "gf2", "--dual")
    assert code == 0
    assert text == "FAIL at maximal simplex {1,2}\n"


def test_cli_oracle(tmp_path):
    sq = tmp_path / "sq.cplx"
    main(["gen", "cycle", "4", "-o", str(sq)])
    code, text = run_cli(tmp_path, "oracle", str(sq))
    assert code == 0
    assert text.rstrip().endswith("oracle agreement: yes")
    assert "k=2: xi=yes matrix=yes criteria=yes -> agree" in text


def test_cli_lemma23(tmp_path):
    code, text = run_cli(tmp_path, "lemma23")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "n=2: no counterexample"
    assert lines[1] == "n=3: no counterexample"
    assert lines[2].startswith("n=4: counterexample found, det = ")
    assert "k=4 -> -3; k=6 -> -5; k=8 -> -7" in lines[3]
    code, js = run_cli(tmp_path, "lemma23", "--json")
    obj = json.loads(js)
    assert obj["scan"][0]["counterexample"] is None
    assert obj["scan"][2]["det"] not in (None, 1, -1)
    assert [d["det"] for d in obj["pattern_dets"]] == [-3, -5, -7]


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.cplx")]) == 1
    bad = tmp_path / "bad.cplx"
    bad.write_text("facet 1 2\n")
    assert main(["analyze", str(bad)]) == 1
    capsys.readouterr()
    # a wrong kind or parameter count is an input error, not a traceback
    for argv in (
        ["gen", "nosuchkind", "3"],
        ["gen", "join", "onlyone"],
        ["gen", "join"],
        ["gen", "simplex"],
        ["gen", "cycle", "4", "5"],
        ["gen", "random", "6", "1", "2", "0", "9"],
    ):
        assert main([*argv, "-o", str(tmp_path / "out.cplx")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.cplx").exists()


def test_cli_negative_threads_rejected(tmp_path, capsys):
    sq = tmp_path / "sq.cplx"
    main(["gen", "cycle", "4", "-o", str(sq)])
    for verb in ("analyze", "sreal", "oracle"):
        assert main([verb, str(sq), "--threads", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_negative_max_k_rejected(tmp_path, capsys):
    c5 = tmp_path / "c5.cplx"
    main(["gen", "cycle", "5", "-o", str(c5)])
    for verb in ("analyze", "sreal", "oracle"):
        assert run_cli(tmp_path, verb, str(c5), "--max-k", "-1") == (1, "")
        assert capsys.readouterr().err == "error: --max-k must be >= 0, got -1\n"
    # zero stays valid: the climb stops at once, and an interval is a guard
    code, text = run_cli(tmp_path, "sreal", str(c5), "--max-k", "0")
    assert code == 2 and text.startswith("s_real(K) in [0, 3]")
    assert run_cli(tmp_path, "oracle", str(c5), "--max-k", "0") == (0, "oracle agreement: yes\n")


def test_cli_climb_stops_at_the_largest_liftable_rank(tmp_path):
    # points(19) has m - dim - 1 = 18, beyond the 16 ranks a witness lifts
    # at; the climb stops at 16 and reports an interval, not an error
    p19 = tmp_path / "p19.cplx"
    main(["gen", "points", "19", "-o", str(p19)])
    code, text = run_cli(tmp_path, "sreal", str(p19), "--max-k", "17")
    assert code == 2 and text.startswith("s_real(K) in [16, 18]\n")
    code, text = run_cli(tmp_path, "analyze", str(p19), "--max-k", "17", "--json")
    report = json.loads(text)
    assert code == 2 and (report["s_real"]["value"], report["s"]["value"]) == (18, 18)
    assert report["s_real"]["searched"] == 16 and report["matrix_witness"] is not None


def test_cli_max_k_help_names_the_rank_cap(capsys):
    for verb in ("analyze", "sreal"):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        words = " ".join(capsys.readouterr().out.split())
        assert "never above 16" in words


def test_cli_threads_flag_changes_nothing(tmp_path):
    # the worker count is accepted and validated, and has no effect
    for n, spec in enumerate((["cycle", "5"], ["random", "7", "1", "2", "--seed", "3"])):
        path = tmp_path / f"c{n}.cplx"
        main(["gen", *spec, "-o", str(path)])
        one = run_cli(tmp_path, "analyze", str(path), "--json", "--threads", "1")
        eight = run_cli(tmp_path, "analyze", str(path), "--json", "--threads", "8")
        assert one == eight and one[1]
        assert main(["analyze", str(path), "--threads", "-1"]) == 1


def test_cli_threads_help_says_it_has_no_effect(capsys):
    for verb in ("analyze", "sreal", "oracle"):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        words = " ".join(capsys.readouterr().out.split())
        assert "--threads THREADS accepted; has no effect" in words


def test_cli_stdout_output(capsys):
    assert main(["lemma23"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n=2: no counterexample")
