"""Text and JSON interchange: complex files, matrix files, witnesses, reports.

Complex text format, one statement per line ('#' starts a comment):

    m 4
    facet 1 2
    facet 2 3
    ...

or 'nonsimplex v1 v2 ...' lines (mutually exclusive with 'facet'). The JSON
form is {"m": int, "facets": [[...], ...]} or {"m": int, "nonsimplices":
[[...], ...]}. Matrix files carry one whitespace-separated row per line.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .complexes import MAX_VERTICES, SimplicialComplex, face_mask, face_vertices
from .invariant import CriterionWitness, InvariantReport, SRealResult, XiWitness


def parse_complex_text(text: str) -> SimplicialComplex:
    """Read the complex text format.

    Facet lines go through a token table, built when the 'm' line is read
    (for 1 <= m <= MAX_VERTICES): it maps each vertex's decimal token "1" ..
    str(m) to the vertex's bit, and a facet line whose tokens are all in it
    ORs their bits into one mask. The masks go to SimplicialComplex as they
    are. A facet line with any other token ("01", "+3", "1_0", a vertex
    outside 1..m, a non-integer) is read by int() like every other line, and
    its vertices are packed and range-checked by face_mask once the whole
    text is read, after the check of m. So each text is accepted or refused
    exactly as by int() and from_facets on every line, with the same message.
    """
    m = None
    bits: dict[str, int] = {}
    facets: list[int | list[int]] = []  # masks, and the vertex lists read by int()
    nonsimp: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "facet" and bits:
            mask = 0
            for x in parts[1:]:
                bit = bits.get(x)
                if bit is None:
                    break
                mask |= bit
            else:
                facets.append(mask)
                continue
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
            if m <= MAX_VERTICES:
                bits = {str(v): 1 << v - 1 for v in range(1, m + 1)}
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
    # SimplicialComplex checks m before it draws the first mask
    return SimplicialComplex(m, (f if type(f) is int else face_mask(f, m) for f in facets))


def complex_to_text(K: SimplicialComplex) -> str:
    lines = [f"m {K.m}"]
    for f in K.facets:
        verts = face_vertices(f)
        lines.append("facet " + " ".join(map(str, verts)) if verts else "facet")
    return "\n".join(lines) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_complex_json(text: str) -> SimplicialComplex:
    """Every malformed value is refused with ValueError: a JSON m or vertex
    that is not an integer, or a face list that is not a list of lists."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "m" not in obj:
        raise ValueError("complex JSON must be an object with an 'm' field")
    m = obj["m"]
    if not _is_int(m):
        raise ValueError("complex JSON field 'm' must be an integer")
    if "facets" in obj and "nonsimplices" in obj:
        raise ValueError("'facets' and 'nonsimplices' are mutually exclusive")
    key = "nonsimplices" if "nonsimplices" in obj else "facets"
    faces = obj.get(key, [])
    if not isinstance(faces, list) or not all(
        isinstance(f, list) and all(map(_is_int, f)) for f in faces
    ):
        raise ValueError(f"complex JSON field {key!r} must be a list of lists of integer vertices")
    if key == "nonsimplices":
        return SimplicialComplex.from_min_nonsimplices(m, faces)
    return SimplicialComplex.from_facets(m, faces)


def complex_to_json(K: SimplicialComplex) -> str:
    obj = {"m": K.m, "facets": [face_vertices(f) for f in K.facets]}
    return json.dumps(obj) + "\n"


def load_complex(path: str) -> SimplicialComplex:
    """Read a complex file, sniffing JSON vs text format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_complex_json(text)
    return parse_complex_text(text)


def parse_matrix_text(text: str) -> list[list[int]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([int(x) for x in line.split()])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer matrix entry") from exc
    if not rows:
        raise ValueError("matrix file has no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("matrix rows have unequal lengths")
    return rows


def gf2_rows_from_lists(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Convert 0/1 row lists to bitmask rows plus the column count."""
    k = len(rows[0]) if rows else 0
    masks = []
    for row in rows:
        if any(x not in (0, 1) for x in row):
            raise ValueError("GF(2) matrix entries must be 0 or 1")
        masks.append(sum(bit << j for j, bit in enumerate(row)))
    return masks, k


def gf2_rows_to_lists(rows: Sequence[int], k: int) -> list[list[int]]:
    return [[(row >> j) & 1 for j in range(k)] for row in rows]


def xi_witness_to_dict(w: XiWitness) -> dict:
    """Wire form: vector bitmask (as a string key) -> non-face vertex list."""
    return {str(a): face_vertices(om) for a, om in sorted(w.assignment.items())}


def criterion_witness_to_dict(w: CriterionWitness) -> dict:
    return {"level": w.level, "case": w.case, "sets": [face_vertices(s) for s in w.sets]}


def matrix_witness_to_dict(rows: Sequence[int], k: int) -> dict:
    return {"ring": "gf2", "k": k, "rows": gf2_rows_to_lists(rows, k)}


def vertex_set_text(verts: Sequence[int]) -> str:
    return "{" + ",".join(map(str, verts)) + "}"


def criteria_to_dict(level: int, w: Optional[CriterionWitness]) -> dict:
    """The `criteria` verb's JSON object."""
    return {"level": level, "witness": None if w is None else criterion_witness_to_dict(w)}


def criteria_to_text(level: int, w: Optional[CriterionWitness]) -> str:
    d = criteria_to_dict(level, w)
    return _criteria_line(d["level"], d["witness"]) + "\n"


def _criteria_line(level: int, cw: Optional[dict]) -> str:
    if cw is None:
        return f"criteria level = {level}"
    sets = ", ".join(vertex_set_text(s) for s in cw["sets"])
    return f"criteria level = {level} (case {cw['case']}: {sets})"


def s_real_to_dict(r: SRealResult) -> dict:
    """The `sreal` verb's JSON object."""
    xi = r.xi_witness
    return {
        "lower": r.lower,
        "upper": r.upper,
        "exact": r.exact,
        "value": r.value,
        "xi_witness": None if xi is None else xi_witness_to_dict(xi),
        "matrix_witness": None
        if r.matrix_rows is None
        else matrix_witness_to_dict(r.matrix_rows, xi.k),
    }


def s_real_to_text(r: SRealResult) -> str:
    d = s_real_to_dict(r)
    return "\n".join(_s_real_lines(d, d["xi_witness"], d["matrix_witness"])) + "\n"


def _s_real_lines(sr: dict, xi: Optional[dict], mw: Optional[dict]) -> list[str]:
    """The value or interval line of s_real, then its witnesses."""
    if sr["exact"]:
        lines = [f"s_real(K) = {sr['lower']} (exact)"]
    else:
        lines = [f"s_real(K) in [{sr['lower']}, {sr['upper']}]"]
    if xi is not None:
        pieces = [
            f"{a} -> {vertex_set_text(verts)}"
            for a, verts in sorted(xi.items(), key=lambda kv: int(kv[0]))
        ]
        lines.append("xi witness: " + "; ".join(pieces))
    if mw is not None:
        rows = " ".join("[" + " ".join(map(str, row)) + "]" for row in mw["rows"])
        lines.append(f"matrix witness (gf2, k={mw['k']}): {rows}")
    return lines


def report_to_dict(report: InvariantReport) -> dict:
    cw = report.criterion_witness
    xi = report.xi_witness
    return {
        "m": report.m,
        "dim": report.dim,
        "num_min_nonsimplices": report.num_min_nonsimplices,
        "is_flag": report.is_flag,
        "ghost_vertices": list(report.ghost_vertices),
        "upper_bound": report.upper_bound,
        "criteria_level": report.criteria_level,
        "criterion_witness": None if cw is None else criterion_witness_to_dict(cw),
        "cover": {
            "value": report.cover.value,
            "cover": [face_vertices(s) for s in report.cover.cover],
            "coverable": report.cover.coverable,
            "heuristic": report.cover.heuristic,
        },
        "graph_chromatic": report.graph_chromatic,
        "ayzenberg_value": report.ayzenberg_value,
        "chromatic_bound": report.chromatic_bound,
        "s_real": {
            "lower": report.s_real_lower,
            "upper": report.s_real_upper,
            "exact": report.s_real_exact,
            "value": report.s_real_value,
            "searched": report.s_real_searched,
        },
        "xi_witness": None if xi is None else xi_witness_to_dict(xi),
        "matrix_witness": None
        if report.matrix_rows is None
        else matrix_witness_to_dict(report.matrix_rows, xi.k),
        "s": {
            "lower": report.s_lower,
            "upper": report.s_upper,
            "exact": report.s_exact,
            "value": report.s_value,
        },
        "warnings": list(report.warnings),
    }


_escape = json.encoder.encode_basestring_ascii

# The fixed text of json.dumps(report_to_dict(report), indent=2) + "\n":
# every key, bracket and indent, with one slot per value.
_REPORT_JSON = """{
  "m": %d,
  "dim": %d,
  "num_min_nonsimplices": %d,
  "is_flag": %s,
  "ghost_vertices": %s,
  "upper_bound": %d,
  "criteria_level": %d,
  "criterion_witness": %s,
  "cover": {
    "value": %d,
    "cover": %s,
    "coverable": %s,
    "heuristic": %s
  },
  "graph_chromatic": %s,
  "ayzenberg_value": %s,
  "chromatic_bound": %s,
  "s_real": {
    "lower": %d,
    "upper": %d,
    "exact": %s,
    "value": %s,
    "searched": %d
  },
  "xi_witness": %s,
  "matrix_witness": %s,
  "s": {
    "lower": %d,
    "upper": %d,
    "exact": %s,
    "value": %s
  },
  "warnings": %s
}
"""


def _joined(items: Sequence[str], pad: str, brackets: str = "[]") -> str:
    """The written JSON `items` inside `brackets`, laid out as by
    json.dumps(..., indent=2); `pad` is a newline and the container's own
    indent."""
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _vertex_list(mask: int, pad: str) -> str:
    return _joined(list(map(str, face_vertices(mask))), pad)


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _int_or_null(v: Optional[int]) -> str:
    return "null" if v is None else "%d" % v


def report_to_json(report: InvariantReport) -> str:
    """json.dumps(report_to_dict(report), indent=2) + "\n", written into
    _REPORT_JSON field by field without building the dict. Each distinct
    non-face of the xi witness and each distinct matrix row is written once:
    the 2^k - 1 entries name at most |N(K)| non-faces, and the m rows hold
    at most 2^k distinct rows."""
    cw, xi, rows, cover = report.criterion_witness, report.xi_witness, report.matrix_rows, report.cover
    crit = "null"
    if cw is not None:
        sets = _joined([_vertex_list(w, "\n      ") for w in cw.sets], "\n    ")
        crit = '{\n    "level": %d,\n    "case": %d,\n    "sets": %s\n  }' % (cw.level, cw.case, sets)
    xi_text = mat = "null"
    if xi is not None:
        texts = {w: _vertex_list(w, "\n    ") for w in set(xi.assignment.values())}
        entries = ['"%d": %s' % (a, texts[w]) for a, w in sorted(xi.assignment.items())]
        xi_text = _joined(entries, "\n  ", "{}")
    if rows is not None:
        k = xi.k
        # a row's entries are the digits of its bits 0..k-1, lowest first
        texts = {row: _joined(format(row, "0%db" % k)[::-1][:k], "\n      ") for row in set(rows)}
        lines = _joined([texts[row] for row in rows], "\n    ")
        mat = '{\n    "ring": "gf2",\n    "k": %d,\n    "rows": %s\n  }' % (k, lines)
    return _REPORT_JSON % (
        report.m,
        report.dim,
        report.num_min_nonsimplices,
        _bool(report.is_flag),
        _joined(list(map(str, report.ghost_vertices)), "\n  "),
        report.upper_bound,
        report.criteria_level,
        crit,
        cover.value,
        _joined([_vertex_list(w, "\n      ") for w in cover.cover], "\n    "),
        _bool(cover.coverable),
        _bool(cover.heuristic),
        _int_or_null(report.graph_chromatic),
        _int_or_null(report.ayzenberg_value),
        _int_or_null(report.chromatic_bound),
        report.s_real_lower,
        report.s_real_upper,
        _bool(report.s_real_exact),
        _int_or_null(report.s_real_value),
        report.s_real_searched,
        xi_text,
        mat,
        report.s_lower,
        report.s_upper,
        _bool(report.s_exact),
        _int_or_null(report.s_value),
        _joined(list(map(_escape, report.warnings)), "\n  "),
    )


def report_to_text(report: InvariantReport) -> str:
    d = report_to_dict(report)
    lines = [
        f"m = {d['m']}",
        f"dim = {d['dim']}",
        f"|N(K)| = {d['num_min_nonsimplices']}",
        f"flag = {'yes' if d['is_flag'] else 'no'}",
    ]
    if d["ghost_vertices"]:
        lines.append("ghost vertices = " + " ".join(map(str, d["ghost_vertices"])))
    lines.append(f"upper bound m - dim - 1 = {d['upper_bound']}")
    lines.append(_criteria_line(d["criteria_level"], d["criterion_witness"]))
    cov = d["cover"]
    if cov["coverable"]:
        sets = ", ".join(vertex_set_text(s) for s in cov["cover"])
        tag = " [greedy]" if cov["heuristic"] else ""
        lines.append(f"cover bound = {cov['value']} (cover: {sets}){tag}")
    else:
        lines.append("cover bound = 0 (vertices not coverable by non-faces)")
    if d["graph_chromatic"] is not None:
        lines.append(f"graph chromatic number = {d['graph_chromatic']}")
    if d["ayzenberg_value"] is not None:
        lines.append(f"graph formula value = {d['ayzenberg_value']}")
    if d["chromatic_bound"] is not None:
        lines.append(f"chromatic bound (polytopal) = {d['chromatic_bound']}")
    lines += _s_real_lines(d["s_real"], d["xi_witness"], d["matrix_witness"])
    for w in d["warnings"]:
        lines.append(f"note: {w}")
    s = d["s"]
    if s["exact"]:
        lines.append(f"s(K) = {s['value']} (exact)")
    else:
        lines.append(f"s(K) in [{s['lower']}, {s['upper']}]")
    return "\n".join(lines) + "\n"
