"""Correctness gate: every answer the benchmark times is checked here.

Analysis answers are compared with the answers recorded in
expected/answers.json (written by record.py). The values s(K) and s_R(K)
are compared as intervals, which covers both rules at once: exact values
must be equal, and an interval on either side must meet the other side's
value or interval. Structural facts (m, dim, |N(K)|, criteria level) are
determined by the complex and must match exactly; all of them are invariant
under relabelling, so the recorded answer of a corpus member holds for every
seed. Witnesses are checked independently of the recorded answers.
"""

from __future__ import annotations

import json
from pathlib import Path

from buchstaber.invariant import (
    InvariantReport,
    validate_xi,
    verify_S,
    xi_to_matrix,
)

from inputs import lift

ANSWERS_PATH = Path(__file__).resolve().parent / "expected" / "answers.json"


def load_answers(path: Path = ANSWERS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def answer_of(report: InvariantReport) -> dict:
    """The recorded form of an analysis report."""
    return {
        "m": report.m,
        "dim": report.dim,
        "nonfaces": report.num_min_nonsimplices,
        "level": report.criteria_level,
        "s": [report.s_lower, report.s_upper],
        "s_real": [report.s_real_lower, report.s_real_upper],
    }


def _meet(a: list[int], b: list[int]) -> bool:
    return max(a[0], b[0]) <= min(a[1], b[1])


def check_report(K, report: InvariantReport, expected: dict | None, report_json: str | None = None) -> list[str]:
    """Problems with one analysis answer; an empty list means it passed.

    A tripped search guard is not a problem: it widens an interval, which
    still has to meet the recorded one.
    """
    problems = []
    if expected is None:
        return ["no recorded answer"]
    got = answer_of(report)
    for field in ("m", "dim", "nonfaces", "level"):
        if got[field] != expected[field]:
            problems.append(f"{field} {got[field]} != recorded {expected[field]}")
    for field in ("s", "s_real"):
        lo, hi = got[field]
        if lo > hi:
            problems.append(f"{field} interval [{lo}, {hi}] is empty")
        elif not _meet(got[field], expected[field]):
            problems.append(f"{field} {got[field]} disagrees with recorded {expected[field]}")
    if report.s_upper > report.s_real_upper:
        problems.append("s upper bound above the s_R upper bound")
    w = report.xi_witness
    if w is not None:
        if w.k != report.s_real_searched:
            problems.append(f"witness rank {w.k} != searched rank {report.s_real_searched}")
        rows = report.matrix_rows
        if not validate_xi(K, w):
            problems.append(f"xi witness at k={w.k} fails validate_xi")
        elif rows != xi_to_matrix(K, w):
            problems.append("matrix witness is not the lift of the xi witness")
        elif not verify_S(K, lift(rows, w.k), w.k, "int"):
            problems.append(f"lifted witness at k={w.k} fails verify_S over the integers")
    elif report.s_real_searched > 0:
        problems.append("positive searched rank without a witness")
    if report_json is not None:
        d = json.loads(report_json)
        if [d["s"]["lower"], d["s"]["upper"]] != got["s"] or [
            d["s_real"]["lower"],
            d["s_real"]["upper"],
        ] != got["s_real"]:
            problems.append("report JSON disagrees with the report")
    return problems


def check_candidate(cand, s_ok: bool, lam: bool | None, ns: bool) -> list[str]:
    """Problems with the three verify answers on one candidate matrix.

    `lam` is None when dual_lambda found no dual. verify_S must agree with
    the non-face condition; a passing matrix always has a dual; where the
    dual exists, verify_Lambda must agree with verify_S; a lifted witness
    must pass.
    """
    problems = []
    if s_ok != ns:
        problems.append(f"verify_S={s_ok} but verify_nonsimplex_condition={ns}")
    if lam is None:
        if s_ok:
            problems.append("verify_S passed but dual_lambda found no dual")
    elif cand.k < cand.K.m and lam != s_ok:
        problems.append(f"verify_Lambda={lam} but verify_S={s_ok}")
    if cand.witness and not s_ok:
        problems.append("lifted witness fails verify_S")
    return problems
