"""Command-line front end: analyze complexes, generate corpus members,
verify user matrices, run the oracle cross-checks and the 0/1 determinant
scans. Exit codes: 0 success, 1 invalid input, 2 resource guard tripped
(a partial interval result is still printed).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats, generators
from .complexes import face_vertices
from .invariant import (
    SREAL_DEFAULT_MAX_K,
    SearchBudgetExceeded,
    analyze,
    check_criteria,
    oracle_check,
    s_real,
    verify_Lambda_detailed,
    verify_S_detailed,
)
from .zlattice import counterexample_matrix, det_exact, lemma_r23_scan


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("-o", dest="out", metavar="PATH", help="write output to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buchstaber",
        description="Exact Buchstaber invariant computations for simplicial complexes",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="full invariant report for a complex file")
    p.add_argument("input")
    p.add_argument("--polytopal", action="store_true", help="enable the chromatic bound")
    p.add_argument("--max-k", dest="max_k", type=int, default=SREAL_DEFAULT_MAX_K)
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    _add_output_flags(p)

    p = sub.add_parser("sreal", help="exact real invariant with witnesses")
    p.add_argument("input")
    p.add_argument("--max-k", dest="max_k", type=int, default=SREAL_DEFAULT_MAX_K)
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    _add_output_flags(p)

    p = sub.add_parser("criteria", help="level criteria (0..3) with witness")
    p.add_argument("input")
    _add_output_flags(p)

    p = sub.add_parser("gen", help="generate a corpus complex")
    p.add_argument("kind")
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)

    p = sub.add_parser("verify", help="check a freeness matrix against a complex")
    p.add_argument("complex")
    p.add_argument("matrix")
    p.add_argument("--ring", choices=("gf2", "int"), required=True)
    p.add_argument("--dual", action="store_true", help="matrix is a dual (kernel-side) matrix")
    _add_output_flags(p)

    p = sub.add_parser("oracle", help="xi search vs matrix scan vs criteria, per rank")
    p.add_argument("input")
    p.add_argument("--max-k", dest="max_k", type=int, default=3)
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    _add_output_flags(p)

    p = sub.add_parser("lemma23", help="0/1 odd-determinant scans for n = 2, 3, 4")
    _add_output_flags(p)

    return parser


def _cmd_analyze(args) -> int:
    K = formats.load_complex(args.input)
    report = analyze(K, polytopal=args.polytopal, max_k=args.max_k)
    text = formats.report_to_json(report) if args.json else formats.report_to_text(report)
    _write(text, args.out)
    guard_hit = not report.s_real_exact or report.cover.heuristic
    return 2 if guard_hit else 0


def _cmd_sreal(args) -> int:
    K = formats.load_complex(args.input)
    r = s_real(K, max_k=args.max_k)
    if args.json:
        text = json.dumps(formats.s_real_to_dict(r), indent=2) + "\n"
    else:
        text = formats.s_real_to_text(r)
    _write(text, args.out)
    return 0 if r.exact else 2


def _cmd_criteria(args) -> int:
    level, w = check_criteria(formats.load_complex(args.input))
    if args.json:
        text = json.dumps(formats.criteria_to_dict(level, w), indent=2) + "\n"
    else:
        text = formats.criteria_to_text(level, w)
    _write(text, args.out)
    return 0


# gen kind -> (constructor, least and most parameter counts). The parameters
# are integers, except join's two complex file paths; random gets --seed as its
# second argument.
_GEN_KINDS = {
    "simplex": (generators.simplex, 1, 1),
    "boundary": (generators.boundary_simplex, 1, 1),
    "skeleton": (generators.skeleton, 2, 2),
    "cycle": (generators.cycle, 1, 1),
    "points": (generators.points, 1, 1),
    "complete_graph": (generators.complete_graph, 1, 1),
    "cyclic": (generators.cyclic_polytope_boundary, 2, 2),
    "join": (generators.join, 2, 2),
    "random": (generators.random_complex, 1, 4),
}


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind not in _GEN_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    make, least, most = _GEN_KINDS[kind]
    count = len(args.params)
    if not least <= count <= most:
        takes = str(least) if least == most else f"{least} to {most}"
        raise ValueError(f"gen {kind}: parameter count must be {takes}, got {count}")
    parse = formats.load_complex if kind == "join" else int
    params = [parse(x) for x in args.params]
    if kind == "random":
        params.insert(1, args.seed)
    K = make(*params)
    text = formats.complex_to_json(K) if args.json else formats.complex_to_text(K)
    _write(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    K = formats.load_complex(args.complex)
    with open(args.matrix, "r", encoding="utf-8") as fh:
        rows = formats.parse_matrix_text(fh.read())
    if args.ring == "gf2":
        masks, width = formats.gf2_rows_from_lists(rows)
        if args.dual:
            if width != K.m:
                raise ValueError("dual matrix must have one column per vertex")
            ok, failing = verify_Lambda_detailed(K, masks, "gf2")
        else:
            ok, failing = verify_S_detailed(K, masks, width, "gf2")
    else:
        if args.dual:
            ok, failing = verify_Lambda_detailed(K, rows, "int")
        else:
            ok, failing = verify_S_detailed(K, rows, len(rows[0]), "int")
    if args.json:
        obj = {
            "ok": ok,
            "failing_simplex": None if failing is None else face_vertices(failing),
        }
        text = json.dumps(obj, indent=2) + "\n"
    else:
        if ok:
            text = "PASS\n"
        else:
            where = formats.vertex_set_text(face_vertices(failing))
            text = f"FAIL at maximal simplex {where}\n"
    _write(text, args.out)
    return 0


def _cmd_oracle(args) -> int:
    K = formats.load_complex(args.input)
    results = [oracle_check(K, k) for k in range(1, args.max_k + 1)]
    if args.json:
        text = json.dumps(results, indent=2) + "\n"
    else:
        lines = []
        for r in results:
            mat = "skipped" if r["matrix"] is None else ("yes" if r["matrix"] else "no")
            crit = "n/a" if r["criteria"] is None else ("yes" if r["criteria"] else "no")
            lines.append(
                f"k={r['k']}: xi={'yes' if r['xi'] else 'no'} matrix={mat} "
                f"criteria={crit} -> {'agree' if r['agree'] else 'DISAGREE'}"
            )
        verdict = "yes" if all(r["agree"] for r in results) else "NO"
        lines.append(f"oracle agreement: {verdict}")
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return 0


def _cmd_lemma23(args) -> int:
    scan = []
    for n in (2, 3, 4):
        hit = lemma_r23_scan(n)
        scan.append((n, hit))
    dets = [(k, det_exact(counterexample_matrix(k))) for k in (4, 6, 8)]
    if args.json:
        obj = {
            "scan": [
                {
                    "n": n,
                    "counterexample": hit,
                    "det": None if hit is None else det_exact(hit),
                }
                for n, hit in scan
            ],
            "pattern_dets": [{"k": k, "det": d} for k, d in dets],
        }
        text = json.dumps(obj, indent=2) + "\n"
    else:
        lines = []
        for n, hit in scan:
            if hit is None:
                lines.append(f"n={n}: no counterexample")
            else:
                lines.append(f"n={n}: counterexample found, det = {det_exact(hit)}")
        lines.append(
            "pattern determinants: "
            + "; ".join(f"k={k} -> {d}" for k, d in dets)
        )
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return 0


_DISPATCH = {
    "analyze": _cmd_analyze,
    "sreal": _cmd_sreal,
    "criteria": _cmd_criteria,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "lemma23": _cmd_lemma23,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 0) < 0:
            raise ValueError("thread count must be >= 0")
        return _DISPATCH[args.verb](args)
    except SearchBudgetExceeded as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
