"""Record the answers the gate compares against: expected/answers.json.

    python3 perfbench/record.py

Analyses every complex of sweep-small and polytopes-wide, with its generated
labels and the workload's own settings. A seed only relabels vertices, and
the recorded values are invariant under relabelling, so they hold for every
seed. Re-record only when
a change of the program is meant to change an answer, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # noqa: F401  (puts the package source on sys.path)

import gate
import inputs
from buchstaber.invariant import analyze


def record() -> dict:
    answers = {}
    for i, K in enumerate(inputs.sweep_corpus()):
        answers[f"sweep/{i}"] = gate.answer_of(analyze(K, max_k=inputs.SWEEP_MAX_K))
    members = inputs.polytope_complexes() + [(key, K, False) for key, K in inputs.random_members()]
    for key, K, polytopal in members:
        report = analyze(K, polytopal=polytopal, max_k=inputs.POLY_MAX_K)
        answers[key] = gate.answer_of(report)
    return answers


def main() -> int:
    answers = record()
    path = Path(gate.ANSWERS_PATH)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        # one answer per line keeps diffs of a re-recording readable
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(answers[k], sort_keys=True)}" for k in sorted(answers)))
        fh.write("\n}\n")
    print(f"recorded {len(answers)} answers in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
