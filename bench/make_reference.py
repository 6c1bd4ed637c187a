"""Regenerate bench/reference.json, the answers the benchmark checks against.

    python3 bench/make_reference.py

The golden terms are the ones the paper states (and ``verify-suite`` checks).
The skew terms, the panel digests and the memo-sweep digests are the outputs
of the engine at the commit that wrote them.  Before writing, each GP skew is
checked against the independent type D route.  Only regenerate after a change
that is meant to alter answers.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from ktrans import expand, tableaux, weyl  # noqa: E402

GOLDEN_TERMS = {
    "B": {(4, 2, 1): 4, (4, 3): 2, (5, 2): 2, (4, 3, 1): 5, (5, 2, 1): 5, (5, 3): 3, (5, 3, 1): 6},
    "C": {(4, 2, 1): 2, (4, 3): 2, (5, 2): 2, (4, 3, 1): 3, (5, 2, 1): 3, (5, 3): 3, (5, 3, 1): 4},
}


def pairs(terms):
    return [[list(lam), c] for lam, c in sorted(terms.items())]


def main() -> None:
    ref = {"golden": {t: pairs(v) for t, v in GOLDEN_TERMS.items()}, "skews": {}}
    golden = weyl.parse_oneline(worker.GOLDEN)
    for t, want in GOLDEN_TERMS.items():
        expand._cache.clear()
        if expand.expand_grassmannian(t, golden).terms != want:
            sys.exit(f"golden expansion in type {t} differs from the paper")
    for basis in ("GP", "GQ"):
        for outer, inner in worker.SKEWS:
            expand._cache.clear()
            terms = expand.skew_expansion(basis, outer, inner).terms
            if basis == "GP":
                shape = tableaux.ShiftedSkewShape(outer, inner)
                route_d = expand.expand_grassmannian("D", tableaux.w_shape("D", shape)).terms
                if route_d != terms:
                    sys.exit(f"GP {outer}/{inner}: the B and D routes disagree")
            ref["skews"][worker.skew_label(basis, outer, inner)] = pairs(terms)
    ref["engine_panel"] = []
    for t, w in worker.panel(worker.PANEL_SIZE):
        expand._cache.clear()
        result = expand.expand_grassmannian(t, w)
        if worker.invariant_errors(result):
            sys.exit(f"{t} {w}: {worker.invariant_errors(result)}")
        ref["engine_panel"].append(worker.digest(result))
    ref["memo_sweep"] = {}
    for rank in (3, 5):
        expand._cache.clear()
        docs = [worker.digest(expand.expand_grassmannian("D", w))
                for w in weyl.group_elements("D", rank)]
        ref["memo_sweep"][str(rank)] = hashlib.sha256("".join(docs).encode()).hexdigest()[:16]
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in ref.items()]
    worker.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
