"""One round of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --passes P
                            [--trace SPANS] [--sample 0|1]

A round makes P cold passes over the workload's operations, in a new seeded
order each pass, and then its warm phase.  Every package cache is cleared
before each cold operation (see ``reset``), and before each ``verify-suite``
call, whose checks run one after another as in the command; so an operation
does the same work in every pass and in any order.

Prints one JSON line with the round's raw measurements: each cold
operation's wall and CPU time in every pass, with the factor that scales them
to reference speed (see ``speed.py``), the warm phase, peak RSS,
answers checked and failed, and with ``--trace`` the per-layer metrics (spans
go to SPANS).  ``bench/run.py`` starts this and turns it into the reported
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from ktrans import cli, expand, groth_a, hecke, kn, rings, tableaux, weyl  # noqa: E402
import speed  # noqa: E402

GOLDEN = "-3,4,-1,5,2"
SKEWS = [((6, 4, 2), (2,)), ((7, 5, 3, 1), (2,)), ((6, 4, 2), (3, 1))]
PANEL_SEED = 1
PANEL_RANK = 6
PANEL_SIZE = 120
WARM_PASSES = 11
ENGINE_WARM_PASSES = 40  # its warm pass takes about 30 ms, so it gets more tries
REFERENCE = BENCH / "reference.json"  # written by make_reference.py

# every lru_cache of the package, taken before a tracer can wrap them
CACHES = [obj for mod in (cli, expand, groth_a, hecke, kn, rings, tableaux, weyl)
          for obj in vars(mod).values()
          if callable(getattr(obj, "cache_clear", None))
          and getattr(obj, "__module__", "").startswith("ktrans")]


def reset() -> None:
    """Clear every cache of the package: the lru_caches, the expansion memo
    and the type A Grothendieck memo.  The process is then as cold as a
    fresh interpreter, short of its imports.

    Then collect garbage and freeze what is left, as a fresh interpreter has
    only its imports for the collector to scan: the next operation's
    collections start from zeroed counters and scan only what it allocates,
    not whatever earlier operations left behind."""
    for cached in CACHES:
        cached.cache_clear()
    expand._cache.clear()
    groth_a._memo.clear()
    gc.collect()
    gc.freeze()


def panel(count: int) -> list[tuple[str, weyl.SignedPermutation]]:
    """The engine-sweep panel: random non-Grassmannian rank-6 elements drawn
    from a fixed seed, round-robin over B, C, D.  Its prefix of ``count``
    elements is the same for every run seed (see README: per-element cost is
    heavy-tailed, so a per-seed draw would swing wall time between seeds)."""
    rng = random.Random(PANEL_SEED)
    out = []
    for k in range(count):
        t = "BCD"[k % 3]
        while True:
            perm = list(range(1, PANEL_RANK + 1))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in perm]
            if t == "D" and signs.count(-1) % 2:
                signs[0] = -signs[0]
            w = weyl.SignedPermutation([p * s for p, s in zip(perm, signs)])
            if not w.is_grassmannian():
                break
        out.append((t, w))
    return out


def digest(result) -> str:
    doc = json.dumps(result.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def invariant_errors(result) -> list[str]:
    """Positivity, beta_power >= 0, strict shapes, and the right basis."""
    errs = []
    if not result.terms:
        errs.append("empty expansion")
    if result.basis != ("GQ" if result.group_type == "C" else "GP"):
        errs.append(f"basis {result.basis} in type {result.group_type}")
    if result.length != weyl.length(result.group_type, result.source):
        errs.append("wrong length")
    for lam, coeff in result.terms.items():
        if not (isinstance(coeff, int) and coeff > 0):
            errs.append(f"coefficient {coeff!r} of {lam} is not positive")
        if result.beta_power(lam) < 0:
            errs.append(f"beta_power of {lam} is negative")
        if any(p <= 0 for p in lam) or any(a <= b for a, b in zip(lam, lam[1:])):
            errs.append(f"{lam} is not a strict partition")
    return errs


def skew_label(basis: str, outer, inner) -> str:
    return f"{basis} {','.join(map(str, outer))}/{','.join(map(str, inner))}"


def as_terms(pairs) -> dict[tuple[int, ...], int]:
    return {tuple(lam): c for lam, c in pairs}


class Round:
    """Times operations one at a time (closed loop) and tallies failures.
    Each timed operation keeps one sample per pass: (wall ms, CPU ms, the
    factor to reference speed)."""

    def __init__(self, tracer=None, sample: bool = True):
        self.tracer = tracer
        self.sample = sample  # measure the core's speed inside operations too
        self.ops: dict[str, list[tuple[float, float, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{label}: {why}")

    def run(self, label: str, fn, check, timed: bool = True):
        """Call fn(); check(value) returns a list of problems.  A raise is a
        failure too.  Returns the value, or None if fn raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        try:
            if timed:
                value, wall_ms, cpu_ms, scale = speed.timed(fn, self.sample)
                self.ops.setdefault(label, []).append((wall_ms, cpu_ms, scale))
            else:
                value = fn()
        except Exception as exc:  # a crash is a failed operation
            self.fail(label, f"raised {exc!r}")
            return None
        problems = check(value)
        if problems:
            self.fail(label, "; ".join(problems[:3]))
        return value

    def end_cold_phase(self) -> None:
        if self.tracer is not None:
            self.tracer.end_cold_phase()


def _scratch_file(name: str) -> str:
    return os.path.join(os.environ["KTRANS_CACHE_DIR"], name)


def warm_passes(rnd: Round, one_pass, prepare=lambda: None, passes: int = WARM_PASSES) -> list:
    """A fixed number of timed passes, as (wall ms, CPU ms, factor to
    reference speed).  A fixed count keeps the traced work counts the same
    from run to run."""
    samples = []
    for _ in range(passes):
        prepare()
        samples.append(speed.timed(one_pass, rnd.sample)[1:])
    return samples


def _serve_warm(rnd: Round, items, expected: dict, path: str, passes: int = WARM_PASSES) -> list:
    """Load the persisted memo and serve every item again from it; each
    answer must equal the cold one.  Returns the passes' samples."""
    rnd.end_cold_phase()

    def one_pass():
        rnd.run("load_cache", lambda: expand.load_cache(path),
                lambda n: [] if n == len(expected) else [f"loaded {n} of {len(expected)}"],
                timed=False)
        for label, fn in items:
            rnd.run(f"warm {label}", fn,
                    lambda r, want=expected[label]: [] if r.terms == want else ["differs from cold"],
                    timed=False)

    return warm_passes(rnd, one_pass, expand._cache.clear, passes)


def pass_order(items: list, seed: int, p: int) -> list:
    """The items in the seeded order of pass p."""
    order = list(items)
    random.Random(f"{seed}-{p}").shuffle(order)
    return order


def engine_sweep(rnd: Round, seed: int, seconds: int, passes: int) -> list:
    """Cold expansions, every cache cleared before each; returns the warm
    passes' samples."""
    ref = json.loads(REFERENCE.read_text())
    items = []  # (label, call, reference terms or digest)
    for t in ("B", "C"):
        w = weyl.parse_oneline(GOLDEN)
        items.append((f"golden {t}", lambda t=t, w=w: expand.expand_grassmannian(t, w),
                      as_terms(ref["golden"][t])))
    for basis in ("GP", "GQ"):
        for outer, inner in SKEWS:
            key = skew_label(basis, outer, inner)
            items.append((key, lambda b=basis, o=outer, i=inner: expand.skew_expansion(b, o, i),
                          as_terms(ref["skews"][key])))
    digests = ref["engine_panel"]
    for k, (t, w) in enumerate(panel(PANEL_SIZE if seconds >= 8 else 5 * seconds)):
        items.append((f"panel {k} {t} {weyl.format_oneline(w)}",
                      lambda t=t, w=w: expand.expand_grassmannian(t, w), digests[k]))

    def check(want):
        def problems(result):
            errs = invariant_errors(result)
            if isinstance(want, dict) and result.terms != want:
                errs.append("terms differ from the reference")
            if isinstance(want, str) and digest(result) != want:
                errs.append("digest differs from the reference")
            return errs
        return problems

    cold: dict[str, dict] = {}
    memo: dict = {}
    for p in range(passes):
        for label, fn, want in pass_order(items, seed, p):
            reset()
            result = rnd.run(label, fn, check(want))
            if p == 0 and result is not None:
                cold[label] = result.terms
                memo.update(expand._cache)
    # the memo now holds every element; persist it and serve the sweep warm
    path = _scratch_file("engine.ktrx")
    reset()
    expand._cache.update(memo)
    expand.save_cache(path)
    return _serve_warm(rnd, [(label, fn) for label, fn, _ in items if label in cold], cold, path,
                       ENGINE_WARM_PASSES)


def memo_sweep(rnd: Round, seed: int, seconds: int, passes: int) -> list:
    """W^D_5 (W^D_3 when short) in group order with one shared memo, which
    every pass starts empty; returns the warm passes' samples."""
    rank = 5 if seconds >= 8 else 3
    elements = weyl.group_elements("D", rank)
    want = json.loads(REFERENCE.read_text())["memo_sweep"][str(rank)]
    cold: dict[str, dict] = {}
    for _ in range(passes):
        reset()
        docs = []
        for w in elements:
            label = weyl.format_oneline(w)
            result = rnd.run(label, lambda w=w: expand.expand_grassmannian("D", w),
                             invariant_errors)
            if result is not None:
                cold[label] = result.terms
                docs.append(digest(result))
        rnd.run("phase-1 digest", lambda: hashlib.sha256("".join(docs).encode()).hexdigest()[:16],
                lambda d: [] if d == want else ["digest differs"], timed=False)
    path = _scratch_file("memo.ktrx")
    rnd.run("save_cache", lambda: expand.save_cache(path),
            lambda n: [] if n == len(elements) else [f"saved {n} entries"], timed=False)
    items = [(weyl.format_oneline(w), lambda w=w: expand.expand_grassmannian("D", w))
             for w in pass_order(elements, seed, passes)]
    return _serve_warm(rnd, items, cold, path)


def _suite(rnd: Round, seed: int, timed: bool) -> tuple[int, str]:
    """cli.main(["verify-suite"]) in-process with jobs=1; each check is
    timed as an operation of its own, through the suite's check runner."""
    run_check = cli._run_check

    def timed_check(index):
        name = cli.CHECKS[index][0]
        return rnd.run(f"check {name}", lambda: run_check(index),
                       lambda r: [] if r[1] else [r[2] or "failed"], timed=timed)

    out = io.StringIO()
    cli._run_check = timed_check
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify-suite", "--seed", str(seed), "--jobs", "1"])
    finally:
        cli._run_check = run_check
    return rc, out.getvalue()


def _suite_problems(result) -> list[str]:
    rc, text = result
    fails = [line for line in text.splitlines() if line.startswith("FAIL")]
    if rc != 0 or fails or f"all {len(cli.CHECKS)} checks passed" not in text:
        return [f"verify-suite exit {rc}"] + fails
    return []


def _battery(rnd: Round, seed: int, seconds: int, timed: bool, cold: bool) -> None:
    """verify-suite, then verify_expansion on the golden element; short runs
    use three cheap checks and a small element.  A cold battery clears every
    cache before the suite and before each verify_expansion."""
    if seconds >= 8:
        if cold:
            reset()
        rnd.run("verify-suite", lambda: _suite(rnd, seed, timed), _suite_problems, timed=False)
        cases, num_vars, bound = [("B", GOLDEN), ("C", GOLDEN)], 3, 7
    else:
        for index in (0, 1, 2):
            if cold:
                reset()
            rnd.run(f"check {cli.CHECKS[index][0]}", lambda i=index: cli._run_check(i),
                    lambda r: [] if r[1] else [r[2] or "failed"], timed=timed)
        cases, num_vars, bound = [("B", "-2,1"), ("C", "-2,1")], 2, 4
    for t, w in cases:
        if cold:
            reset()
        rnd.run(f"verify_expansion {t} {w}",
                lambda t=t, w=w: expand.verify_expansion(t, weyl.parse_oneline(w), num_vars, bound),
                lambda rep: [] if rep.ok else ["expansion disagrees with fstanley"], timed=timed)


def verify_battery(rnd: Round, seed: int, seconds: int, passes: int) -> list:
    """The verification path, cold and then warm; returns the warm passes'
    samples."""
    for _ in range(passes):
        _battery(rnd, seed, seconds, timed=True, cold=True)
    # the same battery again, with the caches the last cold pass left
    rnd.end_cold_phase()
    return warm_passes(rnd, lambda: _battery(rnd, seed, seconds, timed=False, cold=False))


WORKLOADS = {
    "engine-sweep": engine_sweep,
    "memo-sweep": memo_sweep,
    "verify-battery": verify_battery,
}


def run_round(workload: str, seed: int, seconds: int, passes: int = 1,
              spans: str | None = None, sample: bool = True) -> dict:
    tracer = None
    if spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({"weyl": weyl, "rings": rings, "tableaux": tableaux, "hecke": hecke,
                        "groth_a": groth_a, "kn": kn, "expand": expand, "cli": cli})
    rnd = Round(tracer, sample)
    start = time.perf_counter()
    warm = WORKLOADS[workload](rnd, seed, seconds, passes)
    out = {
        "elapsed_s": time.perf_counter() - start,
        "ops": rnd.ops,
        "warm": warm,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        out["layers"] = layer_metrics(tracer, [name for name, _ in cli.CHECKS])
        out["spans_written"] = tracer.dump(spans)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", metavar="SPANS", default=None)
    parser.add_argument("--sample", type=int, choices=(0, 1), default=1,
                        help="0: measure the core's speed only around operations")
    args = parser.parse_args()
    if os.environ.get("KTRANS_CACHE_DIR") is None:
        sys.exit("worker: KTRANS_CACHE_DIR must point at a private directory")
    if not Path(expand.__file__).resolve().is_relative_to(BENCH.parent / "src"):
        sys.exit(f"worker: imported ktrans from {expand.__file__}, not from this checkout")
    print(json.dumps(run_round(args.workload, args.seed, args.seconds, args.passes, args.trace,
                                bool(args.sample))))


if __name__ == "__main__":
    main()
