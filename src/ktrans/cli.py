"""Command-line front end: batch computation plus a verification battery.

The engine commands (expand, skew, length) run on expand, weyl and the shape
half of tableaux, which are all this module imports.  The oracle layers
(rings, hecke, kn, groth_a) are imported by the commands and checks that run
them, so a call of an engine command never loads them.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import json
import os
import sys
import time

from . import expand as expand_mod
from . import tableaux, weyl
from .tableaux import ShiftedSkewShape
from .weyl import parse_oneline


def _shape(text: str) -> tuple[int, ...]:
    """A partition by the comma-list rule of windows (``weyl.parse_ints``)."""
    try:
        return weyl.parse_ints(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}") from None


def _stamp(path: str) -> tuple[int, int, int] | None:
    """The (inode, size, mtime_ns) of the file at path, None if it is missing
    or cannot be stat'ed.  ``save_cache`` replaces the file through
    os.replace, so every write gives it a new inode."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def _load_cache() -> tuple[str | None, int, bool, tuple[int, int, int] | None]:
    """The cache file under KTRANS_CACHE_DIR, if set, the number of entries
    it holds (0 for a missing or an ignored file), whether it was ignored
    with a warning, and its ``_stamp``, taken before it was read."""
    cache_dir = os.environ.get("KTRANS_CACHE_DIR")
    if not cache_dir:
        return None, 0, False, None
    path = os.path.join(cache_dir, "expansions.ktrx")
    stamp = _stamp(path)
    if stamp is not None:
        try:
            return path, expand_mod.load_cache(path), False, stamp
        except (OSError, ValueError) as exc:
            print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
            return path, 0, True, stamp
    return path, 0, False, None


def _save_cache(path: str | None, stamp: tuple[int, int, int] | None) -> None:
    """Write `_cache` to path, first merging what other commands saved there
    since this one loaded it, under an exclusive lock on path + ".lock".
    A file whose ``_stamp`` is still the one taken at load time holds
    nothing new, and is not read again."""
    if path is None:
        return
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        lock = os.open(path + ".lock", os.O_RDONLY | os.O_CREAT, 0o666)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if _stamp(path) != stamp:
                try:
                    expand_mod.load_cache(path)
                except (OSError, ValueError):
                    # a file that vanished has nothing to merge; one that
                    # cannot be read or parsed is replaced
                    pass
            expand_mod.save_cache(path)
        finally:
            os.close(lock)
    except OSError as exc:
        print(f"warning: cannot write cache {path}: {exc}", file=sys.stderr)


def cmd_length(args) -> int:
    print(weyl.length(args.type, parse_oneline(args.w)))
    return 0


def _emit_poly(args, poly, **fields) -> int:
    from .rings import poly_str

    if args.json:
        print(json.dumps({**fields, "N": args.N, "D": args.D, "poly": poly_str(poly)}))
    else:
        print(poly_str(poly))
    return 0


def _cmd_oracle(args, fn, *extra) -> int:
    """Print fn(type, w, N, D, *extra), the oracle's series at the window."""
    w = parse_oneline(args.w)
    return _emit_poly(args, fn(args.type, w, args.N, args.D, *extra), type=args.type, w=list(w))


def _cmd_gpgq(args, fn) -> int:
    sh = ShiftedSkewShape(args.shape, args.inner)
    return _emit_poly(
        args, fn(sh, args.N, args.D), outer=list(sh.outer), inner=list(sh.inner)
    )


def _serve_expansion(args, compute) -> int:
    """Serve compute() through the persisted memo and print the expansion.
    --stats adds one JSON line on stderr: the recursion memo's hits and misses
    (keys expanded), whether the root came from `_cache` (no recursion), the
    entries the cache file held, and whether the file was ignored."""
    path, held, ignored, stamp = _load_cache()
    before = expand_mod._expansion.cache_info() if args.stats else None
    result = compute()
    if args.stats:
        after = expand_mod._expansion.cache_info()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        stats = {"expansion_hits": hits, "expansion_misses": misses, "root_cached": not hits + misses,
                 "cache_loaded": held, "cache_ignored": ignored}
        print(json.dumps(stats), file=sys.stderr)
    # every key of the file is now in _cache, so _cache holds more keys only
    # when the file lacks one: a warm command leaves the file as it is
    if len(expand_mod._cache) > held:
        _save_cache(path, stamp)
    if args.json:
        print(json.dumps(result.to_json_dict()))
    else:
        for lam, coeff in sorted(result.terms.items()):
            print(
                f"lambda={list(lam)} coeff={coeff} beta_power={result.beta_power(lam)}"
            )
    return 0


def _by_length(t, combo) -> list:
    """The (u, coeff) of a certificate's R_a by length, then window."""
    return sorted(combo.items(), key=lambda p: (weyl.length(t, p[0]), p[0]))


def _print_certificate(t, name, yc, w, certificate) -> None:
    """The transition recursion for name[w], with y_c written as yc."""
    from .rings import yrational_str

    v, a, c, combo = certificate
    print(f"w = {w}")
    print(f"a = {a}  v = {v}  c = {c}")
    print(f"{name}[{w}] = ((1+b*{yc})*(1+b*x{a})*R - {name}[{v}]) / b  where R is:")
    for u, coeff in _by_length(t, combo):
        print(f"  {name}[{u}] * ({yrational_str(coeff)})")


def cmd_fstanley(args) -> int:
    from .hecke import fstanley

    return _cmd_oracle(args, fstanley, args.method)


def cmd_kn_eval(args) -> int:
    from .kn import kn_eval

    return _cmd_oracle(args, kn_eval)


def cmd_groth_a(args) -> int:
    from . import groth_a, rings
    from .rings import poly_str

    w = parse_oneline(args.w)
    if not args.transition:
        print(poly_str(groth_a.groth_poly(w)))
        return 0
    certificate = rings.transition("A", w)
    _print_certificate("A", "G", f"y{certificate[2]}", w, certificate)
    ok = not rings.transition_residual(w, certificate, groth_a.groth_poly)
    print(f"identity: {'verified' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_kn_transition(args) -> int:
    from . import kn, rings
    from .rings import yrational_str

    t, w = args.type, parse_oneline(args.w)
    certificate = rings.transition(t, w)
    residual = rings.transition_residual(
        w, certificate, lambda u: kn.kn_eval(t, u, args.N, args.D)
    )
    if args.json:
        v, a, c, combo = certificate
        terms = [{"w": list(u), "coeff": yrational_str(x)} for u, x in _by_length(t, combo)]
        doc = {"type": t, "w": list(w), "a": a, "v": list(v), "c": c, "terms": terms}
        print(json.dumps({**doc, "N": args.N, "D": args.D, "residual": yrational_str(residual)}))
    else:
        _print_certificate(t, "KN", "y_c", w, certificate)
        print(f"residual at N={args.N} D={args.D}: {yrational_str(residual)}")
    return 1 if residual else 0


# -- the verification battery -------------------------------------------------


def _check_golden_expansion(t, expected):
    got = expand_mod.expand_grassmannian(t, parse_oneline("-3,4,-1,5,2")).terms
    return got == expected, f"got {sorted(got.items())}"


def _check_transition_step():
    w = parse_oneline("-3,4,-1,5,2")
    # (coefficient, beta exponent l(u) - l(w)) of every term
    expected = {
        parse_oneline("-3,4,2,-1"): (1, 0),
        parse_oneline("-3,4,-2,1"): (1, 0),
        parse_oneline("-3,4,-2,-1"): (1, 1),
        parse_oneline("-3,4,1,-2"): (1, 1),
        parse_oneline("-3,4,-1,-2"): (1, 2),
    }
    for t in ("B", "C"):
        lw = weyl.length(t, w)
        got = {
            u: (coeff, weyl.length(t, u) - lw)
            for u, coeff in expand_mod.transition_step(t, w).items()
        }
        if got != expected:
            return False, f"{t} gave {sorted((tuple(u), c) for u, c in got.items())}"
    return True, ""


def _check_skew():
    sh = ShiftedSkewShape((5, 3, 1), (2,))
    eB = expand_mod.expand_grassmannian("B", tableaux.w_shape("B", sh))
    eD = expand_mod.expand_grassmannian("D", tableaux.w_shape("D", sh))
    if eB.terms != eD.terms:
        return False, "B and D routes disagree"
    lhs = expand_mod.expansion_poly(eB, 3, 6)
    rhs = tableaux.gp(sh, 3, 6)
    return lhs == rhs, "numeric mismatch"


def _check_gq_gp():
    from .rings import BETA

    num_vars, bound = 3, 6
    for n in (1, 2, 3):
        lhs = tableaux.gq(ShiftedSkewShape((n,)), num_vars, bound)
        rhs = (
            2 * tableaux.gp(ShiftedSkewShape((n,)), num_vars, bound)
            + BETA * tableaux.gp(ShiftedSkewShape((n + 1,)), num_vars, bound)
        )
        if lhs != rhs:
            return False, f"GQ relation fails at n={n}"
    one = tableaux.gp(ShiftedSkewShape((1,)), num_vars, bound)
    two = tableaux.gp(ShiftedSkewShape((2,)), num_vars, bound)
    return two == one * one, "GP_(2) != GP_(1)^2"


def _check_method_agreement():
    from . import hecke

    for t in ("B", "C", "D"):
        for w in weyl.group_elements(t, 3):
            if weyl.length(t, w) <= 3:
                a = hecke.fstanley(t, w, 3, 5)
                b = hecke.fstanley(t, w, 3, 5, "unimodal")
                if a != b:
                    return False, f"methods disagree at ({t}, {w})"
    return True, ""


def _check_grassmannian_law():
    from . import hecke

    for t in ("B", "C", "D"):
        for w in weyl.group_elements(t, 3):
            if w.is_grassmannian():
                lam = weyl.shape(t, w)
                fn = tableaux.gp if t in ("B", "D") else tableaux.gq
                if hecke.fstanley(t, w, 3, 6) != fn(ShiftedSkewShape(lam), 3, 6):
                    return False, f"law fails at ({t}, {w})"
    return True, ""


def _check_kn_oracle():
    from . import kn, rings
    from .rings import BETA, ONE

    num_vars, bound = 2, 4
    w = parse_oneline("-2,1")
    y1 = rings.yvar(1)
    for t, fn in (("B", tableaux.gp), ("C", tableaux.gq)):
        got = kn.kn_eval(t, w, num_vars, bound)
        want = (
            y1 * fn(ShiftedSkewShape((1,)), num_vars, bound)
            + (ONE + BETA * y1) * fn(ShiftedSkewShape((2,)), num_vars, bound)
        )
        if got != want:
            return False, f"oracle fails in type {t}"
    return True, ""


def _check_transitions(types, G, rank, monk_rank, ks):
    """The transition identity at each element of W_rank with a descent and
    the Monk identity at each (u, k), u in W_monk_rank and k in ks, for each
    type t, with G(t, u) the double Grothendieck polynomial (the Monk rule
    cut at the truncation of G)."""
    from . import rings

    for t in types:
        Gt = functools.partial(G, t)
        for w in weyl.group_elements(t, rank):
            if not w.is_grassmannian():
                residual = rings.transition_residual(w, rings.transition(t, w), Gt)
                if residual:
                    return False, f"transition fails at ({t}, {w})"
        for u in weyl.group_elements(t, monk_rank):
            for k in ks:
                if not rings.monk_identity_holds(t, u, k, Gt):
                    return False, f"Monk identity fails at ({t}, {u}, k={k})"
    return True, ""


def _check_length_rule():
    """length_increment_ok against the lengths themselves, at each element
    of W_3 and each reflection t_ij of its type with j <= 4, the
    reflections listed once per type."""
    for t in ("A", "B", "C", "D"):
        reflections = [(i, j, weyl.reflection(i, j)) for j in range(1, 5) for i in range(-4, j)
                       if weyl.is_valid_reflection(t, i, j)]
        for w in weyl.group_elements(t, 3):
            lw = weyl.length(t, w)
            for i, j, tij in reflections:
                direct = weyl.length(t, w * tij) == lw + 1
                if direct != weyl.length_increment_ok(t, w, i, j):
                    return False, f"length rule disagrees at ({t}, {w}, t_({i},{j}))"
    return True, ""


def _check_supersym():
    from . import hecke, rings

    num_vars, bound = 3, 6
    for t in ("B", "C", "D"):
        for w in weyl.group_elements(t, 2):
            if not rings.supersym_check(hecke.fstanley(t, w, num_vars, bound)):
                return False, f"F^{t}_{w} not supersymmetric"
    # the strict partitions of size at most 4
    for lam in [(), (4,), (3,), (3, 1), (2,), (2, 1), (1,)]:
        for fn in (tableaux.gp, tableaux.gq):
            if not rings.supersym_check(fn(ShiftedSkewShape(lam), num_vars, bound)):
                return False, f"{fn.__name__} {lam} not supersymmetric"
    return True, ""


def _check_quasisym():
    from . import hecke
    from .rings import TruncPoly

    num_vars, bound = 3, 5
    for w in weyl.group_elements("C", 2):
        lw = weyl.length("C", w)
        total = TruncPoly.zero(bound)
        for a in hecke.hecke_words("C", w, bound):
            if hecke.mperm(a) == a:
                total = total + TruncPoly.beta(len(a) - lw) * hecke.quasi(a, num_vars, bound)
        if total != hecke.fstanley("C", w, num_vars, bound):
            return False, f"K-expansion fails at {w}"
    return True, ""


def _check_positivity_sweep():
    # expand._step asserts the length raise, nonnegativity, descent in the
    # LD order and the support bound at every step of each expansion
    for w in weyl.group_elements("B", 3):
        expand_mod.expand_grassmannian("B", w)
    return True, ""


def _check_pi_braid(seed=0):
    import random

    from . import rings
    from .rings import TruncPoly

    rng = random.Random(seed)
    xs = [rings.xvar(i) for i in range(1, 5)]
    for _ in range(5):
        f = TruncPoly.const(rng.randint(-3, 3))
        for _ in range(4):
            term = TruncPoly.const(rng.randint(-2, 2))
            for x in xs:
                term = term * (x ** rng.randint(0, 2)) if rng.random() < 0.6 else term
            f = f + term
        for i in (1, 2):
            lhs = rings.pi_operator(i, rings.pi_operator(i + 1, rings.pi_operator(i, f)))
            rhs = rings.pi_operator(i + 1, rings.pi_operator(i, rings.pi_operator(i + 1, f)))
            if lhs != rhs:
                return False, f"braid relation fails (i={i})"
        if rings.pi_operator(1, rings.pi_operator(3, f)) != rings.pi_operator(
            3, rings.pi_operator(1, f)
        ):
            return False, "commuting relation fails"
    return True, ""


# the evaluators G(t, u) of the identity checks, each looking its oracle up
# at call time, so a rebinding of groth_poly or kn_eval reaches it
def _groth_a_G(t, u):
    from . import groth_a

    return groth_a.groth_poly(u)


def _kn_G(t, u):
    from . import kn

    return kn.kn_eval(t, u, 2, 4)


CHECKS = [
    ("golden-expansion-B", functools.partial(_check_golden_expansion, "B", {
        (4, 2, 1): 4, (4, 3): 2, (5, 2): 2, (4, 3, 1): 5, (5, 2, 1): 5, (5, 3): 3, (5, 3, 1): 6,
    })),
    ("golden-expansion-C", functools.partial(_check_golden_expansion, "C", {
        (4, 2, 1): 2, (4, 3): 2, (5, 2): 2, (4, 3, 1): 3, (5, 2, 1): 3, (5, 3): 3, (5, 3, 1): 4,
    })),
    ("transition-step", _check_transition_step),
    ("skew-consistency", _check_skew),
    ("gq-gp-relations", _check_gq_gp),
    ("method-agreement", _check_method_agreement),
    ("grassmannian-law", _check_grassmannian_law),
    ("type-A-transitions", functools.partial(
        _check_transitions, "A", _groth_a_G, 4, 3, (1, 2, 3),
    )),
    ("kn-oracle", _check_kn_oracle),
    ("bcd-transitions", functools.partial(
        _check_transitions, "BCD", _kn_G, 2, 2, (1, 2),
    )),
    ("length-rule-equivalence", _check_length_rule),
    ("supersymmetry", _check_supersym),
    ("quasisym-identity", _check_quasisym),
    ("positivity-sweep", _check_positivity_sweep),
    ("pi-braid-relations", _check_pi_braid),
]


def _run_check(index: int) -> tuple[str, bool, str]:
    name, fn = CHECKS[index]
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        return name, False, f"raised {exc!r}"
    return name, bool(ok), detail


def cmd_verify_suite(args) -> int:
    """Run the battery, or with --check only the named checks, in CHECKS
    order and in this process; each FAIL line is followed by the command
    that reruns it.  --seed rebinds the pi-braid check, found by its name,
    for this run alone.  --stats adds one JSON line on stderr mapping each
    check run to its wall seconds; _run_check is looked up at each call, so
    a rebinding of it is timed too."""
    names = [name for name, _ in CHECKS]
    for name in args.check or ():
        if name not in names:
            raise ValueError(f"unknown check {name!r}; the checks are {', '.join(names)}")
    default = CHECKS[:]
    if args.seed is not None:
        at = names.index("pi-braid-relations")
        CHECKS[at] = ("pi-braid-relations", functools.partial(_check_pi_braid, args.seed))
    results, seconds = [], {}
    try:
        for i, name in enumerate(names):
            if args.check and name not in args.check:
                continue
            start = time.perf_counter()
            results.append(_run_check(i))
            seconds[name] = round(time.perf_counter() - start, 6)
    finally:
        CHECKS[:] = default
    if args.stats:
        print(json.dumps(seconds), file=sys.stderr)
    seed = "" if args.seed is None else f" --seed {args.seed}"
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if not ok and detail else ""))
        if not ok:
            print(f"  reproduce: ktrans verify-suite --check {name}{seed}")
            failed += 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ktrans",
        description="Transition calculus for K-Stanley symmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        return value

    def num_vars(text):
        from . import rings

        value = positive_int(text)
        if value > rings.MAX_INDEX:
            raise argparse.ArgumentTypeError(f"must be at most {rings.MAX_INDEX}")
        return value

    def nonneg_int(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be nonnegative")
        return value

    def window(p, types=""):
        p.add_argument("--w", required=True, help="one-line window, e.g. -3,4,-1,5,2")
        if types:
            p.add_argument("--type", choices=list(types), default="B")

    def truncation(p):
        p.add_argument("--N", type=num_vars, default=3, help="number of z variables")
        p.add_argument("--D", type=nonneg_int, default=6, help="total degree bound")
        p.add_argument("--json", action="store_true")

    def document(p):
        p.add_argument("--json", action="store_true")
        p.add_argument("--stats", action="store_true", help="memo and cache counts as one JSON line on stderr")

    p = sub.add_parser("length", help="Coxeter length of a signed permutation")
    window(p, "ABCD")
    p.set_defaults(fn=cmd_length)

    p = sub.add_parser("fstanley", help="K-Stanley symmetric function, truncated")
    window(p, "BCD")
    truncation(p)
    p.add_argument("--method", choices=["compat", "unimodal"], default="compat")
    p.set_defaults(fn=cmd_fstanley)

    for name, fn in (("gp", tableaux.gp), ("gq", tableaux.gq)):
        p = sub.add_parser(name, help=f"K-theoretic Schur {name[-1].upper()}-function")
        p.add_argument("--shape", type=_shape, required=True)
        p.add_argument("--inner", type=_shape, default=())
        truncation(p)
        p.set_defaults(fn=lambda a, f=fn: _cmd_gpgq(a, f))

    p = sub.add_parser("expand", help="expand F_w into Grassmannian terms")
    window(p, "BCD")
    document(p)
    p.set_defaults(fn=lambda a: _serve_expansion(
        a, lambda: expand_mod.expand_grassmannian(a.type, parse_oneline(a.w))
    ))

    p = sub.add_parser("skew", help="expand a skew GP/GQ function")
    p.add_argument("--basis", choices=["GP", "GQ"], required=True)
    p.add_argument("--outer", type=_shape, required=True)
    p.add_argument("--inner", type=_shape, default=())
    document(p)
    p.set_defaults(fn=lambda a: _serve_expansion(
        a, lambda: expand_mod.skew_expansion(a.basis, a.outer, a.inner)
    ))

    p = sub.add_parser("groth-a", help="type A double Grothendieck polynomial")
    window(p)
    p.add_argument("--transition", action="store_true")
    p.set_defaults(fn=cmd_groth_a)

    p = sub.add_parser("kn-eval", help="classical-type double Grothendieck series at truncation")
    window(p, "BCD")
    truncation(p)
    p.set_defaults(fn=cmd_kn_eval)

    p = sub.add_parser("kn-transition", help="transition certificate with residual")
    window(p, "BCD")
    truncation(p)
    p.set_defaults(fn=cmd_kn_transition)

    p = sub.add_parser("verify-suite", help="run the identity battery")
    # accepted and ignored: the checks run in this process, and
    # bench/worker.py still passes --jobs 1
    p.add_argument("--jobs", type=positive_int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--check", action="append", metavar="NAME", help="run only this check (repeatable)")
    p.add_argument("--stats", action="store_true",
                   help="wall seconds per check as one JSON line on stderr")
    p.set_defaults(fn=cmd_verify_suite)

    return parser


_VALUE_FLAGS = {"--w", "--shape", "--inner", "--outer"}


def _merge_value_flags(argv: list[str]) -> list[str]:
    # windows like "-2,1" start with a dash; glue them to their flag so
    # argparse does not mistake them for options
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    """Run one command: exit 0 ok, 1 verification failure, 2 usage error,
    a ValueError printed as one line: a malformed input, or one too large
    to compute (an engine chain too deep, a groth_a pass past MAX_TERMS)."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_value_flags(list(argv)))
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
