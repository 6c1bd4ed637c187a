"""Signed permutations and the classical Weyl groups B/C/D (plus type A).

A signed permutation is a bijection w of the nonzero integers with
w(-i) = -w(i) that fixes all but finitely many points.  An element is the
tuple of its window (w(1), ..., w(n)) with trailing fixed points trimmed,
so equal group elements are equal tuples.

Conventions: products compose as functions, (u*v)(i) = u(v(i)); the
simple generators are t_0 = (-1,1), t_i = (i,i+1)(-i,-i-1) for i >= 1,
and t_{-1} = (1,-2)(2,-1).  Type A elements are the signed permutations
with all-positive windows; type D requires an even number of negative
window entries.  ``length`` is the one test of that rule.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from collections.abc import Iterable


def _support(win: list[int] | tuple[int, ...]) -> int:
    """The length of the window once its trailing fixed points are trimmed."""
    n = len(win)
    while n and win[n - 1] == n:
        n -= 1
    return n


def _least_descent(win: tuple[int, ...]) -> int:
    """The LD of a trimmed window: its largest descent, 0 if it has none.
    The one LD scan; it is also the method ``least_descent``."""
    d = len(win) - 1
    while d > 0 and win[d - 1] < win[d]:
        d -= 1
    return d if d > 0 else 0  # d is -1 for the identity


class SignedPermutation(tuple):
    """A finitely supported signed permutation: the tuple of its trimmed
    window, so equality, hashing and immutability are those of the tuple.

    The identity is the empty tuple and hence falsy: test ``is_identity()``,
    never the truth value of an element.  The public constructor validates
    its window.  Windows produced by group operations (products, inverses)
    are valid by construction and go through the unchecked ``_trusted``
    instead.
    """

    __slots__ = ()

    def __new__(cls, window: Iterable[int]):
        win = list(window)
        seen = set()
        for v in win:
            if type(v) is not int or v == 0:  # bools are not entries
                raise ValueError(f"window entries must be nonzero integers: {win}")
            if abs(v) in seen:
                raise ValueError(f"repeated absolute value {abs(v)} in window {win}")
            seen.add(abs(v))
        if seen and seen != set(range(1, len(win) + 1)):
            raise ValueError(f"window {win} is not a signed permutation of 1..{len(win)}")
        return cls._trusted(win)

    @classmethod
    def _trusted(cls, win: list[int]) -> "SignedPermutation":
        """Wrap a window known to be a signed permutation of 1..len(win):
        trim its trailing fixed points by ``_support``, validate nothing."""
        del win[_support(win):]
        return tuple.__new__(cls, win)

    def __reduce__(self):
        # unpickle through the validating constructor at every protocol;
        # protocols 0 and 1 would otherwise rebuild through tuple.__new__
        return (SignedPermutation, (list(self),))

    # -- basic protocol ------------------------------------------------

    def __call__(self, i: int) -> int:
        if i == 0:
            raise ValueError("signed permutations act on nonzero integers")
        if abs(i) > len(self):
            return i
        return self[i - 1] if i > 0 else -self[-i - 1]

    def __repr__(self) -> str:
        return f"SignedPermutation({list(self)!r})"

    def __str__(self) -> str:
        return format_oneline(self)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        a, b = self, other
        if len(a) < len(b):
            a = a + tuple(range(len(a) + 1, len(b) + 1))
        # (u*v)(i) = u(v(i)), with u(-k) = -u(k) and ~v = -v - 1; past the
        # window of v, (u*v)(i) = u(i)
        win = [a[v - 1] if v > 0 else -a[~v] for v in b]
        win += a[len(b):]
        return SignedPermutation._trusted(win)

    def inverse(self) -> "SignedPermutation":
        inv = [0] * len(self)
        for i, v in enumerate(self, start=1):
            if v > 0:
                inv[v - 1] = i
            else:
                inv[~v] = -i
        return SignedPermutation._trusted(inv)

    # -- structure -----------------------------------------------------

    @property
    def support(self) -> int:
        return len(self)

    def is_identity(self) -> bool:
        return not len(self)

    least_descent = _least_descent

    def is_grassmannian(self) -> bool:
        return not self.least_descent()


IDENTITY = SignedPermutation(())


# -- one-line notation ------------------------------------------------


def parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers inside at most one pair of brackets; "" and
    "[]" are empty, and an empty entry raises ValueError."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    return tuple(int(tok) for tok in s.split(",")) if s else ()


def parse_oneline(text: str) -> SignedPermutation:
    """Parse a window by the rule of ``parse_ints``."""
    try:
        entries = parse_ints(text)
    except ValueError as exc:
        raise ValueError(f"bad one-line notation {text!r}: {exc}") from None
    return SignedPermutation(entries)


def format_oneline(w: SignedPermutation) -> str:
    return ",".join(map(str, w)) or "1"


# -- reflections and generators ---------------------------------------


@lru_cache(maxsize=None)
def reflection(i: int, j: int) -> SignedPermutation:
    """The reflection t_{ij} = (i,j)(-j,-i); t_{0j} is the sign change (-j,j)."""
    if i >= j or j <= 0:
        raise ValueError(f"reflection needs i < j with j > 0, got ({i}, {j})")
    if i == -j:
        return IDENTITY
    win = list(range(1, max(abs(i), j) + 1))
    if i > 0:
        win[i - 1], win[j - 1] = j, i
    elif i == 0:
        win[j - 1] = -j
    else:  # j |-> i and i |-> j, so -i |-> -j
        win[-i - 1], win[j - 1] = -j, i
    return SignedPermutation(win)


def is_valid_reflection(t: str, i: int, j: int) -> bool:
    """Whether t_{ij} is a reflection of type t: i < j, j > 0, i != -j, and
    i > 0 in type A, i != 0 in type D.  A type outside A-D raises
    ``check_type``'s ValueError."""
    check_type(t)
    if i >= j or j <= 0 or i == -j:
        return False
    if t == "A":
        return i > 0
    if t == "D":
        return i != 0
    return True


@lru_cache(maxsize=None)
def generator(t: str, g: int) -> SignedPermutation:
    """The simple generator t_g (s_g in type A): the one-letter word (g,)
    applied by ``_apply_word`` to the identity, which also refuses a letter
    that is not a generator of type t."""
    return SignedPermutation._trusted(_apply_word(t, [], (g,)))


def _apply_word(t: str, win: list[int], word: Iterable[int]) -> list[int]:
    """Multiply the window win on the right by the simple generators of
    word, in order and in place, and return it: t_g for g >= 1 swaps
    entries g and g + 1, t_0 negates entry 1, and t_{-1} sends (w_1, w_2)
    to (-w_2, -w_1).  win is padded with fixed points when a letter reaches
    past it.  A type outside A-D raises ``check_type``'s ValueError, and a
    letter that is not a generator of type t raises ValueError."""
    check_type(t)
    for g in word:
        if g >= 1:
            if g >= len(win):
                win.extend(range(len(win) + 1, g + 2))
            win[g - 1], win[g] = win[g], win[g - 1]
        elif g == 0:
            if t not in ("B", "C"):
                raise ValueError(f"generator 0 is not in type {t}")
            if not win:
                win.append(1)
            win[0] = -win[0]
        elif g == -1:
            if t != "D":
                raise ValueError("generator -1 only exists in type D")
            if len(win) < 2:
                win.extend(range(len(win) + 1, 3))
            win[0], win[1] = -win[1], -win[0]
        else:
            raise ValueError(f"invalid generator index {g}")
    return win


def generator_indices(t: str, n: int) -> list[int]:
    """Simple generators of W^t_n, affecting positions <= n."""
    check_type(t)
    if t == "A":
        return list(range(1, n))
    if t == "D":
        # t_{-1} moves position 2, so W^D_0 and W^D_1 are trivial
        return [-1] + list(range(1, n)) if n >= 2 else []
    return list(range(0, n))


def check_type(t: str) -> None:
    """The one rule for a group type: refuse a type outside A-D, raising
    ValueError("unknown group type <t>").  ``length``, ``generator_indices``,
    ``is_valid_reflection`` and ``_apply_word`` (so ``generator``) call it."""
    if t not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown group type {t!r}")


def check_classical(t: str, what: str) -> None:
    """Refuse a type outside B, C and D, the classical types that the
    transition recursion and the K-Stanley functions live in: raises
    ValueError("<what> needs type B, C, or D, not <t>")."""
    if t not in ("B", "C", "D"):
        raise ValueError(f"{what} needs type B, C, or D, not {t!r}")


# -- length ------------------------------------------------------------


def length(t: str, w: SignedPermutation) -> int:
    """Coxeter length of w in the group of type t, read from the window in
    one pass: inv(w) + sum over w(i) < 0 of (|w(i)| - [t = D]), where inv
    counts the pairs i < j with w(i) > w(j) (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, Props. 8.1.1 and 8.2.1; types B and C share one
    length).  The pass runs right to left and counts the entries already
    seen below w(i) by bisection, so it takes O(n log n) comparisons.  A
    type A window has no negative entries, and its length is inv(w).

    This is the one membership test of the package: a negative entry in
    type A, or an odd number of them in type D, raises ValueError
    ("... is not in the group of type t"), as does a type outside A-D
    ("unknown group type", by ``check_type``).  Callers that only validate
    call it for that."""
    check_type(t)
    seen: list[int] = []  # the entries right of w(i), sorted
    total = negs = 0
    for x in reversed(w):
        k = bisect(seen, x)
        seen.insert(k, x)
        total += k
        if x < 0:
            total -= x
            negs += 1
    if negs and (t == "A" or (t == "D" and negs % 2)):
        raise ValueError(f"{w} is not in the group of type {t}")
    return total - negs if t == "D" else total


def right_ascent(w: SignedPermutation, g: int) -> bool:
    """True iff multiplying by generator g on the right raises length by 1.
    The index alone names the case: t_0 is a generator only in types B and
    C, t_{-1} only in D.  Past the window, w(i) = i exceeds every |entry|."""
    if g >= 1:
        return g >= len(w) or w[g - 1] < w[g]
    if g == 0:
        return w.is_identity() or w[0] > 0
    if g == -1:
        return len(w) < 2 or -w[0] < w[1]
    raise ValueError(f"invalid generator index {g}")


def _raises_length(t: str, win: tuple[int, ...], i: int, j: int) -> bool:
    """The reference length-increment test: whether l(w * t_{ij}) = l(w) + 1,
    for a valid reflection with |i| < j and the window of w padded to at
    least j entries.  ``_chains`` inlines each of its cases in the loop of
    its move family, and the tests check the two against each other.

    Cases: 0 < i < j; the sign change t_{0j}; and t_{-k,j} with 0 < k < j.
    The last case carries an extra sign condition in types B and C, which
    share one length function.  The strict betweenness scans exclude the
    swapped positions themselves.
    """
    y = win[j - 1]
    if i > 0:
        x = win[i - 1]
        if x >= y:
            return False
        for e in win[i : j - 1]:
            if x < e < y:
                return False
        return True
    if i == 0:
        if y <= 0:
            return False
        for e in win[: j - 1]:
            if -y < e < y:
                return False
        return True
    k = -i
    x = win[k - 1]
    if -x >= y:
        return False
    if t in ("B", "C") and x > 0 and y > 0:
        return False
    for e in win[: k - 1]:
        if -y < e < x or -x < e < y:
            return False
    for e in win[k : j - 1]:
        if -x < e < y:
            return False
    return True


def length_increment_ok(t: str, w: SignedPermutation, i: int, j: int) -> bool:
    """Whether l(w * t_{ij}) = l(w) + 1, decided by window scans only.

    Validates the reflection, writes t_{ij} with |i| > j as t_{-j,-i}, pads
    the window of w with its fixed points up to j and asks
    ``_raises_length``, which the expansion step also calls directly.
    """
    if not is_valid_reflection(t, i, j):
        raise ValueError(f"t_({i},{j}) is not a reflection of type {t}")
    if abs(i) > j:
        i, j = -j, -i
    return _raises_length(t, w + tuple(range(len(w) + 1, j + 1)), i, j)


# -- the transition operator -------------------------------------------------


def _transition_window(w: tuple[int, ...], a: int) -> tuple[list[int], int]:
    """(untrimmed window of v, b) for the trimmed window w with LD a > 0: b
    is the largest index past a with w(b) < w(a), and v = w * t_{ab} swaps
    entries a and b.  As a is the last descent, w increases past a, so b is
    a bisection of that run (and stays inside the window, as w(i) = i >
    w(a) past it); w(b-1) < w(b) < w(a) < w(b+1), so v increases past a
    too, which is the precondition of ``_one_move``."""
    x = w[a - 1]
    b = bisect(w, x, a)
    v = list(w)
    v[a - 1], v[b - 1] = w[b - 1], x
    return v, b


def _one_move(win: list[int] | tuple[int, ...], k: int) -> tuple[int, int] | None:
    """(q, y) when R_k, in type B, C or D, fires the one move t_{-k,q} on
    the window win and nothing else, where y = w(q); None otherwise.  win
    has its fixed points implied past its end, k <= len(win), and the
    entries past k increase, as on every window of ``_transition_window``:
    q is then a bisection of that run, and q = y = len(win) + 1 when every
    entry past k lies below |w(k)|.  Its one caller, ``expand._step``, asks
    it before it builds anything and applies a hit in place; the type there
    is B, C or D, never A, where no t_{-k,q} exists.

    The lemma.  Let the entries past k increase, let x = w(k) < 0 with
    every prefix entry w(1..k-1) of absolute value < |x|, and let q be the
    first position past k with y = w(q) > |x|.  Then R_k fires exactly one
    move, t_{-k,q}, and u = w with u(k) = -y, u(q) = -x fires nothing after
    it, so the chains of ``_chains`` are w and u, each once without the
    n-move.  Proof, one family of R_k's factors at a time:
    - the B n-move needs w(k) > 0, so it does not fire;
    - t_{-k,q'} with q' > q runs first, on w alone: it needs
      w(q') > |x|, and w(q') > y as the run increases, so y lies in its
      middle scan, strictly between -x and w(q');
    - t_{-k,q} fires on w: no prefix entry lies in (-y, x) or (|x|, y),
      and no middle entry exceeds |x|;
    - t_{-k,q'} with k < q' < q needs w'(q') > -w'(k): on w
      w(q') <= |x|, and on u w(q') <= |x| < y;
    - t_{-p,k} needs w'(p) > -w'(k), t_{0k} needs w'(k) > 0 and t_{ik}
      needs w'(i) < w'(k): on w every |w(p)| < |x| and w(k) = x < 0, and
      on u every |w(p)| < |x| < y and u(k) = -y < 0.
    """
    x = win[k - 1]
    if x > 0:
        return None
    for e in win[: k - 1]:
        if e <= x or e >= -x:
            return None
    q = bisect(win, -x, k) + 1
    return (q, win[q - 1]) if q <= len(win) else (q, q)


def _chains(t: str, k: int, v: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, int]]:
    """The transition operator R_k on the trimmed window v, as chain counts.
    R_k is the product of the factors (1 + beta*t_{jk}) acting on v: in type
    B the n-factor t_{0k} first, weighted by 1/(1 + beta*y_{v(k)}), then the
    t-moves for j ascending from -(max(support, k)+1) to k-1 (a move below
    never raises length, and once a move grows the support no later t-move
    can fire).  Only moves that raise length by one fire, so a chain from v
    to u has l(u) - l(v) moves.  The result maps u, a window padded to
    max(support, k) + 1 (the furthest position any move touches, so
    distinct chains trim to distinct elements), to the numbers (plain,
    via_n) of chains without and with the n-move; the coefficient of u in
    R_k v is beta^(l(u)-l(v)) * (plain + via_n / (1 + beta*y_{v(k)})).
    The factors run in that order, one loop per move family: the type B
    n-move, tested by ``_raises_length``; t_{-k,q} for q from the top down
    to k+1; t_{-p,k} for p from k-1 down to 1; the sign change t_{0k} in
    types B and C; and t_{ik} for i from 1 to k-1.  Each family inlines its
    case of ``_raises_length``, applies its move as a swap or sign flip of
    the window, and hands the moved chains to ``_merge``.
    """
    top = max(len(v), k) + 1
    start = (*v, *range(len(v) + 1, top + 1))
    k1 = k - 1
    chains = {start: (1, 0)}
    if t == "B" and _raises_length("B", start, 0, k):
        u = list(start)
        u[k1] = -u[k1]
        chains[tuple(u)] = (0, 1)
    if t != "A":
        bc = t != "D"
        pre = start[:k1]
        for q in range(top, k, -1):
            # t_{-k,q}: the earlier moves touched positions k and past q
            # only, so every chain holds start's entries at q, in the prefix
            # 1..k-1 and in the middle k+1..q-1; only x = w(k) varies
            y = start[q - 1]
            mid = start[k : q - 1]
            moved = []
            for win, counts in chains.items():
                x = win[k1]
                if x <= -y or bc and x > 0 and y > 0:
                    continue
                for e in pre:
                    if -y < e < x or -x < e < y:
                        break
                else:
                    for e in mid:
                        if -x < e < y:
                            break
                    else:
                        u = list(win)
                        u[k1], u[q - 1] = -y, -x
                        moved.append((tuple(u), counts))
            if moved:
                _merge(chains, moved)
        for p in range(k1, 0, -1):
            # t_{-p,k}, with x = w(p) and y = w(k)
            moved = []
            for win, counts in chains.items():
                x = win[p - 1]
                y = win[k1]
                if x <= -y or bc and x > 0 and y > 0:
                    continue
                for e in win[: p - 1]:
                    if -y < e < x or -x < e < y:
                        break
                else:
                    for e in win[p:k1]:
                        if -x < e < y:
                            break
                    else:
                        u = list(win)
                        u[p - 1], u[k1] = -y, -x
                        moved.append((tuple(u), counts))
            if moved:
                _merge(chains, moved)
        if bc:
            # the sign change t_{0k}; type D has none
            moved = []
            for win, counts in chains.items():
                y = win[k1]
                if y <= 0:
                    continue
                for e in win[:k1]:
                    if -y < e < y:
                        break
                else:
                    u = list(win)
                    u[k1] = -y
                    moved.append((tuple(u), counts))
            if moved:
                _merge(chains, moved)
    for i in range(1, k):
        # t_{ik}, with x = w(i) and y = w(k)
        moved = []
        for win, counts in chains.items():
            x = win[i - 1]
            y = win[k1]
            if x >= y:
                continue
            for e in win[i:k1]:
                if x < e < y:
                    break
            else:
                u = list(win)
                u[i - 1], u[k1] = y, x
                moved.append((tuple(u), counts))
        if moved:
            _merge(chains, moved)
    return chains


def _merge(chains: dict, moved: list) -> None:
    """Merge the chains that one factor of ``_chains`` moved, each a window
    with its (plain, via_n) counts: a window already held gains both counts
    in place, and a new one is added after the others.

    Merging after the factor has run is exact.  A chain that gains counts at
    a factor cannot fire at it, as the move would lower its length, so the
    counts it gains would not have moved on; and distinct chains move to
    distinct windows, so no two moved entries share one.
    """
    for u, counts in moved:
        old = chains.get(u)
        chains[u] = counts if old is None else (old[0] + counts[0], old[1] + counts[1])


# -- words and elements --------------------------------------------------


def reduced_word(t: str, w: SignedPermutation) -> list[int]:
    """A reduced word (a_1, ..., a_l) with t_{a_1} ... t_{a_l} = w.

    Greedy right-descent stripping, preferring t_0 / t_{-1} and then the
    smallest index.  Any reduced word works for the callers here, and its
    length is l(w), which they read from it.  ``length`` refuses a w
    outside the group of type t first.
    """
    length(t, w)  # raises for a w outside the group
    word: list[int] = []
    cur = w
    while not cur.is_identity():
        for g in generator_indices(t, cur.support):
            if not right_ascent(cur, g):
                word.append(g)
                cur = cur * generator(t, g)
                break
        else:
            raise AssertionError(f"no descent found for {cur} in type {t}")
    word.reverse()
    return word


@lru_cache(maxsize=None)
def elements_up_to_length(t: str, n: int, max_len: int) -> tuple[SignedPermutation, ...]:
    """Elements of W^t_n with length <= max_len, ordered by (length, w),
    found by raising BFS: each move raises length by one, so the layer
    index is the length and each layer, sorted, is appended in turn.  A
    negative max_len keeps no element, not even the identity."""
    gens = [(g, generator(t, g)) for g in generator_indices(t, n)]
    layer = [IDENTITY]
    out = [IDENTITY] if max_len >= 0 else []
    for _ in range(max_len):
        layer = sorted({w * tg for w in layer for g, tg in gens if right_ascent(w, g)})
        out += layer
    return tuple(out)


def group_elements(t: str, n: int) -> tuple[SignedPermutation, ...]:
    """All elements of W^t_n; none is longer than n^2."""
    return elements_up_to_length(t, n, n * n)


# -- Grassmannian shapes ------------------------------------------------


def shape(t: str, w: SignedPermutation) -> tuple[int, ...]:
    """The strict partition attached to a Grassmannian signed permutation.
    ``length`` refuses a w outside the group of type t before the
    Grassmannian test, so D -1 is a non-member, not an element with a
    descent."""
    length(t, w)  # raises for a w outside the group
    if not w.is_grassmannian():
        raise ValueError(f"{w} has a descent; no Grassmannian shape")
    return _shape(t, w)


def _shape(t: str, win: tuple[int, ...]) -> tuple[int, ...]:
    """The leaf rule of ``shape``, on the window of a Grassmannian element
    of type t, checked by the caller: the negated negative entries, each
    lowered by one in type D, where a part 0 is dropped."""
    # the window increases, so its negative entries come first
    parts = [-v for v in win if v < 0]
    if t == "D":
        parts = [p - 1 for p in parts]
        if parts and parts[-1] == 0:  # distinct parts: one 0 at most
            parts.pop()
    return tuple(parts)
