"""Reference PBW kernel for differential tests.

Two generations of replaced code live here.

The product, rewrite and Jacobi loops are those smashtwist.ncpoly used before
its product skipped truncated pairs: the product forms every pair of terms,
the rewrite resolves the leftmost descent of the word as given (moving
letters across legs one swap at a time, with no cache), and the Jacobi check
recomputes every commutator of every triple.

The leg bookkeeping is the kernel that stored an n-leg word as one flat
tuple of (leg, rank) letters, with leg tag 0 on a single-leg word and tags
1..n otherwise: its leg-sorted normal form, ``place_legs``,
``coproduct_on_leg``, ``counit_on_leg`` and string form.  These work on
letter words; ``to_letters`` and ``from_letters`` translate between them and
the package's words, a tuple of one rank tuple per leg.

Tests compare the production kernel against all of them.  Nothing in the
package imports this module.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from smashtwist.ncpoly import NCPoly, _bump
from smashtwist.scalars import TruncSeries

_leg = itemgetter(0)


# -- adapters between the two word formats -----------------------------------


def leg_tag(leg: int, nlegs: int) -> int:
    """The letter tag of leg ``leg`` (1..nlegs): 0 on a single-leg word."""
    return 0 if nlegs == 1 else leg


def to_letters(word) -> tuple:
    """A per-leg word as one tuple of (leg, rank) letters, sorted by leg."""
    nlegs = len(word)
    return tuple((leg_tag(leg, nlegs), r) for leg, ranks in enumerate(word, 1) for r in ranks)


def from_letters(letters, nlegs: int) -> tuple:
    """A letter word as a per-leg word; each leg keeps its letters' order."""
    return tuple(
        tuple(r for l, r in letters if l == leg_tag(leg, nlegs)) for leg in range(1, nlegs + 1)
    )


def to_letter_terms(p: NCPoly) -> dict:
    return {to_letters(w): c for w, c in p.terms.items()}


def from_letter_terms(rs, nlegs: int, terms: dict) -> NCPoly:
    out = {from_letters(w, nlegs): c for w, c in terms.items()}
    assert len(out) == len(terms), "two letter words share one per-leg word"
    return NCPoly(rs, nlegs, out)


# -- the product, rewrite and Jacobi loops ---------------------------------


def normalize_word(rs, word) -> dict:
    """PBW normal form by leftmost-descent rewriting of the unsorted letter word."""
    out: dict = {}
    one = TruncSeries.one(rs.order)
    stack = [(word, one)]
    while stack:
        w, c = stack.pop()
        idx = -1
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                idx = i
                break
        if idx < 0:
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
            continue
        (l1, r1), (l2, r2) = w[idx], w[idx + 1]
        swapped = w[:idx] + (w[idx + 1], w[idx]) + w[idx + 2 :]
        stack.append((swapped, c))
        if l1 == l2:
            corr = rs._corr.get((r1, r2))
            if corr:
                for cw, cc in corr:
                    nw = w[:idx] + tuple((l1, r) for r in cw) + w[idx + 2 :]
                    stack.append((nw, c * cc))
    return {w: c for w, c in out.items() if not c.is_zero()}


def mul(p: NCPoly, q: NCPoly) -> NCPoly:
    """All-pairs product: every pair is formed, truncated ones included."""
    out: dict = {}
    for w1, c1 in to_letter_terms(p).items():
        for w2, c2 in to_letter_terms(q).items():
            c = c1 * c2
            if c.is_zero():
                continue
            for w, k in normalize_word(p.rs, w1 + w2).items():
                _bump(out, w, c * k)
    return from_letter_terms(p.rs, p.nlegs, out)


def commutator(p: NCPoly, q: NCPoly) -> NCPoly:
    return mul(p, q) - mul(q, p)


def jacobi_residuals(rs):
    """Nonzero Jacobi residuals, each double commutator computed in full."""
    bad = []
    gens = [NCPoly.gen(rs, g.name) for g in rs.generators]
    names = [g.name for g in rs.generators]
    n = len(gens)
    for a in range(n):
        for b in range(a + 1, n):
            ab = commutator(gens[a], gens[b])
            for c in range(b + 1, n):
                res = (
                    commutator(ab, gens[c])
                    + commutator(commutator(gens[b], gens[c]), gens[a])
                    + commutator(commutator(gens[c], gens[a]), gens[b])
                )
                if not res.is_zero():
                    bad.append((names[a], names[b], names[c], res))
    return bad


# -- leg bookkeeping on letter words -----------------------------------------


def sorted_normalize_word(rs, word) -> dict:
    """Normal form of a letter word: sorted by leg, then assembled from
    per-leg forms, dropping cross-leg coefficient products that truncate."""
    unit = rs.unit
    out = {(): unit}
    for leg, letters in groupby(sorted(word, key=_leg), _leg):
        form = _leg_form(rs, tuple(r for _, r in letters))
        grown = {}
        for w, c in out.items():
            for ranks, k in form.items():
                v = c * k
                if not v.is_zero():
                    grown[w + tuple((leg, r) for r in ranks)] = v
        out = grown
    return out


def _leg_form(rs, ranks) -> dict:
    """Normal form {ranks: TruncSeries} of one leg's rank tuple."""
    form = {}
    stack = [(ranks, rs.unit)]
    while stack:
        w, c = stack.pop()
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                break
        else:
            prev = form.get(w)
            form[w] = c if prev is None else prev + c
            continue
        stack.append((w[:i] + (w[i + 1], w[i]) + w[i + 2 :], c))
        for cw, cc in rs._corr.get((w[i], w[i + 1]), ()):
            stack.append((w[:i] + cw + w[i + 2 :], c * cc))
    return {w: c for w, c in form.items() if not c.is_zero()}


def place_legs(terms: dict, src_nlegs: int, legs, nlegs: int) -> dict:
    """Retag the legs of letter terms: ``legs[i]`` is the tag of the
    destination of the i-th source leg; a stable re-sort by leg restores the
    normal form."""
    src = [leg_tag(i, src_nlegs) for i in range(1, src_nlegs + 1)]
    mapping = dict(zip(src, legs))
    out = {}
    for w, c in terms.items():
        nw = tuple(sorted(((mapping[l], r) for l, r in w), key=_leg))
        _bump(out, nw, c)
    return out


def coproduct_on_leg(bialg, terms: dict, src: int, dests, other_map) -> dict:
    """Distribute the letters of leg tag ``src`` over the two ``dests`` tags
    by the primitive coproduct; any other leg l is retagged to other_map[l]."""
    da, db = dests
    out: dict = {}
    for word, c in terms.items():
        src_ranks = tuple(r for l, r in word if l == src)
        rest = tuple((other_map[l], r) for l, r in word if l != src)
        for left, right, mult in bialg.word_splits(src_ranks):
            letters = rest + tuple((da, r) for r in left) + tuple((db, r) for r in right)
            nw = tuple(sorted(letters, key=_leg))
            _bump(out, nw, c * mult)
    return out


def counit_on_leg(terms: dict, nlegs: int, leg: int) -> dict:
    """Drop every term with a letter in leg tag ``leg`` and renumber the
    remaining legs to close the gap (tag 0 when one leg is left)."""
    n_out = nlegs - 1
    out: dict = {}
    for word, c in terms.items():
        if any(l == leg for l, _ in word):
            continue
        if n_out == 1:
            nw = tuple((0, r) for _, r in word)
        else:
            nw = tuple((l - 1 if l > leg else l, r) for l, r in word)
        _bump(out, nw, c)
    return out


def letters_repr(rs, nlegs: int, terms: dict) -> str:
    """The string form of letter terms: terms sorted by their letter words."""
    if not terms:
        return "0"
    names = [g.name for g in rs.generators]
    parts = []
    for w in sorted(terms):
        c = terms[w]
        if nlegs == 1:
            word = " ".join(names[r] for _, r in w) or "1"
        else:
            legs = []
            for leg in range(1, nlegs + 1):
                sub = " ".join(names[r] for l, r in w if l == leg) or "1"
                legs.append(sub)
            word = " (x) ".join(legs)
        parts.append(f"({c})*{word}")
    return " + ".join(parts)
