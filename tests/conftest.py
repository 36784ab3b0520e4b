"""Shared test helpers."""

from ncpoly_oracle import from_letters, to_letters
from smashtwist.hopf import twist_from_exponent
from smashtwist.ncpoly import NCPoly, _bump
from smashtwist.scalars import TruncSeries
from smashtwist.smash import SmashElem


def trivial_twist(bialg):
    """The twist exp(0) = 1 (x) 1."""
    return twist_from_exponent(bialg, NCPoly.zero(bialg.rs, 2))


def smash_elem(alg, a, p):
    """a (x) p on the smash carrier of ``alg``, for a coordinate polynomial
    ``a`` and a single-leg Hopf element ``p``."""
    out = {}
    for e, ca in a.terms.items():
        for (w,), cp in p.terms.items():
            _bump(out, (e, w), ca * cp)
    return SmashElem(alg, out)


def normalize_rightmost(rs, word):
    """Independent rewriting strategy: resolve the rightmost inversion first.

    Used as the confluence oracle against the kernel's leftmost-first
    normalizer; both must produce identical normal forms.  It rewrites the
    (leg, rank) letters of the per-leg word ``word``.
    """
    nlegs = len(word)
    out = {}
    stack = [(to_letters(word), TruncSeries.one(rs.order))]
    while stack:
        w, c = stack.pop()
        idx = -1
        for i in range(len(w) - 2, -1, -1):
            if w[i] > w[i + 1]:
                idx = i
                break
        if idx < 0:
            prev = out.get(w)
            s = c if prev is None else prev + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
            continue
        (l1, r1), (l2, r2) = w[idx], w[idx + 1]
        stack.append((w[:idx] + (w[idx + 1], w[idx]) + w[idx + 2:], c))
        if l1 == l2:
            for cw, cc in rs._corr.get((r1, r2), ()):
                nw = w[:idx] + tuple((l1, r) for r in cw) + w[idx + 2:]
                stack.append((nw, c * cc))
    return {from_letters(w, nlegs): c for w, c in out.items() if not c.is_zero()}
