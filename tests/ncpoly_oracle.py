"""Reference PBW kernel for differential tests.

These are the product, rewrite and Jacobi loops that smashtwist.ncpoly used
before its product skipped truncated pairs: the product forms every pair of
terms, the rewrite resolves the leftmost descent of the word as given (moving
letters across legs one swap at a time, with no cache), and the Jacobi check
recomputes every commutator of every triple.  Tests compare the production
kernel against them.  Nothing in the package imports this module.
"""

from __future__ import annotations

from smashtwist.ncpoly import NCPoly, _bump, _strip
from smashtwist.scalars import TruncSeries


def normalize_word(rs, word) -> dict:
    """PBW normal form by leftmost-descent rewriting of the unsorted word."""
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
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            c = c1 * c2
            if c.is_zero():
                continue
            for w, k in normalize_word(p.rs, w1 + w2).items():
                _bump(out, w, c * k)
    return NCPoly(p.rs, p.nlegs, _strip(out))


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
