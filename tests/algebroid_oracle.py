"""Reference canonicalizers of the tensor powers over the base.

These are the loops that smashtwist.algebroid used before one canonicalizer
served every leg count: a two-leg canonicalizer, a separate three-leg one
that staged the right factor before reducing the middle one, and the
three-leg product built on it.  Tests compare the production code against
them.  Nothing in the package imports this module.
"""

from __future__ import annotations

from smashtwist.algebroid import TensorOverA
from smashtwist.ncpoly import _bump


def tensor_from_pairs(bd, pairs) -> TensorOverA:
    """Canonical form in the tensor square: items (l, r) or (l, r, c)."""
    out: dict = {}
    for item in pairs:
        l, r = item[0], item[1]
        c = item[2] if len(item) > 2 else None
        for (er, wr), cr in r.terms.items():
            base_c = cr if c is None else c * cr
            if not any(er):
                for (el, wl), cl in l.terms.items():
                    _bump(out, (el, wl, wr), base_c * cl)
                continue
            for apoly, wj, cs in bd.right_split(er, wr):
                moved = bd.total(bd.target(apoly), l)
                for (el, wl), cl in moved.terms.items():
                    _bump(out, (el, wl, wj), base_c * cs * cl)
    return TensorOverA(bd, 2, out)


def tensor_from_triples(bd, triples) -> TensorOverA:
    """Canonical form in the threefold tensor: items (l, m, r) or (l, m, r, c)."""
    staged = []
    for item in triples:
        l, m, r = item[0], item[1], item[2]
        c = item[3] if len(item) > 3 else None
        for (er, wr), cr in r.terms.items():
            base_c = cr if c is None else c * cr
            if not any(er):
                staged.append((l, m, wr, base_c))
                continue
            for apoly, wj, cs in bd.right_split(er, wr):
                staged.append((l, bd.total(bd.target(apoly), m), wj, base_c * cs))
    out: dict = {}
    for l, m, wr, c in staged:
        for (em, wm), cm in m.terms.items():
            if not any(em):
                for (el, wl), cl in l.terms.items():
                    _bump(out, (el, wl, wm, wr), c * cm * cl)
                continue
            for apoly, wj, cs in bd.right_split(em, wm):
                moved = bd.total(bd.target(apoly), l)
                for (el, wl), cl in moved.terms.items():
                    _bump(out, (el, wl, wj, wr), c * cm * cs * cl)
    return TensorOverA(bd, 3, out)


def mul3(S: TensorOverA, T: TensorOverA) -> TensorOverA:
    """Component-wise product of two threefold tensors, recanonicalized."""
    bd = S.bd
    prod, z = bd.total.on_basis, bd._zero_exp
    triples = []
    for (e1, w1, m1, r1), c1 in S.terms.items():
        for (e2, w2, m2, r2), c2 in T.terms.items():
            triples.append((prod((e1, w1), (e2, w2)), prod((z, m1), (z, m2)),
                            prod((z, r1), (z, r2)), c1 * c2))
    return tensor_from_triples(bd, triples)
