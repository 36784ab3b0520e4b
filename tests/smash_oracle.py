"""Reference maps on the smash carrier that the package does not need.

``action_on_base`` is the representation of a smash product on its
coordinate algebra; tests check that it is a module action.  Nothing in the
package imports this module.
"""

from __future__ import annotations

from smashtwist.modalg import PolyCoord
from smashtwist.ncpoly import _bump


def action_on_base(product, u, b: PolyCoord) -> PolyCoord:
    """(a (x) L) sends b to a * (L acting on b), with the star of ``product``."""
    alg = product.algebra
    out: dict = {}
    for (e, w), c in u.terms.items():
        acted: dict = {}
        for eb, cb in b.terms.items():
            for e2, c2 in alg.rep.act_word(w, eb).terms.items():
                _bump(acted, e2, c2 * cb)
        acted = PolyCoord(alg.dim, alg.order, acted)
        if acted.is_zero():
            continue
        part = product.star(PolyCoord.monomial(alg.dim, alg.order, e), acted)
        for e2, c2 in part.terms.items():
            _bump(out, e2, c2 * c)
    return PolyCoord(alg.dim, alg.order, out)
