"""Reference twisted coproduct for differential tests.

``CoproductMap`` once conjugated the primitive coproduct by the full twist
and its inverse, F Delta(x) F^{-1}, with F and F^{-1} placed on the two
destination legs.  It now sums exp(ad t) over the twist's exponent t.  The
loop it replaced is kept here; nothing in the package imports this module.
"""

from __future__ import annotations

from smashtwist.hopf import BialgebraPresentation, Twist
from smashtwist.ncpoly import NCPoly


def twisted_on_leg(bialg: BialgebraPresentation, twist: Twist, p: NCPoly, leg: int) -> NCPoly:
    """F Delta(x) F^{-1} on leg ``leg`` of an n-leg element, F on legs
    ``leg`` and ``leg + 1`` of the (n+1)-leg result."""
    prim = bialg.coproduct_on_leg(p, leg)
    dests, n_out = (leg, leg + 1), p.nlegs + 1
    return twist.F.place_legs(dests, n_out) * prim * twist.F_inv.place_legs(dests, n_out)
