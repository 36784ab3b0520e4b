"""Bialgebra structure on the enveloping algebra: primitive coproduct,
counit, twists, twisted coproducts and R-matrices.

Every generator is primitive, Delta(X) = X(x)1 + 1(x)X, and the counit kills
every generator, so the coproduct of a PBW word is the sum over all splits of
its letters into two legs.  A twist is the two-leg element F = exp(t) built
from its exponent t, with inverse exp(-t); constructing one only builds the
pair.  Whether they are inverse, normalized and a cocycle is reported, with a
witness, by the residual checks (``check-twist`` runs them all), never raised
while the problem is built.  The twisted coproduct F Delta(x) F^{-1}
is computed through the exponent, as exp(ad t) applied to Delta(x): t has far
fewer terms than F.  Identity checks return residual elements rather than
booleans: a nonzero residual pinpoints the failing term and h-order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .ncpoly import COORDINATE, NCPoly, RewriteSystem, _bump, memoized
from .scalars import TruncSeries


class InvalidTwistError(ValueError):
    """Raised where a construction needs a law the twist fails: ``theorem``
    refuses a twist whose shifted twistor laws do not hold."""


class BialgebraPresentation:
    """The Hopf-side alphabet with its primitive coproduct and counit."""

    def __init__(self, rs: RewriteSystem):
        for g in rs.generators:
            if g.sort == COORDINATE:
                raise ValueError(
                    "coordinate generators do not belong to the Hopf alphabet"
                )
        self.rs = rs

    @property
    def order(self) -> int:
        return self.rs.order

    # -- coproduct and counit ------------------------------------------

    @memoized
    def word_splits(self, ranks) -> tuple:
        """All two-leg splits of a PBW word with multiplicities.

        Returns ((left_ranks, right_ranks, multiplicity), ...) covering the
        expansion of a product of primitive letters; both halves inherit the
        sorted order, so no renormalization is needed.
        """
        counts: dict = {}
        n = len(ranks)
        for mask in range(1 << n):
            left = tuple(ranks[i] for i in range(n) if mask >> i & 1)
            right = tuple(ranks[i] for i in range(n) if not mask >> i & 1)
            counts[(left, right)] = counts.get((left, right), 0) + 1
        return tuple((l, r, m) for (l, r), m in counts.items())

    def coproduct_on_leg(self, p: NCPoly, leg: int) -> NCPoly:
        """Apply the primitive coproduct to one leg (1..n) of an n-leg element.

        The letters of that leg are distributed over legs ``leg`` and
        ``leg + 1`` of the (n+1)-leg result; the legs after it move up by one.
        """
        if p.rs is not self.rs:
            raise ValueError("element does not live over this alphabet")
        i = leg - 1
        out: dict = {}
        for word, c in p.terms.items():
            head, tail = word[:i], word[leg:]
            for left, right, mult in self.word_splits(word[i]):
                _bump(out, head + (left, right) + tail, c * mult)
        return NCPoly(p.rs, p.nlegs + 1, out)

    def counit(self, p: NCPoly) -> TruncSeries:
        """Coefficient of the empty word; every generator maps to zero."""
        if p.rs is not self.rs:
            raise ValueError("element does not live over this alphabet")
        if p.nlegs != 1:
            raise ValueError("counit expects a single-leg element")
        return p.coefficient(((),))

    def counit_on_leg(self, p: NCPoly, leg: int) -> NCPoly:
        """Contract one tensor leg (1..n) with the counit.

        Only terms with no letter in that leg survive; the legs after it
        move down by one.
        """
        i = leg - 1
        terms = {word[:i] + word[leg:]: c for word, c in p.terms.items() if not word[i]}
        return NCPoly(p.rs, p.nlegs - 1, terms)


class Twist:
    """The twist F = exp(t) with its inverse exp(-t); ``exponent`` is t.  It
    checks no law: normalization and the cocycle are reported, so a twist
    that fails them still gets its witness."""

    def __init__(self, bialg: BialgebraPresentation, t: NCPoly):
        self.bialg = bialg
        self.exponent = t
        self.F = t.exp_truncated()
        self.F_inv = (-t).exp_truncated()

    def is_trivial(self) -> bool:
        return self.F == NCPoly.one(self.bialg.rs, 2)

    @cached_property
    def r_matrix(self) -> NCPoly:
        return r_matrix_from_twist(self.bialg, self)


def twist_from_exponent(bialg: BialgebraPresentation, t: NCPoly) -> Twist:
    """Build the twist exp(t) with inverse exp(-t).

    ``t`` must be a two-leg element with no h^0 part so both exponentials
    terminate at the truncation order; these are the only checks here.
    """
    if t.nlegs != 2:
        raise ValueError("twist exponent must be a two-leg element")
    if not t.has_no_constant_order():
        raise ValueError("twist exponent has a nonzero h^0 component")
    return Twist(bialg, t)


def trivial_twist(bialg: BialgebraPresentation) -> Twist:
    return twist_from_exponent(bialg, NCPoly.zero(bialg.rs, 2))


def check_cocycle(bialg: BialgebraPresentation, twist: Twist) -> dict:
    """Residuals of the cocycle identity for the twist and for its inverse.

    Both residuals are three-leg elements; the twist is a normalized cocycle
    iff both are zero at the truncation order.
    """
    F, Fi = twist.F, twist.F_inv
    f12 = F.place_legs((1, 2), 3)
    f23 = F.place_legs((2, 3), 3)
    cop_left = bialg.coproduct_on_leg(F, 1)
    cop_right = bialg.coproduct_on_leg(F, 2)
    direct = f12 * cop_left - f23 * cop_right

    fi12 = Fi.place_legs((1, 2), 3)
    fi23 = Fi.place_legs((2, 3), 3)
    icop_left = bialg.coproduct_on_leg(Fi, 1)
    icop_right = bialg.coproduct_on_leg(Fi, 2)
    inverse = icop_left * fi12 - icop_right * fi23

    return {"cocycle": direct, "inverse-cocycle": inverse}


class CoproductMap:
    """Primitive coproduct or its conjugation by a twist, leg-aware.

    Used wherever a construction is parameterized by "which coproduct":
    ``twist=None`` gives the primitive one, otherwise F Delta(.) F^{-1}.
    With F = exp(t) that conjugation is exp(ad t) = sum_k ad_t^k / k!, with
    t on the two destination legs.  It is exact in the truncated ring: t has
    no h^0 part, so ad_t^k(x) vanishes below h^k and the series stops at the
    first zero term, by k = N at the latest.
    """

    def __init__(self, bialg: BialgebraPresentation, twist: Twist | None = None):
        self.bialg = bialg
        self.twist = twist

    def __call__(self, p: NCPoly) -> NCPoly:
        return self._conjugate(self.bialg.coproduct_on_leg(p, 1), 1)

    def on_leg(self, p: NCPoly, leg: int) -> NCPoly:
        """This coproduct applied to one leg of an n-leg element."""
        return self._conjugate(self.bialg.coproduct_on_leg(p, leg), leg)

    def _conjugate(self, prim: NCPoly, leg: int) -> NCPoly:
        """F prim F^{-1}, with F on legs ``leg`` and ``leg + 1``."""
        if self.twist is None:
            return prim
        acc = term = prim
        t = self.twist.exponent.place_legs((leg, leg + 1), prim.nlegs)
        for k in range(1, self.bialg.order + 1):
            term = t.commutator(term).scale(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
        return acc

    @memoized
    def word_splits(self, ranks) -> tuple:
        """Two-leg Sweedler data of a PBW word: ((left, right, coeff), ...),
        each coefficient canonical in the problem's intern table."""
        poly = self(NCPoly(self.bialg.rs, 1, {(ranks,): self.bialg.rs.unit}))
        return tuple((l, r, c) for (l, r), c in poly.terms.items())


def r_matrix_from_twist(bialg: BialgebraPresentation, twist: Twist) -> NCPoly:
    """R = F_21 F^{-1}, the triangular R-matrix generated by the twist; the
    twist keeps it as ``Twist.r_matrix``."""
    return twist.F.swap_legs() * twist.F_inv


def inv_unipotent(p: NCPoly) -> NCPoly:
    """Inverse of an element whose h^0 part is the unit (geometric series)."""
    rs, nlegs = p.rs, p.nlegs
    u = NCPoly.one(rs, nlegs) - p
    if not u.has_no_constant_order():
        raise ValueError("element is not unipotent in h")
    acc = NCPoly.one(rs, nlegs)
    term = acc
    for _ in range(rs.order):
        term = term * u
        if term.is_zero():
            break
        acc = acc + term
    return acc


def check_quasitriangular(
    bialg: BialgebraPresentation, R: NCPoly, delta: CoproductMap
) -> dict:
    """Residuals of the defining R-matrix identities against a coproduct.

    Covers the intertwining relation on every generator, both coproduct
    hexagons, the two counit contractions, and the quantum Yang-Baxter
    equation.  All residuals vanish iff (delta, R) is quasi-triangular at
    the truncation order.
    """
    rs = bialg.rs
    out = {}
    for g in rs.generators:
        dx = delta(NCPoly.gen(rs, g.name))
        out[f"intertwine:{g.name}"] = R * dx - dx.swap_legs() * R
    r13 = R.place_legs((1, 3), 3)
    r23 = R.place_legs((2, 3), 3)
    r12 = R.place_legs((1, 2), 3)
    r13r23, r13r12 = r13 * r23, r13 * r12
    out["hexagon-left"] = delta.on_leg(R, 1) - r13r23
    out["hexagon-right"] = delta.on_leg(R, 2) - r13r12
    one1 = NCPoly.one(rs, 1)
    out["counit-left"] = bialg.counit_on_leg(R, 1) - one1
    out["counit-right"] = bialg.counit_on_leg(R, 2) - one1
    # the hexagon products again: truncation is a ring quotient, so the
    # bracketing does not change the element
    out["yang-baxter"] = r12 * r13r23 - r23 * r13r12
    return out


def classical_r_extract(R: NCPoly):
    """First-order part r of R = 1(x)1 + h r + ... and its CYBE residual.

    Fails unless the h^0 part of R is exactly the unit.  The residual is the
    classical Yang-Baxter bracket [r12, r13] + [r12, r23] + [r13, r23]
    assembled from leg embeddings.
    """
    if R.h_coefficient(0) != NCPoly.one(R.rs, 2):
        raise ValueError("constant-order part of R is not the unit")
    r = R.h_coefficient(1)
    r12 = r.place_legs((1, 2), 3)
    r13 = r.place_legs((1, 3), 3)
    r23 = r.place_legs((2, 3), 3)
    cybe = (
        r12.commutator(r13) + r12.commutator(r23) + r13.commutator(r23)
    )
    return r, cybe
