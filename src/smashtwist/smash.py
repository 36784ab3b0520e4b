"""The smash product carrier and its two multiplications.

Both the undeformed product and the twist-deformed product live on the same
vector space: coordinate monomial tensor PBW word.  Multiplication is always
computed structurally, by expanding the (possibly twisted) coproduct on the
Hopf side, acting with the first Sweedler leg on the coordinate part, and
multiplying the rest; mixed words are never rewritten as strings.  The linear
map phi built from the inverse twist intertwines the two products.
"""

from __future__ import annotations

from .hopf import BialgebraPresentation, CoproductMap, Twist
from .modalg import PolyCoord, RepData, StarProduct, monomial_str, monomials_up_to
from .ncpoly import LinearCombination, NCPoly, _add_scaled, _bump, _linear, memoized
from .reporting import ResidualReport, evaluate


class SmashAlgebra:
    """Shared context: the Hopf presentation, the representation, and the
    memoized products, phi basis images and phi reports of each twist."""

    def __init__(self, bialg: BialgebraPresentation, rep: RepData):
        if bialg.rs is not rep.rs:
            raise ValueError("bialgebra and representation use different alphabets")
        self.bialg = bialg
        self.rep = rep
        self.rs = bialg.rs
        self.dim = rep.dim
        self.order = bialg.order

    @memoized
    def product(self, twist: Twist | None) -> "SmashProduct":
        """The multiplication of a twist (None: undeformed), one object per
        twist, so its memos survive across sweeps."""
        return SmashProduct(self, twist)

    @memoized
    def phi_report(self, twist: Twist, degree: int) -> ResidualReport:
        """Memoized ``verify_phi_homomorphism``: smash-verify and theorem share
        one sweep per twist and degree."""
        return verify_phi_homomorphism(self, twist, degree)

    @memoized
    def phi_image(self, twist: Twist, key) -> dict:
        """phi of the basis element ``key`` as a term dict."""
        return _transport_basis(self, twist.F_inv, key)

    @memoized
    def phi_inv_image(self, twist: Twist, key) -> dict:
        """phi_inv of the basis element ``key`` as a term dict."""
        return _transport_basis(self, twist.F, key)

    # -- element constructors -------------------------------------------

    def zero(self) -> "SmashElem":
        return SmashElem(self, {})

    def one(self) -> "SmashElem":
        exp = (0,) * self.dim
        return SmashElem(self, {(exp, ()): self.rs.unit})

    def coord_elem(self, a: PolyCoord) -> "SmashElem":
        """a as a (x) 1."""
        if a.dim != self.dim or a.order != self.order:
            raise ValueError("coordinate algebra mismatch")
        return SmashElem(self, {(e, ()): c for e, c in a.terms.items()})

    def h_elem(self, p: NCPoly) -> "SmashElem":
        """p as 1 (x) p."""
        if p.rs is not self.rs or p.nlegs != 1:
            raise ValueError("expected a single-leg element over the same alphabet")
        exp = (0,) * self.dim
        return SmashElem(
            self, {(exp, w): c for (w,), c in p.terms.items()}
        )

    def elem(self, a: PolyCoord, p: NCPoly | None = None) -> "SmashElem":
        """a (x) p for a coordinate polynomial and a Hopf element."""
        left = self.coord_elem(a)
        if p is None:
            return left
        out: dict = {}
        for (e, _w), ca in left.terms.items():
            for (w,), cp in p.terms.items():
                _bump(out, (e, w), ca * cp)
        return SmashElem(self, out)

    def basis_elem(self, exp, ranks) -> "SmashElem":
        return SmashElem(self, {(tuple(exp), tuple(ranks)): self.rs.unit})

    # -- spanning sets for verification sweeps ---------------------------

    def spanning(self, degree: int):
        """Basis elements x^e (x) w with |e| <= degree, len(w) <= degree."""
        return [
            self.basis_elem(e, w)
            for e in monomials_up_to(self.dim, degree)
            for w in spanning_words(self.rs, degree)
        ]


class SmashElem(LinearCombination):
    """Element of the smash carrier: {(exponent vector, PBW word): coeff}."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: SmashAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _space(self):
        return (self.algebra,)

    def _order(self):
        return self.algebra.order

    def _mismatch(self, other):
        return "elements from different smash algebras"

    def __repr__(self):
        if not self.terms:
            return "0"
        names = [g.name for g in self.algebra.rs.generators]
        parts = []
        for e, w in sorted(self.terms):
            word = " ".join(names[r] for r in w) or "1"
            parts.append(f"({self.terms[(e, w)]})*{monomial_str(e)}#{word}")
        return " + ".join(parts)


class SmashProduct:
    """One of the two multiplications on the shared carrier.

    ``twist=None`` gives the undeformed product; a twist switches both the
    Sweedler legs (to the twisted coproduct) and the coordinate-sector
    product (to the star product).
    """

    def __init__(self, algebra: SmashAlgebra, twist: Twist | None = None):
        self.algebra = algebra
        self.twist = twist if twist is not None and not twist.is_trivial() else None
        self.delta = CoproductMap(algebra.bialg, self.twist)
        self.star = StarProduct(algebra.rep, self.twist)

    def __call__(self, u: SmashElem, v: SmashElem) -> SmashElem:
        alg = self.algebra
        if not (u.__class__ is v.__class__ is SmashElem and u.algebra is v.algebra is alg):
            u._check(v)
            if u.algebra is not alg:
                raise ValueError("elements do not belong to this product's algebra")
        out: dict = {}
        for ku, ca in u.terms.items():
            for kv, cb in v.terms.items():
                _add_scaled(out, ca * cb, self._pair(ku, kv))
        return SmashElem(alg, out)

    def on_basis(self, ku, kv) -> SmashElem:
        """Product of the basis elements with keys ``ku`` and ``kv``.  Its
        terms are the memoized pair dict, shared and read-only."""
        return SmashElem(self.algebra, self._pair(ku, kv))

    @memoized
    def _pair(self, ku, kv) -> dict:
        """Product of two basis elements as a term dict (no zero coefficient)."""
        alg = self.algebra
        rs = alg.rs
        ea, wa = ku
        eb, wb = kv
        a_mono = PolyCoord.monomial(alg.dim, alg.order, ea, rs.unit)
        out: dict = {}
        for left, right, cd in self.delta.word_splits(wa):
            acted = alg.rep.act_word(left, eb)
            if acted.is_zero():
                continue
            apart = self.star(a_mono, acted)
            if apart.is_zero():
                continue
            _bump_smash(out, rs, cd, apart, right + wb)
        return out


def phi(algebra: SmashAlgebra, twist: Twist, u: SmashElem) -> SmashElem:
    """The comparison map (Fbar_1 acting on a) (x) Fbar_2 L, linearly extended."""
    return SmashElem(algebra, _linear(lambda key: algebra.phi_image(twist, key), u.terms))


def phi_inv(algebra: SmashAlgebra, twist: Twist, u: SmashElem) -> SmashElem:
    """Inverse of phi: (F_1 acting on a) (x) F_2 L."""
    return SmashElem(algebra, _linear(lambda key: algebra.phi_inv_image(twist, key), u.terms))


def _transport_basis(algebra: SmashAlgebra, two_leg: NCPoly, key) -> dict:
    """(two_leg_1 acting on x^e) (x) two_leg_2 w for the basis key (e, w)."""
    e, w = key
    rs = algebra.rs
    out: dict = {}
    for (f1, f2), cf in two_leg.terms.items():
        apart = algebra.rep.act_word(f1, e)
        if apart.is_zero():
            continue
        _bump_smash(out, rs, cf, apart, f2 + w)
    return out


def _bump_smash(out: dict, rs, c, apart: PolyCoord, ranks):
    """Add c * (apart (x) normal form of the Hopf word ``ranks``) to a smash
    term dict, one coefficient product per coordinate term and one per word."""
    hpart = rs.leg_form(ranks)
    for e2, c2 in apart.terms.items():
        cc = c * c2
        for hw, ch in hpart.items():
            _bump(out, (e2, hw), cc * ch)


def spanning_words(rs, max_len: int):
    """Sorted generator-rank words of length <= max_len (PBW monomials)."""
    n = len(rs.generators)
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (r,) for w in frontier for r in range(w[-1] if w else 0, n)]
        words.extend(frontier)
    return words


def verify_phi_homomorphism(
    algebra: SmashAlgebra, twist: Twist, degree: int = 2
) -> ResidualReport:
    """phi(u *_F v) = phi(u) * phi(v) over all monomial pairs up to degree.

    Pairs are labelled by the case split of the generator decomposition:
    (i) coordinate-only left factor, (ii) Hopf-only left factor, and the
    general mixed pairs; every left/right basis combination up to the
    requested coordinate degree and word length is exercised.
    """
    alg = algebra
    deformed = alg.product(twist)
    plain = alg.product(None)
    monos = monomials_up_to(alg.dim, degree)
    words = spanning_words(alg.rs, degree)
    basis = [(ea, wl) for ea in monos for wl in words]

    def cases():
        phi_of = {key: phi(alg, twist, alg.basis_elem(*key)) for key in basis}
        for ea, wl in basis:
            u = alg.basis_elem(ea, wl)
            pu = phi_of[(ea, wl)]
            if not wl:
                case = "(i)"
            elif sum(ea) == 0:
                case = "(ii)"
            else:
                case = "(gen)"
            for eb, wj in basis:
                v = alg.basis_elem(eb, wj)
                r = phi(alg, twist, deformed(u, v)) - plain(pu, phi_of[(eb, wj)])
                yield lambda: f"{case} {ea}|{wl} vs {eb}|{wj}", r

    return evaluate(f"{len(basis)}^2 basis pairs to degree {degree}", cases)
