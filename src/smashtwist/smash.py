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
from .ncpoly import LinearCombination, NCPoly, _bump, _strip, leg_word
from .reporting import ResidualReport
from .scalars import TruncSeries


class SmashAlgebra:
    """Shared context: the Hopf presentation, the representation, caches."""

    def __init__(self, bialg: BialgebraPresentation, rep: RepData):
        if bialg.rs is not rep.rs:
            raise ValueError("bialgebra and representation use different alphabets")
        self.bialg = bialg
        self.rep = rep
        self.rs = bialg.rs
        self.dim = rep.dim
        self.order = bialg.order
        self._products: dict = {}
        self._transports: dict = {}
        self._phi_reports: dict = {}

    def product(self, twist: Twist | None = None) -> "SmashProduct":
        """Memoized multiplication object; caches survive across sweeps.  Each
        entry here and in ``phi_report`` keeps the twist alive, so its id
        stays unique."""
        if id(twist) not in self._products:
            self._products[id(twist)] = (twist, SmashProduct(self, twist))
        return self._products[id(twist)][1]

    def phi_report(self, twist: Twist, degree: int) -> ResidualReport:
        """Memoized ``verify_phi_homomorphism``: smash-verify and theorem share
        one sweep per twist and degree."""
        key = (id(twist), degree)
        if key not in self._phi_reports:
            self._phi_reports[key] = (twist, verify_phi_homomorphism(self, twist, degree))
        return self._phi_reports[key][1]

    # -- element constructors -------------------------------------------

    def from_terms(self, terms: dict) -> "SmashElem":
        return SmashElem(self, {k: v for k, v in terms.items() if not v.is_zero()})

    def zero(self) -> "SmashElem":
        return SmashElem(self, {})

    def one(self) -> "SmashElem":
        exp = (0,) * self.dim
        return SmashElem(self, {(exp, ()): TruncSeries.one(self.order)})

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
            self, {(exp, tuple(r for _, r in w)): c for w, c in p.terms.items()}
        )

    def elem(self, a: PolyCoord, p: NCPoly | None = None) -> "SmashElem":
        """a (x) p for a coordinate polynomial and a Hopf element."""
        left = self.coord_elem(a)
        if p is None:
            return left
        out: dict = {}
        for (e, _w), ca in left.terms.items():
            for w, cp in p.terms.items():
                _bump(out, (e, tuple(r for _, r in w)), ca * cp)
        return self.from_terms(out)

    def basis_elem(self, exp, ranks, coeff=1) -> "SmashElem":
        c = TruncSeries.coerce(coeff, self.order)
        return self.from_terms({(tuple(exp), tuple(ranks)): c})

    # -- spanning sets for verification sweeps ---------------------------

    def spanning(self, degree: int, max_word: int | None = None):
        """Basis elements x^e (x) w with |e| <= degree, len(w) <= max_word."""
        if max_word is None:
            max_word = degree
        return [
            self.basis_elem(e, w)
            for e in monomials_up_to(self.dim, degree)
            for w in spanning_words(self.rs, max_word)
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


def linear_on_basis(f, cache: dict):
    """Extend a map given on basis elements linearly to term dicts.

    ``f(key)`` returns the image of one basis key as a term dict.  It runs
    once per key; ``cache`` keeps the image and belongs to the object whose
    map this is, so it lives and dies with that object.  The returned function
    sends {key: coefficient} to the term dict of the image.  A product of
    truncated series can vanish, so terms whose coefficient is zero are
    dropped.
    """
    def apply(terms: dict) -> dict:
        out: dict = {}
        for key, c in terms.items():
            image = cache.get(key)
            if image is None:
                image = cache[key] = f(key)
            for k2, c2 in image.items():
                _bump(out, k2, c * c2)
        return _strip(out)
    return apply


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
        self._pair_cache: dict = {}

    def __call__(self, u: SmashElem, v: SmashElem) -> SmashElem:
        alg = self.algebra
        if not (u.__class__ is v.__class__ is SmashElem and u.algebra is v.algebra is alg):
            u._check(v)
            if u.algebra is not alg:
                raise ValueError("elements do not belong to this product's algebra")
        out: dict = {}
        for ku, ca in u.terms.items():
            for kv, cb in v.terms.items():
                c = ca * cb
                for key, cp in self._pair(ku, kv).items():
                    _bump(out, key, c * cp)
        return alg.from_terms(out)

    def on_basis(self, ku, kv) -> SmashElem:
        """Product of the basis elements with keys ``ku`` and ``kv``.  Its
        terms are the cached pair dict, shared and read-only."""
        return SmashElem(self.algebra, self._pair(ku, kv))

    def _pair(self, ku, kv) -> dict:
        """Product of two basis elements as a term dict (cached, no zero
        coefficient)."""
        cached = self._pair_cache.get((ku, kv))
        if cached is not None:
            return cached
        alg = self.algebra
        rs = alg.rs
        ea, wa = ku
        eb, wb = kv
        a_mono = PolyCoord.monomial(alg.dim, alg.order, ea)
        out: dict = {}
        for left, right, cd in self.delta.word_splits(wa):
            acted = alg.rep.act_word(left, eb)
            if acted.is_zero():
                continue
            apart = self.star(a_mono, acted)
            if apart.is_zero():
                continue
            _bump_smash(out, rs, cd, apart, right + wb)
        out = self._pair_cache[(ku, kv)] = _strip(out)
        return out

    def action_on_base(self, u: SmashElem, b: PolyCoord) -> PolyCoord:
        """The representation of the smash product on its coordinate algebra:
        (a (x) L) sends b to a * (L acting on b), with this product's star."""
        alg = self.algebra
        out: dict = {}
        for (e, w), c in u.terms.items():
            acted: dict = {}
            for eb, cb in b.terms.items():
                for e2, c2 in alg.rep.act_word(w, eb).terms.items():
                    _bump(acted, e2, c2 * cb)
            acted = PolyCoord(alg.dim, alg.order, _strip(acted))
            if acted.is_zero():
                continue
            part = self.star(PolyCoord.monomial(alg.dim, alg.order, e), acted)
            for e2, c2 in part.terms.items():
                _bump(out, e2, c2 * c)
        return PolyCoord(alg.dim, alg.order, _strip(out))


def phi(algebra: SmashAlgebra, twist: Twist, u: SmashElem) -> SmashElem:
    """The comparison map (Fbar_1 acting on a) (x) Fbar_2 L, linearly extended."""
    return _twist_transport(algebra, twist.F_inv, u)


def phi_inv(algebra: SmashAlgebra, twist: Twist, u: SmashElem) -> SmashElem:
    """Inverse of phi: (F_1 acting on a) (x) F_2 L."""
    return _twist_transport(algebra, twist.F, u)


def _twist_transport(algebra: SmashAlgebra, two_leg: NCPoly, u: SmashElem) -> SmashElem:
    entry = algebra._transports.get(id(two_leg))
    if entry is None:
        # the entry keeps two_leg alive so its id stays unique
        entry = (two_leg, linear_on_basis(
            lambda key: _transport_basis(algebra, two_leg, key), {}
        ))
        algebra._transports[id(two_leg)] = entry
    return SmashElem(algebra, entry[1](u.terms))


def _transport_basis(algebra: SmashAlgebra, two_leg: NCPoly, key) -> dict:
    e, w = key
    rs = algebra.rs
    out: dict = {}
    for fword, cf in two_leg.terms.items():
        apart = algebra.rep.act_word(leg_word(fword, 1), e)
        if apart.is_zero():
            continue
        _bump_smash(out, rs, cf, apart, leg_word(fword, 2) + w)
    return _strip(out)


def _bump_smash(out: dict, rs, c, apart: PolyCoord, ranks):
    """Add c * (apart (x) normal form of the Hopf word ``ranks``) to a smash
    term dict, one coefficient product per coordinate term and one per word."""
    hpart = rs.normalize_word(tuple((0, r) for r in ranks))
    for e2, c2 in apart.terms.items():
        cc = c * c2
        for hw, ch in hpart.items():
            _bump(out, (e2, tuple(r for _, r in hw)), cc * ch)


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
    report = ResidualReport("phi-homomorphism")

    with report.timed():
        monos = monomials_up_to(alg.dim, degree)
        words = spanning_words(alg.rs, degree)
        basis = [(ea, wl) for ea in monos for wl in words]
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
                report.check(f"{case} {ea}|{wl} vs {eb}|{wj}", r)
    return report
