"""Bialgebroid structures on the smash carrier and their twist deformations.

Two constructions live here, each a subclass of ``Bialgebroid``.
``SmashBialgebroid`` equips a smash product with source, target, coproduct
and counit whenever the coordinate algebra is braided commutative for a given
R-matrix.  ``TwistedBialgebroid`` deforms an existing bialgebroid by a
twistor, a two-leg invertible element of the tensor square over the base: the
total multiplication is unchanged, while the base product, source, target and
coproduct pick up twist factors through the anchor action.  Each structure
map is linear, and each class keeps its basis images in ``memoized`` methods.
The harness at the bottom verifies that twisting the smash bialgebroid and
building the bialgebroid of the twisted smash product give the same structure
up to the comparison map phi.

Equality in the tensor square over the base is decided by a canonical form:
every right factor is reduced to a pure Hopf element by moving coordinates
through the target map, after which equality is a finite coefficient
comparison.
"""

from __future__ import annotations

from .hopf import Twist, inv_unipotent
from .modalg import PolyCoord, coaction, monomial_str, monomials_up_to, \
    check_braided_commutativity
from .ncpoly import LinearCombination, NCPoly, _add_scaled, _bump, _linear, memoized
from .reporting import evaluate
from .smash import SmashAlgebra, SmashElem, SmashProduct, phi, spanning_words

# the degree to which a smash bialgebroid's base must be braided commutative
BRAIDED_DEGREE = 2


class Bialgebroid:
    """A total algebra on the smash carrier together with its base data.

    ``total`` multiplies carrier elements.  A subclass supplies ``base``,
    which multiplies coordinate polynomials, ``source`` and ``target``, which
    embed the base, and two maps fixed on carrier basis keys (e, w):
    ``coproduct_image``, the canonical term dict of the coproduct, and
    ``split``, which writes the basis element as a combination of source
    multiples of pure elements and drives the canonical form of the tensor
    square.  ``coproduct`` is the linear extension of the first and
    ``right_split`` memoizes the second.  ``hdelta`` is the Hopf coproduct
    behind closed-form coproducts, or None where there are none.
    """

    hdelta = None

    def __init__(self, name, smash: SmashAlgebra, total: SmashProduct):
        self.name = name
        self.smash = smash
        self.total = total
        self._zero_exp = (0,) * smash.dim

    # -- canonical-form machinery -----------------------------------------

    @memoized
    def right_split(self, exp, word):
        return tuple(self.split(exp, word))

    @memoized
    def pure(self, word) -> SmashElem:
        """1 (x) word as a carrier element."""
        return self.smash.basis_elem(self._zero_exp, word)

    def tensor_from_pairs(self, items, nlegs: int = 2) -> "TensorOverA":
        """Canonicalize a raw sum of n-fold products of carrier elements.

        An item is ``(f_1, ..., f_n, c)``, the product of the factors scaled
        by the series ``c``.  Working from the right, every factor is split as
        sum s(a_i) (1 (x) J_i) and the a_i are moved into the factor on its
        left through the target map, so every factor but the first ends up
        pure.
        """
        total, target, split = self.total, self.target, self.right_split
        staged = [(item[:nlegs], (), item[nlegs]) for item in items]
        for k in range(nlegs - 1, 1, -1):
            reduced = []
            for fs, tail, c in staged:
                for (er, wr), cr in fs[k].terms.items():
                    base_c = c * cr
                    if not any(er):
                        reduced.append((fs[:k], (wr,) + tail, base_c))
                        continue
                    for apoly, wj, cs in split(er, wr):
                        moved = total(target(apoly), fs[k - 1])
                        reduced.append((fs[:k - 1] + (moved,), (wj,) + tail, base_c * cs))
            staged = reduced
        out: dict = {}
        for (l, r), tail, c in staged:
            for (er, wr), cr in r.terms.items():
                base_c = c * cr
                if not any(er):
                    for (el, wl), cl in l.terms.items():
                        _bump(out, (el, wl, wr) + tail, base_c * cl)
                    continue
                for apoly, wj, cs in split(er, wr):
                    moved = total(target(apoly), l)
                    for (el, wl), cl in moved.terms.items():
                        _bump(out, (el, wl, wj) + tail, base_c * cs * cl)
        return TensorOverA(self, nlegs, out)

    def tensor_unit(self) -> "TensorOverA":
        return TensorOverA(self, 2, {(self._zero_exp, (), ()): self.smash.rs.unit})

    # -- structure maps ----------------------------------------------------

    def coproduct(self, m: SmashElem) -> "TensorOverA":
        return TensorOverA(self, 2, _linear(self.coproduct_image, m.terms))

    def counit(self, m: SmashElem) -> PolyCoord:
        """The coordinate part of the terms with an empty Hopf word."""
        smash = self.smash
        return PolyCoord(smash.dim, smash.order, {e: c for (e, w), c in m.terms.items() if not w})

    def anchor(self, m: SmashElem, a: PolyCoord) -> PolyCoord:
        """The action of the total algebra on the base via the counit."""
        return self.counit(self.total(m, self.source(a)))

    @memoized
    def anchor_on_basis(self, key, exp) -> PolyCoord:
        """The anchor of the carrier basis element ``key`` on x^exp."""
        smash = self.smash
        mono = PolyCoord.monomial(smash.dim, smash.order, exp, smash.rs.unit)
        return self.anchor(smash.basis_elem(*key), mono)

    def unit(self) -> SmashElem:
        return self.smash.one()


class TensorOverA(LinearCombination):
    """Canonical-form element of the n-fold tensor power of the total algebra
    over the base: {(left exponent, left word, pure word 2, ..., pure word n):
    coefficient}."""

    __slots__ = ("bd", "nlegs", "terms")

    def __init__(self, bd: Bialgebroid, nlegs: int, terms: dict):
        self.bd = bd
        self.nlegs = nlegs
        self.terms = terms

    def _space(self):
        return (self.bd, self.nlegs)

    def _order(self):
        return self.bd.smash.order

    def _mismatch(self, other):
        if self.bd is not other.bd:
            return "tensors over different bialgebroids"
        return f"leg count mismatch: {self.nlegs} vs {other.nlegs}"

    def mul(self, other: "TensorOverA") -> "TensorOverA":
        """Component-wise product, recanonicalized.

        Only meaningful on elements that pass the invariance check; callers
        are expected to use it on coproduct images and twistors.
        """
        self._check(other)
        bd = self.bd
        prod, z = bd.total.on_basis, bd._zero_exp

        def split_keys(T):
            return [(k[:2], [(z, w) for w in k[2:]], c) for k, c in T.terms.items()]

        rights = split_keys(other)
        return bd.tensor_from_pairs([
            (prod(l1, l2), *map(prod, p1, p2), c1 * c2)
            for l1, p1, c1 in split_keys(self) for l2, p2, c2 in rights
        ], self.nlegs)

    def flip(self) -> "TensorOverA":
        """The opposite of a two-leg tensor: swap legs and recanonicalize."""
        bd = self.bd
        pairs = []
        for (e, wl, wr), c in self.terms.items():
            pairs.append((bd.pure(wr), bd.smash.basis_elem(e, wl), c))
        return bd.tensor_from_pairs(pairs)

    def counit_left(self) -> SmashElem:
        """Contract the left leg with the counit: sum s(eps(l)) r."""
        bd, smash = self.bd, self.bd.smash
        out: dict = {}
        for (e, wl, wr), c in self.terms.items():
            if wl:
                continue
            a = PolyCoord.monomial(smash.dim, smash.order, e, smash.rs.unit)
            _add_scaled(out, c, bd.total(bd.source(a), bd.pure(wr)).terms)
        return SmashElem(smash, out)

    def counit_right(self) -> SmashElem:
        """Contract the right leg with the counit: sum t(eps(r)) l."""
        return SmashElem(self.bd.smash,
                         {(e, wl): c for (e, wl, wr), c in self.terms.items() if not wr})

    def __repr__(self):
        if not self.terms:
            return "0"
        names = [g.name for g in self.bd.smash.rs.generators]
        parts = []
        for key in sorted(self.terms):
            legs = " (x)A 1#".join(" ".join(names[r] for r in w) or "1" for w in key[1:])
            parts.append(f"({self.terms[key]})*{monomial_str(key[0])}#{legs}")
        return " + ".join(parts)


def shift_legs(bd: Bialgebroid, p: NCPoly, legs=(1, 2), nlegs: int = 2) -> TensorOverA:
    """A Hopf element placed as pure factors of the n-fold tensor: leg i of
    ``p`` becomes factor ``legs[i - 1]`` and the other factors are 1."""
    zero_exp = bd._zero_exp
    return TensorOverA(bd, nlegs, {
        (zero_exp,) + word: c for word, c in p.place_legs(legs, nlegs).terms.items()
    })


def delta_left(bd: Bialgebroid, T: TensorOverA) -> TensorOverA:
    """(coproduct (x) id) on a canonical two-leg tensor."""
    out: dict = {}
    for (e, wl, wr), c in T.terms.items():
        inner = bd.coproduct(bd.smash.basis_elem(e, wl))
        for (e2, w2, r2), c2 in inner.terms.items():
            _bump(out, (e2, w2, r2, wr), c * c2)
    return TensorOverA(bd, 3, out)


def delta_right(bd: Bialgebroid, T: TensorOverA) -> TensorOverA:
    """(id (x) coproduct) on a canonical two-leg tensor."""
    triples = []
    for (e, wl, wr), c in T.terms.items():
        left = bd.smash.basis_elem(e, wl)
        inner = bd.coproduct(bd.pure(wr))
        for (e2, w2, r2), c2 in inner.terms.items():
            triples.append((left, bd.smash.basis_elem(e2, w2), bd.pure(r2), c * c2))
    return bd.tensor_from_pairs(triples, 3)


# -- the smash-product bialgebroid --------------------------------------


class SmashBialgebroid(Bialgebroid):
    """The bialgebroid of a smash product (Brzezinski-Militaru).

    The base product is the star product of ``total``, the source is a (x) 1,
    the target the coaction of ``r_matrix`` (a (x) 1 as well when it is the
    unit), and the coproduct splits the Hopf word by the Sweedler legs of the
    product's coproduct.  Construction is refused when the base fails braided
    commutativity for ``r_matrix`` up to ``BRAIDED_DEGREE``.
    """

    def __init__(self, name, smash: SmashAlgebra, total: SmashProduct, r_matrix: NCPoly):
        braided = check_braided_commutativity(total.star, r_matrix, BRAIDED_DEGREE)
        if not braided.ok():
            raise ValueError(
                f"base is not braided commutative for the given R-matrix "
                f"({braided.summary()}); construction refused"
            )
        super().__init__(name, smash, total)
        self.base = total.star
        self.hdelta = total.delta
        self.r_matrix = r_matrix
        self._unit_r = r_matrix == NCPoly.one(smash.rs, 2)

    def source(self, a: PolyCoord) -> SmashElem:
        return self.smash.coord_elem(a)

    def target(self, a: PolyCoord) -> SmashElem:
        if self._unit_r:
            return self.smash.coord_elem(a)
        return SmashElem(self.smash, _linear(self.target_image, a.terms))

    @memoized
    def target_image(self, exp) -> dict:
        smash = self.smash
        mono = PolyCoord.monomial(smash.dim, smash.order, exp, smash.rs.unit)
        return coaction(smash, self.r_matrix, mono).terms

    @memoized
    def coproduct_image(self, key) -> dict:
        e, w = key
        return {(e, left, right): cd for left, right, cd in self.hdelta.word_splits(w)}

    def split(self, exp, word):
        smash = self.smash
        unit = smash.rs.unit
        return ((PolyCoord.monomial(smash.dim, smash.order, exp, unit), word, unit),)


def bm_bialgebroid(smash: SmashAlgebra) -> Bialgebroid:
    """Bialgebroid on the undeformed smash product, with the unit R-matrix,
    the triangular structure of the cocommutative case."""
    return SmashBialgebroid("smash-bialgebroid", smash, smash.product(None),
                            NCPoly.one(smash.rs, 2))


def bm_bialgebroid_twisted(smash: SmashAlgebra, twist: Twist) -> Bialgebroid:
    """Bialgebroid on the twist-deformed smash product.

    The R-matrix is the twisted one generated by the twist, the base product
    is the star product, and the Sweedler legs come from the twisted
    coproduct.
    """
    return SmashBialgebroid("twisted-smash-bialgebroid", smash, smash.product(twist),
                            twist.r_matrix)


@memoized
def bm_side(smash: SmashAlgebra, twist: Twist) -> Bialgebroid:
    """``bm_bialgebroid_twisted``, built once per twist and kept by ``smash``;
    a refused construction raises and is not kept."""
    return bm_bialgebroid_twisted(smash, twist)


# -- shifting Hopf data into the bialgebroid ------------------------------


class ShiftedTwist:
    """A Hopf twist transported to the tensor square over the base."""

    def __init__(self, bd: Bialgebroid, forward: TensorOverA, inverse: TensorOverA,
                 hopf_twist: Twist):
        self.bd = bd
        self.forward = forward
        self.inverse = inverse
        self.hopf_twist = hopf_twist


def shift_twist(bd: Bialgebroid, twist: Twist) -> ShiftedTwist:
    """Transport a twist to the bialgebroid level; ``shifted_twist_residuals``
    reports its laws there."""
    return ShiftedTwist(bd, shift_legs(bd, twist.F), shift_legs(bd, twist.F_inv), twist)


def shifted_twist_residuals(bd: Bialgebroid, shifted: ShiftedTwist) -> dict:
    """Inverse, cocycle and normalization laws at the bialgebroid level."""
    F, Fi = shifted.forward, shifted.inverse

    def inverse():
        unit2 = bd.tensor_unit()
        yield "F Finv", F.mul(Fi) - unit2
        yield "Finv F", Fi.mul(F) - unit2

    def cocycle():
        twist = shifted.hopf_twist
        f12, f23, fi12, fi23 = (shift_legs(bd, p, legs, 3) for p in (twist.F, twist.F_inv)
                                for legs in ((1, 2), (2, 3)))
        yield "cocycle", f12.mul(delta_left(bd, F)) - f23.mul(delta_right(bd, F))
        yield "inverse-cocycle", delta_left(bd, Fi).mul(fi12) - delta_right(bd, Fi).mul(fi23)

    def normalization():
        unit = bd.unit()
        for label, elem in (("twist", F), ("inverse", Fi)):
            yield f"{label} left counit", elem.counit_left() - unit
            yield f"{label} right counit", elem.counit_right() - unit

    return {"inverse": evaluate("the shifted twistor, both sides", inverse),
            "cocycle": evaluate("both shifted twistors", cocycle),
            "normalization": evaluate("both shifted twistors, both counits", normalization)}


def check_qt_shifted(bd: Bialgebroid, R: NCPoly, degree: int = 2) -> dict:
    """The shifted R-matrix keeps its coproduct and counit laws but loses the
    intertwining property; report both, with a witness for the loss.

    Returns reports for the preserved identities, the computed/closed-form
    cross-check of both intertwining expressions, and the intertwining
    search: its one case is the first spanning element on which the two
    expressions differ, or a zero difference when none does up to the sweep
    degree.  Without closed forms (``bd.hdelta`` is None) the closed-form law
    has no case, and its sweep stops at the witness: nothing after it is
    evaluated.
    """
    smash = bd.smash
    Rt = shift_legs(bd, R)
    span = smash.spanning(degree)

    def preserved():
        r13, r23, r12 = (shift_legs(bd, R, legs, 3) for legs in ((1, 3), (2, 3), (1, 2)))
        yield "hexagon-left", delta_left(bd, Rt) - r13.mul(r23)
        yield "hexagon-right", delta_right(bd, Rt) - r13.mul(r12)
        unit = bd.unit()
        yield "counit-left", Rt.counit_left() - unit
        yield "counit-right", Rt.counit_right() - unit

    # the search's one case, the first difference of the two sides, comes out
    # of the same sweep, so its time is charged to the closed forms
    first = [("", TensorOverA(bd, 2, {}))]

    def closed_forms():
        Rt_inv = shift_legs(bd, inv_unipotent(R))
        for elem in span:
            lhs = Rt.mul(bd.coproduct(elem)).mul(Rt_inv)
            rhs = bd.coproduct(elem).flip()
            if bd.hdelta is not None:
                yield lambda: f"lhs {elem!r}", lhs - _qt2_closed(bd, R, elem, 1, 1)
                yield lambda: f"rhs {elem!r}", rhs - _qt2_closed(bd, R, elem, 2, 2)
            diff = lhs - rhs
            if first[0][1].is_zero() and not diff.is_zero():
                first[0] = (repr(elem), diff)
                if bd.hdelta is None:
                    return

    closed = (f"{len(span)} spanning elements to degree {degree}, both sides"
              if bd.hdelta is not None else "none: no closed forms on this side")
    return {"preserved": evaluate("hexagons and counits of the shifted R", preserved),
            "closed_forms": evaluate(closed, closed_forms),
            "intertwining": evaluate(f"spanning elements to degree {degree}, first difference",
                                     lambda: first, "search")}


def _qt2_closed(bd: Bialgebroid, R: NCPoly, m: SmashElem, r_leg: int,
                sweedler_leg: int) -> TensorOverA:
    """One side of the intertwining identity in closed form, summed over terms:
    R leg ``r_leg`` acts on a, the other R leg joins Sweedler leg
    ``sweedler_leg`` in a Hopf word, put right for leg 1 and left for leg 2.
    (1, 1): ((R_1 on a) (x) L_(2)) (x)_A (1 (x) R_2 L_(1));
    (2, 2): ((R_2 on a) (x) R_1 L_(2)) (x)_A (1 (x) L_(1))."""
    smash = bd.smash
    out: dict = {}
    for (e, w), c in m.terms.items():
        for w1, w2, cd in bd.hdelta.word_splits(w):
            joined, other = (w1, w2) if sweedler_leg == 1 else (w2, w1)
            for rword, cr in R.terms.items():
                apoly = smash.rep.act_word(rword[r_leg - 1], e)
                if apoly.is_zero():
                    continue
                hier = smash.rs.leg_form(rword[2 - r_leg] + joined)
                coeff = c * cd * cr
                for (e2, c2) in apoly.terms.items():
                    for hword, ch in hier.items():
                        key = (e2, other, hword) if sweedler_leg == 1 else (e2, hword, other)
                        _bump(out, key, coeff * c2 * ch)
    return TensorOverA(bd, 2, out)


# -- twisting a bialgebroid ----------------------------------------------


class TwistedBialgebroid(Bialgebroid):
    """A bialgebroid deformed by a twistor (Xu).

    The total multiplication and the counit are those of ``inner``; the base
    product, source, target and coproduct are conjugated through the inner
    anchor action and the twistor factors ``forward`` and ``inverse``.
    """

    def __init__(self, inner: Bialgebroid, shifted: ShiftedTwist):
        super().__init__(f"{inner.name}-twisted", inner.smash, inner.total)
        self.inner = inner
        self.shifted = shifted
        self.forward = shifted.forward
        self.inverse = shifted.inverse

    def _anchor(self, key, a: PolyCoord) -> PolyCoord:
        """The inner anchor of the carrier basis element ``key`` on ``a``."""
        anchor = self.inner.anchor_on_basis
        return PolyCoord(a.dim, a.order, _linear(lambda exp: anchor(key, exp).terms, a.terms))

    def base(self, a: PolyCoord, b: PolyCoord) -> PolyCoord:
        out: dict = {}
        for (e, wl, wr), c in self.inverse.terms.items():
            la = self._anchor((e, wl), a)
            if la.is_zero():
                continue
            rb = self._anchor((self._zero_exp, wr), b)
            if rb.is_zero():
                continue
            _add_scaled(out, c, self.inner.base(la, rb).terms)
        return PolyCoord(a.dim, a.order, out)

    def source(self, a: PolyCoord) -> SmashElem:
        return SmashElem(self.smash, _linear(self.source_image, a.terms))

    def target(self, a: PolyCoord) -> SmashElem:
        return SmashElem(self.smash, _linear(self.target_image, a.terms))

    @memoized
    def source_image(self, exp) -> dict:
        inner = self.inner
        out: dict = {}
        for (e, wl, wr), c in self.inverse.terms.items():
            la = inner.anchor_on_basis((e, wl), exp)
            if not la.is_zero():
                _add_scaled(out, c, inner.total(inner.source(la), inner.pure(wr)).terms)
        return out

    @memoized
    def target_image(self, exp) -> dict:
        inner = self.inner
        out: dict = {}
        for (e, wl, wr), c in self.inverse.terms.items():
            ra = inner.anchor_on_basis((self._zero_exp, wr), exp)
            if not ra.is_zero():
                left = self.smash.basis_elem(e, wl)
                _add_scaled(out, c, inner.total(inner.target(ra), left).terms)
        return out

    @memoized
    def coproduct_image(self, key) -> dict:
        prod, z = self.total.on_basis, self._zero_exp
        with_inverse = self.inner.coproduct(self.smash.basis_elem(*key)).mul(self.inverse)
        pairs = []
        for (e, wl, wr), c in with_inverse.terms.items():
            for (ef, flw, frw), cf in self.forward.terms.items():
                pairs.append((prod((ef, flw), (e, wl)), prod((z, frw), (z, wr)), c * cf))
        return self.tensor_from_pairs(pairs).terms

    def split(self, exp, word):
        prod, z = self.total.on_basis, self._zero_exp
        items = []
        for (e, wl, wr), c in self.forward.terms.items():
            apoly = self.inner.anchor_on_basis((e, wl), exp)
            if apoly.is_zero():
                continue
            # a product of pure elements is pure: a nonempty Hopf word acting
            # on a constant gives zero
            for (_, wr2), cr2 in prod((z, wr), (z, word)).terms.items():
                items.append((apoly, wr2, c * cr2))
        return items


def xu_twist(bd: Bialgebroid, shifted: ShiftedTwist) -> Bialgebroid:
    """Deform a bialgebroid by a twistor shifted into it."""
    if shifted.bd is not bd:
        raise ValueError("twistor was shifted into a different bialgebroid")
    return TwistedBialgebroid(bd, shifted)


@memoized
def xu_side(smash: SmashAlgebra, twist: Twist) -> Bialgebroid:
    """The xu-twisted bialgebroid, built from the smash bialgebroid once per
    twist and kept by ``smash``; a refused construction raises and is not
    kept.  Its twistor laws are ``twistor_laws``."""
    bd0 = bm_bialgebroid(smash)
    return xu_twist(bd0, shift_twist(bd0, twist))


@memoized
def twistor_laws(smash: SmashAlgebra, twist: Twist) -> dict:
    """The ``shifted_twist_residuals`` reports of the twistor ``xu_side``
    deforms by, evaluated once per twist and kept by ``smash``:
    ``algebroid-verify`` records them, ``theorem`` requires them."""
    bd = xu_side(smash, twist)
    return shifted_twist_residuals(bd.inner, bd.shifted)


# -- axiom suite ----------------------------------------------------------


def check_bialgebroid_axioms(bd: Bialgebroid, degree: int = 2) -> dict:
    """Full residual sweep of the bialgebroid laws.

    Source/target algebra laws, coassociativity over the base tensor,
    invariance of coproduct images, multiplicativity of the coproduct on
    representative pairs, and the three counit laws, all over spanning
    elements up to the given degree.
    """
    import random

    smash = bd.smash
    monos = _monomials(smash, degree)
    span = smash.spanning(degree)
    total, source, target = bd.total, bd.source, bd.target
    spanning = f"{len(span)} spanning elements to degree {degree}"

    def maps():
        for a in monos:
            for b in monos:
                yield (lambda: f"s hom {a!r},{b!r}",
                       total(source(a), source(b)) - source(bd.base(a, b)))
                yield (lambda: f"t antihom {a!r},{b!r}",
                       total(target(b), target(a)) - target(bd.base(a, b)))
                yield (lambda: f"s/t commute {a!r},{b!r}",
                       total(source(a), target(b)) - total(target(b), source(a)))

    def coassociativity():
        for m in span:
            T = bd.coproduct(m)
            yield lambda: repr(m), delta_left(bd, T) - delta_right(bd, T)

    def takeuchi():
        coord_gens = [PolyCoord.coord(smash.dim, smash.order, mu, smash.rs.unit)
                      for mu in range(smash.dim)]
        for m in span:
            T = bd.coproduct(m)
            for mu, a in enumerate(coord_gens):
                ta, sa = bd.target(a), bd.source(a)
                left_pairs, right_pairs = [], []
                for (e, wl, wr), c in T.terms.items():
                    l = smash.basis_elem(e, wl)
                    r = bd.pure(wr)
                    left_pairs.append((bd.total(l, ta), r, c))
                    right_pairs.append((l, bd.total(r, sa), c))
                yield (lambda: f"{m!r} against x{mu}",
                       bd.tensor_from_pairs(left_pairs) - bd.tensor_from_pairs(right_pairs))

    rng = random.Random(20259)
    lead = span[: smash.dim + 1]
    pool = [(u, v) for u in span for v in span]
    drawn = [pool[rng.randrange(len(pool))] for _ in range(min(20, len(pool)))]
    pairs = [(u, v) for u in lead for v in lead] + drawn
    sampled = f"{len(pairs)} pairs: (dim+1)^2 leading + {len(drawn)} drawn, seed 20259"
    products = []  # u*v of each pair, made by the multiplicativity sweep

    def multiplicative():
        for u, v in pairs:
            products.append(bd.total(u, v))
            yield (lambda: f"{u!r} * {v!r}",
                   bd.coproduct(products[-1]) - bd.coproduct(u).mul(bd.coproduct(v)))

    def counit_product():
        for (u, v), uv in zip(pairs, products):
            eps_uv = bd.counit(uv)
            yield (lambda: f"s-form {u!r},{v!r}",
                   eps_uv - bd.counit(bd.total(u, bd.source(bd.counit(v)))))
            yield (lambda: f"t-form {u!r},{v!r}",
                   eps_uv - bd.counit(bd.total(u, bd.target(bd.counit(v)))))

    def counit_coproduct():
        one_a = PolyCoord.one(smash.dim, smash.order, smash.rs.unit)
        yield "counit of unit", bd.counit(bd.unit()) - one_a
        for m in span:
            left: dict = {}
            right: dict = {}
            for (e, wl, wr), c in bd.coproduct(m).terms.items():
                l = smash.basis_elem(e, wl)
                r = bd.pure(wr)
                _add_scaled(left, c, bd.total(bd.source(bd.counit(l)), r).terms)
                _add_scaled(right, c, bd.total(bd.target(bd.counit(r)), l).terms)
            yield lambda: f"s(eps(m1))m2 on {m!r}", SmashElem(smash, left) - m
            yield lambda: f"t(eps(m2))m1 on {m!r}", SmashElem(smash, right) - m

    # in this order: the counit-product law reads the multiplicativity products
    return {"maps": evaluate(f"{len(monos)}^2 monomial pairs to degree {degree}", maps),
            "coassociativity": evaluate(spanning, coassociativity),
            "takeuchi": evaluate(f"{spanning} x {smash.dim} coordinates", takeuchi),
            "multiplicative": evaluate(sampled, multiplicative),
            "counit-product": evaluate(sampled, counit_product),
            "counit-coproduct": evaluate(f"the unit + {spanning}", counit_coproduct)}


def _monomials(smash: SmashAlgebra, degree: int) -> list:
    """The coordinate monomials to ``degree``, unit first."""
    return [PolyCoord.monomial(smash.dim, smash.order, e, smash.rs.unit)
            for e in monomials_up_to(smash.dim, degree)]


# -- the main equivalence harness ------------------------------------------


def verify_theorem(smash: SmashAlgebra, twist: Twist, degree: int = 2) -> dict:
    """Compare the twisted-smash bialgebroid with the twistor-deformed one.

    Reads both sides from ``bm_side`` and ``xu_side``, so it builds only
    what ``algebroid-verify`` has not built yet; a refused side raises.  The
    theorem holds for a twistor whose ``twistor_laws`` pass, which the
    ``theorem`` command requires first.  It checks that the base products
    agree, that phi is an isomorphism of total algebras, that it intertwines
    source, target and counit, and that the coproducts correspond under
    phi (x) phi, first on the two generator families and then on general
    spanning monomials.
    """
    monos = _monomials(smash, degree)
    span = smash.spanning(degree)
    spanning = f"{len(span)} spanning elements to degree {degree}"
    lhs, rhs = bm_side(smash, twist), xu_side(smash, twist)

    def base_products():
        for a in monos:
            for b in monos:
                yield lambda: f"{a!r} * {b!r}", lhs.base(a, b) - rhs.base(a, b)

    def source_target():
        for a in monos:
            yield lambda: f"source {a!r}", phi(smash, twist, lhs.source(a)) - rhs.source(a)
            yield lambda: f"target {a!r}", phi(smash, twist, lhs.target(a)) - rhs.target(a)

    def coproduct_residual(u: SmashElem) -> TensorOverA:
        """Delta_rhs(phi(u)) minus (phi (x) phi)(Delta_lhs(u))."""
        image = rhs.coproduct(phi(smash, twist, u))
        return image - rhs.tensor_from_pairs([
            (phi(smash, twist, smash.basis_elem(e, wl)), phi(smash, twist, lhs.pure(wr)), c)
            for (e, wl, wr), c in lhs.coproduct(u).terms.items()
        ])

    def coproduct_cases():
        for w in spanning_words(smash.rs, degree)[1:]:  # the empty word is no generator
            u = smash.basis_elem((0,) * smash.dim, w)
            yield lambda: f"Hopf generator {u!r}", coproduct_residual(u)
        for e in monomials_up_to(smash.dim, degree):
            u = smash.basis_elem(e, ())
            yield lambda: f"coordinate {u!r}", coproduct_residual(u)

    return {
        "base-products": evaluate(f"{len(monos)}^2 monomial pairs to degree {degree}",
                                  base_products),
        # the sweep smash-verify runs, shared through the memo
        "total-products": smash.phi_report(twist, degree),
        "source-target-maps": evaluate(f"{len(monos)} monomials to degree {degree}, both maps",
                                       source_target),
        "counit": evaluate(spanning, lambda: (
            (lambda: repr(u), rhs.counit(phi(smash, twist, u)) - lhs.counit(u)) for u in span)),
        "coproduct-cases": evaluate(f"Hopf words + monomials to degree {degree}",
                                    coproduct_cases),
        "coproduct-general": evaluate(spanning, lambda: (
            (lambda: repr(u), coproduct_residual(u)) for u in span)),
    }
