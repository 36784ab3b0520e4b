"""Coordinate polynomial algebra and its Hopf action by differential operators.

Symmetry generators act on coordinates through representation matrices,
L acting on x^mu gives -L^mu_alpha x^alpha, and momenta act as coordinate
derivatives.  Products of generators act by composition, so the Leibniz rule
for single letters extends the action to all of the polynomial algebra.  A
twist deforms the commutative product into a star product evaluated through
the expansion of the inverse twist.
"""

from __future__ import annotations

from .ncpoly import MOMENTUM, SCALARS, SYMMETRY, LinearCombination, NCPoly, RewriteSystem, \
    _add_scaled, _bump, memoized
from .scalars import ZERO, GaussRational, TruncSeries, parse_gauss_literal
from .reporting import ResidualReport, evaluate


class PolyCoord(LinearCombination):
    """Commutative polynomial in the coordinates, exponent-vector keyed."""

    __slots__ = ("dim", "order", "terms")

    def __init__(self, dim: int, order: int, terms: dict):
        self.dim = dim
        self.order = order
        self.terms = terms

    @staticmethod
    def zero(dim, order) -> "PolyCoord":
        return PolyCoord(dim, order, {})

    @staticmethod
    def one(dim, order, coeff=1) -> "PolyCoord":
        return PolyCoord.monomial(dim, order, (0,) * dim, coeff)

    @staticmethod
    def coord(dim, order, mu: int, coeff=1) -> "PolyCoord":
        exp = tuple(1 if k == mu else 0 for k in range(dim))
        return PolyCoord.monomial(dim, order, exp, coeff)

    @staticmethod
    def monomial(dim, order, exp, coeff=1) -> "PolyCoord":
        if len(exp) != dim:
            raise ValueError("exponent vector has wrong length")
        c = TruncSeries.coerce(coeff, order)
        return PolyCoord(dim, order, {} if c.is_zero() else {tuple(exp): c})

    def _space(self):
        return (self.dim, self.order)

    def _order(self):
        return self.order

    def _mismatch(self, other):
        return "coordinate algebra mismatch"

    def __mul__(self, other):
        if other.__class__ is not PolyCoord and isinstance(other, SCALARS):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                _bump(out, e, c1 * c2)
        return PolyCoord(self.dim, self.order, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            parts.append(f"({self.terms[e]})*{monomial_str(e)}")
        return " + ".join(parts)


def monomial_str(exp) -> str:
    """An exponent vector as ``x0 x1^2``; the empty monomial is ``1``."""
    return " ".join(f"x{k}" if p == 1 else f"x{k}^{p}" for k, p in enumerate(exp) if p) or "1"


class RepData:
    """Representation matrices for the symmetry sector plus the pairing of
    momenta with coordinates.

    Construction checks only shapes and names.  ``representation_residuals``
    reports whether the matrices realize the declared brackets (the matrix of
    [L_a, L_b] equals the matrix commutator) and whether the full action
    composes consistently with every bracket in the alphabet.
    """

    def __init__(self, rs: RewriteSystem, matrices: dict, momenta, coordinates=None):
        self.rs = rs
        self.momenta = tuple(momenta)
        self.dim = len(self.momenta)
        self.coordinates = tuple(coordinates) if coordinates else tuple(
            f"x{k}" for k in range(self.dim)
        )
        if len(self.coordinates) != self.dim:
            raise ValueError("coordinate names must match the momentum count")

        declared_momenta = set(rs.names(MOMENTUM))
        if set(self.momenta) != declared_momenta:
            raise ValueError("momentum ordering must cover the declared momenta")
        self.momentum_index = {}
        for k, name in enumerate(self.momenta):
            self.momentum_index[rs._rank(name)] = k

        self.matrices = {}
        for name in rs.names(SYMMETRY):
            if name not in matrices:
                raise ValueError(f"missing representation matrix for {name!r}")
            rows = matrices[name]
            if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
                raise ValueError(f"matrix for {name!r} is not {self.dim}x{self.dim}")
            self.matrices[name] = tuple(
                tuple(
                    parse_gauss_literal(v) if isinstance(v, str) else GaussRational.coerce(v)
                    for v in row
                )
                for row in rows
            )

    # -- the action ------------------------------------------------------

    def act_rank(self, rank: int, a: PolyCoord) -> PolyCoord:
        """One generator acting on a polynomial; momenta lower the coordinate
        degree by one, symmetry letters preserve it."""
        g = self.rs.generators[rank]
        out: dict = {}
        if g.sort == MOMENTUM:
            nu = self.momentum_index[rank]
            for e, c in a.terms.items():
                if e[nu]:
                    e2 = e[:nu] + (e[nu] - 1,) + e[nu + 1 :]
                    _bump(out, e2, c * e[nu])
        elif g.sort == SYMMETRY:
            mat = self.matrices[g.name]
            for e, c in a.terms.items():
                for beta in range(self.dim):
                    if not e[beta]:
                        continue
                    for alpha in range(self.dim):
                        entry = mat[beta][alpha]
                        if entry.is_zero():
                            continue
                        e2 = list(e)
                        e2[beta] -= 1
                        e2[alpha] += 1
                        _bump(out, tuple(e2), c * (-entry * e[beta]))
        else:
            raise ValueError(f"{g.name!r} does not act on the coordinate algebra")
        return PolyCoord(self.dim, a.order, out)

    @memoized
    def act_word(self, ranks, exp) -> PolyCoord:
        """A PBW word acting on a coordinate monomial (an exponent tuple),
        rightmost letter first."""
        cur = PolyCoord.monomial(self.dim, self.rs.order, exp, self.rs.unit)
        for rank in reversed(ranks):
            cur = self.act_rank(rank, cur)
            if cur.is_zero():
                break
        return cur

    # -- validation --------------------------------------------------------

    def representation_residuals(self) -> ResidualReport:
        """Matrix-commutator and action-composition consistency checks."""
        sym = self.rs.names(SYMMETRY)
        names = self.rs.names()

        def cases():
            for i, na in enumerate(sym):
                for nb in sym[i + 1 :]:
                    try:
                        want = _matrix_of(self, self.rs.bracket(na, nb))
                    except ValueError as exc:
                        yield f"matrix [{na},{nb}]", _Refusal(exc)
                        continue
                    have = _mat_sub(
                        _mat_mul(self.matrices[na], self.matrices[nb]),
                        _mat_mul(self.matrices[nb], self.matrices[na]),
                    )
                    yield f"matrix [{na},{nb}]", _Matrix(_mat_sub(have, want))
            coords = [PolyCoord.coord(self.dim, self.rs.order, mu, self.rs.unit)
                      for mu in range(self.dim)]
            for i, na in enumerate(names):
                pa = NCPoly.gen(self.rs, na)
                pa_coords = [act(self, pa, xmu) for xmu in coords]
                for nb in names[i + 1 :]:
                    pb = NCPoly.gen(self.rs, nb)
                    # pb * pa, not pa * pb: for na before nb the latter is
                    # already a normal word and acts letterwise as pa after pb
                    pba = pb * pa
                    for mu, xmu in enumerate(coords):
                        lhs = act(self, pba, xmu)
                        rhs = act(self, pb, pa_coords[mu])
                        yield lambda: f"compose [{na},{nb}] on x{mu}", lhs - rhs

        return evaluate(f"symmetry pairs + generator pairs x {self.dim} coordinates", cases)


class _Matrix(tuple):
    """A matrix difference as a residual: zero iff every entry is."""

    def is_zero(self) -> bool:
        return not any(not x.is_zero() for row in self for x in row)


class _Refusal(str):
    """Why a residual could not be formed: a case that always fails."""

    def is_zero(self) -> bool:
        return False


def _matrix_of(rep: RepData, p: NCPoly):
    """Matrix of a symmetry-sector polynomial of degree <= 1 (no momenta)."""
    m = rep.dim
    out = [[ZERO] * m for _ in range(m)]
    for (ranks,), c in p.terms.items():
        if len(ranks) != 1:
            raise ValueError("bracket of symmetry generators leaves the symmetry sector")
        g = rep.rs.generators[ranks[0]]
        if g.sort != SYMMETRY:
            raise ValueError("bracket of symmetry generators leaves the symmetry sector")
        if any(k > 0 for k in c.data):
            raise ValueError("structure constants must be h-free for the matrix check")
        scalar = c.coefficient(0)
        mat = rep.matrices[g.name]
        for a in range(m):
            for b in range(m):
                out[a][b] = out[a][b] + scalar * mat[a][b]
    return tuple(tuple(row) for row in out)


def _mat_mul(a, b):
    """Matrix product skipping the zeros of ``a``: representation matrices are sparse."""
    rows = [[(k, x) for k, x in enumerate(row) if not x.is_zero()] for row in a]
    return tuple(
        tuple(sum((x * b[k][j] for k, x in row), ZERO) for j in range(len(a)))
        for row in rows
    )


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def act(rep: RepData, h_elem: NCPoly, a: PolyCoord) -> PolyCoord:
    """Left action of a Hopf-algebra element on a coordinate polynomial."""
    if h_elem.nlegs != 1:
        raise ValueError("the action expects a single-leg element")
    if h_elem.rs is not rep.rs:
        raise ValueError("alphabet mismatch between element and representation")
    out: dict = {}
    for (ranks,), c in h_elem.terms.items():
        for e, ce in a.terms.items():
            part = rep.act_word(ranks, e)
            if not part.is_zero():
                _add_scaled(out, c * ce, part.terms)
    return PolyCoord(rep.dim, rep.rs.order, out)


class StarProduct:
    """The (possibly twisted) product on the coordinate algebra.

    With no twist this is the plain commutative product; with a twist F it is
    a *_F b = sum (Fbar_1 acting on a) (Fbar_2 acting on b) over the expansion
    of the inverse twist.  Monomial products are memoized.
    """

    def __init__(self, rep: RepData, twist=None):
        self.rep = rep
        self.twist = twist if twist is not None and not twist.is_trivial() else None

    def __call__(self, a: PolyCoord, b: PolyCoord) -> PolyCoord:
        if self.twist is None:
            return a * b
        out: dict = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                _add_scaled(out, ca * cb, self._mono(ea, eb).terms)
        return PolyCoord(self.rep.dim, self.rep.rs.order, out)

    @memoized
    def _mono(self, ea, eb) -> PolyCoord:
        rep = self.rep
        out: dict = {}
        for (w1, w2), c in self.twist.F_inv.terms.items():
            left = rep.act_word(w1, ea)
            if left.is_zero():
                continue
            right = rep.act_word(w2, eb)
            if right.is_zero():
                continue
            _add_scaled(out, c, (left * right).terms)
        return PolyCoord(rep.dim, rep.rs.order, out)


def monomials_up_to(dim: int, degree: int):
    """All exponent vectors with total degree <= degree, unit first."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    for d in range(degree + 1):
        rec([], d, dim)
    return out


def check_module_algebra(bialg, rep: RepData, degree: int = 3) -> ResidualReport:
    """Leibniz compatibility L(ab) = sum (L_1 a)(L_2 b) over sampled inputs,
    plus consistency of the action with the algebra relations.

    The second half is what catches a corrupted representation matrix: the
    letterwise action always satisfies Leibniz, but then the normal form of
    X Y no longer acts like X after Y.  The coproduct splits come from
    ``bialg``, the problem's presentation, whose memo the sweep shares.
    """
    if bialg.rs is not rep.rs:
        raise ValueError("bialgebra and representation use different alphabets")
    n = len(rep.rs.generators)
    words = [(r,) for r in range(n)] + [(r1, r2) for r1 in range(n) for r2 in range(r1, n)]
    monos = monomials_up_to(rep.dim, degree)
    order, unit = rep.rs.order, rep.rs.unit
    names = rep.rs.names()

    def cases():
        for ranks in words:
            splits = bialg.word_splits(ranks)
            word = ".".join(rep.rs.generators[r].name for r in ranks)
            for ea in monos:
                for eb in monos:
                    lhs = rep.act_word(ranks, tuple(x + y for x, y in zip(ea, eb)))
                    rhs = PolyCoord.zero(rep.dim, order)
                    for left, right, mult in splits:
                        part = rep.act_word(left, ea) * rep.act_word(right, eb)
                        rhs = rhs + part.scale(mult)
                    yield lambda: f"{word} on {ea}*{eb}", lhs - rhs
        for i, na in enumerate(names):
            pa = NCPoly.gen(rep.rs, na)
            for nb in names[: i + 1]:
                prod = pa * NCPoly.gen(rep.rs, nb)
                for ea in monos:
                    mono = PolyCoord.monomial(rep.dim, order, ea, unit)
                    lhs = act(rep, prod, mono)
                    rhs = act(rep, pa, rep.act_word((rep.rs._rank(nb),), ea))
                    yield lambda: f"relations [{na} {nb}] on {ea}", lhs - rhs

    return evaluate(f"{len(words)} words x {len(monos)}^2 monomials + relations", cases)


def check_braided_commutativity(star: StarProduct, R: NCPoly, degree: int = 3) -> ResidualReport:
    """Residual of a*b - (R_2 acting on b)*(R_1 acting on a) over monomials."""
    rep = star.rep
    order, unit = rep.rs.order, rep.rs.unit
    monos = monomials_up_to(rep.dim, degree)

    def cases():
        for ea in monos:
            a = PolyCoord.monomial(rep.dim, order, ea, unit)
            for eb in monos:
                b = PolyCoord.monomial(rep.dim, order, eb, unit)
                rhs = PolyCoord.zero(rep.dim, order)
                for (w1, w2), c in R.terms.items():
                    rb = rep.act_word(w2, eb)
                    ra = rep.act_word(w1, ea)
                    if rb.is_zero() or ra.is_zero():
                        continue
                    rhs = rhs + star(rb, ra).scale(c)
                yield lambda: f"{ea} vs {eb}", star(a, b) - rhs

    return evaluate(f"monomial pairs to degree {degree}", cases)


def star_commutator_table(star: StarProduct):
    """Matrix of x^mu * x^nu - x^nu * x^mu for all coordinate pairs."""
    rep = star.rep
    coords = [PolyCoord.coord(rep.dim, rep.rs.order, mu, rep.rs.unit) for mu in range(rep.dim)]
    return [
        [star(coords[mu], coords[nu]) - star(coords[nu], coords[mu]) for nu in range(rep.dim)]
        for mu in range(rep.dim)
    ]


def coaction(smash_algebra, R: NCPoly, a: PolyCoord):
    """Right coaction delta(a) = (R_2 acting on a) (x) R_1 as a mixed element."""
    from .smash import SmashElem

    rep = smash_algebra.rep
    terms: dict = {}
    for (w1, w2), c in R.terms.items():
        for e, ce in a.terms.items():
            part = rep.act_word(w2, e)
            for e2, c2 in part.terms.items():
                _bump(terms, (e2, w1), c * ce * c2)
    return SmashElem(smash_algebra, terms)
