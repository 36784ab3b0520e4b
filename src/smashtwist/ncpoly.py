"""Noncommutative polynomials with confluent rewriting to a PBW normal form.

A generator alphabet is declared once with a fixed total order (symmetry
generators first, then momenta, then coordinates, each block in declaration
order), together with Lie-type commutation corrections X_b X_a = X_a X_b + C
for b > a, where C has word length at most one.  Tensor powers of the algebra
reuse the same alphabet; letters in distinct legs commute exactly.

A word of the n-fold tensor power is a tuple of n rank tuples, one per leg:
``((ranks_1), ..., (ranks_n))``, and a single-leg word is ``(ranks,)``.  A
polynomial maps normal-ordered words to TruncSeries coefficients and never
stores a zero coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from operator import add, le

from .scalars import GaussRational, InternTable, TruncSeries, parse_scalar_literal

SYMMETRY = "symmetry"
MOMENTUM = "momentum"
COORDINATE = "coordinate"

_SORT_BLOCK = {SYMMETRY: 0, MOMENTUM: 1, COORDINATE: 2}


class Generator:
    """A letter of the alphabet.

    ``rank`` is the position in the fixed total order, so within a leg the
    declaration blocks apply.
    """

    __slots__ = ("name", "sort", "rank")

    def __init__(self, name: str, sort: str, rank: int):
        if sort not in _SORT_BLOCK:
            raise ValueError(f"unknown generator sort {sort!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("Generator is immutable")

    def __repr__(self):
        return f"Generator({self.name!r}, {self.sort!r}, rank={self.rank})"


def _bump(d: dict, key, value):
    """Add ``value`` at ``key`` of a term dict, which never stores a zero:
    a zero is not inserted, and a sum that cancels is deleted."""
    prev = d.get(key)
    if prev is None:
        if not value.is_zero():
            d[key] = value
    else:
        s = prev + value
        if s.is_zero():
            del d[key]
        else:
            d[key] = s


def _add_scaled(out: dict, c, terms: dict) -> dict:
    """Add ``c * terms`` into the term dict ``out``, and return ``out``."""
    for k, v in terms.items():
        _bump(out, k, c * v)
    return out


def _linear(image, terms: dict) -> dict:
    """The image of ``terms`` under the linear map whose basis images, as
    term dicts, are ``image(key)``."""
    out: dict = {}
    for key, c in terms.items():
        _add_scaled(out, c, image(key))
    return out


_MISSING = object()


def memoized(method):
    """Memoize a method of one or two arguments per instance, keyed by its
    argument or by the pair of them.

    On first use the instance gets one attribute, ``_memos``, a dict of
    memos by method qualname.  It holds no reference back to the instance,
    so it dies with it; a result that refers to the instance makes a cycle
    the collector frees.  Results are shared: callers must not mutate them.
    ``wraps`` keeps the method's ``__module__`` and ``__qualname__``, by
    which profilers charge its time.  A lookup costs about what the
    hand-written ``dict.get`` it replaces did, plus the one subscript that
    finds the memo: the wrappers have fixed arity, as a ``*args`` call costs
    more; the memos are an ordinary attribute, as touching ``__dict__`` slows
    every attribute of the instance; and a miss raises nothing, as a fresh
    problem misses on almost every call.
    """
    name = method.__qualname__
    nargs = method.__code__.co_argcount - 1

    if nargs == 1:
        def lookup(self, arg):
            try:
                memo = self._memos[name]
            except (AttributeError, KeyError):
                memo = _new_memo(self, name)
            value = memo.get(arg, _MISSING)
            if value is _MISSING:
                value = memo[arg] = method(self, arg)
            return value
    elif nargs == 2:
        def lookup(self, a, b):
            try:
                memo = self._memos[name]
            except (AttributeError, KeyError):
                memo = _new_memo(self, name)
            value = memo.get((a, b), _MISSING)
            if value is _MISSING:
                value = memo[a, b] = method(self, a, b)
            return value
    else:
        raise TypeError(f"memoized takes one or two arguments; {name} takes {nargs}")
    return wraps(method)(lookup)


def _new_memo(owner, name: str) -> dict:
    try:
        memos = owner._memos
    except AttributeError:
        memos = owner._memos = {}
    memo = memos[name] = {}
    return memo


class RewriteSystem:
    """Alphabet plus commutation corrections.

    ``brackets`` maps a pair of generator names (a, b) to the value of
    [X_a, X_b] given as a list of (coefficient, generator-name-or-None) terms;
    None denotes the unit word (a central term).  Antisymmetry is built in:
    only one orientation per pair may be supplied.  Construction checks only
    the shape of the table: Jacobi closure is reported by
    ``jacobi_residuals``, so a failing table still builds and its witness
    reaches the report.  ``scalars`` is the problem's intern table and
    ``unit`` its canonical 1.
    """

    def __init__(self, order: int, generators, brackets=None):
        self.order = order
        self.scalars = InternTable(order)
        self.unit = self.scalars.one
        blocks = ([], [], [])
        for item in generators:
            name, sort = item
            blocks[_SORT_BLOCK[sort]].append((name, sort))
        gens = []
        for block in blocks:
            for name, sort in block:
                gens.append(Generator(name, sort, len(gens)))
        self.generators = tuple(gens)
        self.rank_of = {}
        for g in self.generators:
            if g.name in self.rank_of:
                raise ValueError(f"duplicate generator name {g.name!r}")
            self.rank_of[g.name] = g.rank

        # _corr[(hi, lo)] = terms of C with X_hi X_lo = X_lo X_hi + C
        self._corr: dict = {}
        seen = set()
        for (na, nb), terms in (brackets or {}).items():
            ra, rb = self._rank(na), self._rank(nb)
            if ra == rb:
                raise ValueError(f"bracket of {na!r} with itself")
            pair = (min(ra, rb), max(ra, rb))
            if pair in seen:
                raise ValueError(f"bracket for pair ({na}, {nb}) given twice")
            seen.add(pair)
            corr = []
            for coeff, name in terms:
                if isinstance(coeff, str):
                    c = parse_scalar_literal(coeff, order)
                else:
                    c = TruncSeries.coerce(coeff, order)
                if c.order != order:
                    raise ValueError("bracket coefficient has wrong order")
                word = () if name is None else (self._rank(name),)
                corr.append((word, self.scalars.intern(c)))
            # store as [X_hi, X_lo]; flip the sign if given the other way round
            if ra > rb:
                self._corr[(ra, rb)] = tuple(corr)
            else:
                self._corr[(rb, ra)] = tuple((w, -c) for w, c in corr)
        self._corr = {k: v for k, v in self._corr.items()
                      if any(not c.is_zero() for _, c in v)}

    def _rank(self, name: str) -> int:
        try:
            return self.rank_of[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def names(self, sort=None):
        return tuple(g.name for g in self.generators if sort is None or g.sort == sort)

    # -- rewriting ------------------------------------------------------

    @memoized
    def normalize_word(self, word) -> dict:
        """PBW normal form of a word as a dict {word: TruncSeries}.

        Letters of distinct legs commute exactly, so the normal form of a
        word is the product of the per-leg forms (``leg_form``), each unique
        by the diamond lemma; cross-leg coefficient products that truncate
        to zero are dropped.  Every coefficient is canonical in
        ``self.scalars``, so a unit one is ``self.unit``.  The returned dict
        is memoized and shared; callers must not mutate it.
        """
        unit = self.unit
        out = {(): unit}
        for ranks in word:
            form = self.leg_form(ranks)
            grown = {}
            for w, c in out.items():
                for normal, k in form.items():
                    if c is unit:
                        v = k
                    elif k is unit:
                        v = c
                    else:
                        v = c * k
                        if v.is_zero():
                            continue
                    grown[w + (normal,)] = v
            out = grown
        return out

    @memoized
    def leg_form(self, ranks) -> dict:
        """Normal form {ranks: TruncSeries} of one leg's rank tuple."""
        unit = self.unit
        if all(a <= b for a, b in zip(ranks, ranks[1:])):
            return {ranks: unit}
        # rewrite the leftmost descent until none is left
        form = {}
        stack = [(ranks, unit)]
        while stack:
            w, c = stack.pop()
            for i in range(len(w) - 1):
                if w[i] > w[i + 1]:
                    break
            else:
                _bump(form, w, c)
                continue
            stack.append((w[:i] + (w[i + 1], w[i]) + w[i + 2 :], c))
            for cw, cc in self._corr.get((w[i], w[i + 1]), ()):
                stack.append((w[:i] + cw + w[i + 2 :], cc if c is unit else c * cc))
        return form

    def jacobi_residuals(self):
        """Nonzero Jacobi residuals [(name_a, name_b, name_c, NCPoly)].

        A correction has word length at most one, so [[X_a, X_b], X_c] is a
        combination of generator brackets [X_r, X_c].  The table of all n^2
        of them is filled once, one commutator per unordered pair and the
        rest by antisymmetry, and every triple reads from it.
        """
        gens = [NCPoly.gen(self, g.name) for g in self.generators]
        names = [g.name for g in self.generators]
        n = len(gens)
        table = [[NCPoly.zero(self)] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                table[a][b] = gens[a].commutator(gens[b])
                table[b][a] = -table[a][b]

        bad = []
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    out: dict = {}
                    for inner, outer in ((table[a][b], c), (table[b][c], a), (table[c][a], b)):
                        for (ranks,), k in inner.terms.items():
                            if ranks:  # a central term commutes with everything
                                _add_scaled(out, k, table[ranks[0]][outer].terms)
                    if out:
                        bad.append((names[a], names[b], names[c], NCPoly(self, 1, out)))
        return bad

    def bracket(self, name_a: str, name_b: str) -> "NCPoly":
        """[X_a, X_b] as a polynomial."""
        return NCPoly.gen(self, name_a).commutator(NCPoly.gen(self, name_b))


SCALARS = (TruncSeries, int, Fraction, GaussRational)


class LinearCombination:
    """Sparse linear combination {key: TruncSeries} with no zero coefficient.

    The vector-space structure of every element class lives here.  A subclass
    keeps ``terms`` and its own products, constructors and ``repr``, and
    supplies three methods: ``_space()``, the constructor arguments before
    ``terms``, which two elements must share to be combined; ``_order()``,
    the truncation order a scalar is coerced to; ``_mismatch(other)``, the
    message of the ``ValueError`` raised when the spaces differ.
    """

    __slots__ = ()

    def _like(self, terms: dict):
        return self.__class__(*self._space(), terms)

    def _check(self, other):
        if not isinstance(other, self.__class__):
            raise TypeError(f"expected {self.__class__.__name__}, got {type(other).__name__}")
        if self._space() != other._space():
            raise ValueError(self._mismatch(other))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _bump(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _bump(out, k, -c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, value):
        c = value if isinstance(value, TruncSeries) else TruncSeries.coerce(value, self._order())
        if c.is_zero() or not self.terms:
            return self._like({})
        # one join of the coefficients' intern table, not one per term
        home = next(iter(self.terms.values()))._home
        table = home and home()
        return self._like(_add_scaled({}, c if table is None else table.intern(c), self.terms))

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, self.__class__):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms


class NCPoly(LinearCombination):
    """Linear combination of PBW words over a shared rewrite system.

    ``terms`` never holds a zero coefficient, and each coefficient's ``data``
    holds only nonzero h-coefficients, so ``lowest_order()`` of a stored
    coefficient is its true valuation.  The product relies on this to skip
    pairs whose valuations sum past the truncation order; a zero coefficient
    (empty ``data``), should one be passed in, is skipped.
    """

    __slots__ = ("rs", "nlegs", "terms")

    def __init__(self, rs: RewriteSystem, nlegs: int, terms: dict):
        self.rs = rs
        self.nlegs = nlegs
        self.terms = terms

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(rs, nlegs=1) -> "NCPoly":
        return NCPoly(rs, nlegs, {})

    @staticmethod
    def one(rs, nlegs=1) -> "NCPoly":
        return NCPoly(rs, nlegs, {((),) * nlegs: rs.unit})

    @staticmethod
    def gen(rs, name, leg=1, nlegs=1) -> "NCPoly":
        word = _word_on_leg((rs._rank(name),), leg, nlegs)
        return NCPoly(rs, nlegs, {word: rs.unit})

    @staticmethod
    def from_word(rs, names, coeff=1, nlegs=1, leg=1) -> "NCPoly":
        """Polynomial coeff * (product of named generators), normal formed."""
        word = _word_on_leg(tuple(rs._rank(n) for n in names), leg, nlegs)
        c = rs.scalars.intern(TruncSeries.coerce(coeff, rs.order))
        return NCPoly(rs, nlegs, _add_scaled({}, c, rs.normalize_word(word)))

    # -- ring structure ---------------------------------------------------

    def _space(self):
        return (self.rs, self.nlegs)

    def _order(self):
        return self.rs.order

    def _mismatch(self, other):
        if self.rs is not other.rs:
            return "alphabet mismatch between polynomials"
        return f"leg count mismatch: {self.nlegs} vs {other.nlegs}"

    def __mul__(self, other):
        if other.__class__ is not NCPoly and isinstance(other, SCALARS):
            return self.scale(other)
        self._check(other)
        order = self.rs.order
        # c1 * c2 vanishes exactly when the lowest h-orders of c1 and c2 sum
        # past the order (Q(i) has no zero divisors), so the right factor's
        # terms are bucketed by lowest order and such pairs are never formed.
        # Stored words are normal, so a pair's concatenation is normal, and
        # needs no normal-form lookup, exactly when no leg descends at the
        # seam: the last rank of each left leg is at most the first rank of
        # the right one (an empty leg never descends).
        top = len(self.rs.generators)
        buckets = [[] for _ in range(order + 1)]
        for w2, c2 in other.terms.items():
            v2 = c2.lowest_order()
            if v2 is not None:
                buckets[v2].append((w2, c2, [r[0] if r else top for r in w2]))
        normalize = self.rs.normalize_word
        unit = self.rs.unit
        out: dict = {}
        for w1, c1 in self.terms.items():
            v1 = c1.lowest_order()
            if v1 is None:
                continue
            last1 = [r[-1] if r else 0 for r in w1]
            for bucket in buckets[: order + 1 - v1]:
                for w2, c2, first2 in bucket:
                    c = c1 * c2
                    if c.is_zero():
                        continue
                    w = tuple(map(add, w1, w2))
                    if all(map(le, last1, first2)):
                        _bump(out, w, c)
                        continue
                    for w, k in normalize(w).items():
                        _bump(out, w, c if k is unit else c * k)
        return NCPoly(self.rs, self.nlegs, out)

    def commutator(self, other: "NCPoly") -> "NCPoly":
        return self * other - other * self

    def exp_truncated(self) -> "NCPoly":
        """Truncated exponential sum_k self^k / k!.

        Requires the h^0 part to vanish so the series terminates at the
        truncation order.
        """
        if not self.has_no_constant_order():
            raise ValueError("exponent has a nonzero h^0 component")
        acc = NCPoly.one(self.rs, self.nlegs)
        term = acc
        for k in range(1, self.rs.order + 1):
            term = (term * self).scale(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
        return acc

    # -- leg bookkeeping ---------------------------------------------------

    def place_legs(self, legs, nlegs: int) -> "NCPoly":
        """Move the legs of this element inside an n-fold tensor.

        ``legs[i]`` names the destination (1..nlegs) of the i-th source leg;
        the other destination legs hold the empty word.  Distinct legs
        commute exactly, so the moved words are already normal ordered.
        """
        legs = tuple(legs)
        if len(legs) != self.nlegs:
            raise ValueError(f"need {self.nlegs} destination legs, got {len(legs)}")
        for leg in legs:
            if not 1 <= leg <= nlegs:
                raise ValueError(f"leg {leg} out of range for {nlegs} legs")
        if len(set(legs)) != len(legs):
            raise ValueError("destination legs must be distinct")
        terms = {}
        for w, c in self.terms.items():
            moved = [()] * nlegs
            for leg, ranks in zip(legs, w):
                moved[leg - 1] = ranks
            terms[tuple(moved)] = c
        return NCPoly(self.rs, nlegs, terms)

    def swap_legs(self) -> "NCPoly":
        """Exchange the two legs of a two-leg element."""
        if self.nlegs != 2:
            raise ValueError("swap_legs requires a two-leg polynomial")
        return self.place_legs((2, 1), 2)

    # -- queries ---------------------------------------------------------

    def has_no_constant_order(self) -> bool:
        return all(c.coefficient(0).is_zero() for c in self.terms.values())

    def h_coefficient(self, k: int) -> "NCPoly":
        """The h^k coefficient as a polynomial with constant coefficients."""
        out = {}
        for w, c in self.terms.items():
            v = c.coefficient(k)
            if not v.is_zero():
                out[w] = TruncSeries.const(v, self.rs.order)
        return NCPoly(self.rs, self.nlegs, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = [g.name for g in self.rs.generators]
        parts = []
        for w in sorted(self.terms, key=_letters):
            word = " (x) ".join(" ".join(names[r] for r in ranks) or "1" for ranks in w)
            parts.append(f"({self.terms[w]})*{word}")
        return " + ".join(parts)


def _word_on_leg(ranks, leg: int, nlegs: int) -> tuple:
    """The word with ``ranks`` on one leg of an n-fold tensor, empty elsewhere."""
    if not 1 <= leg <= nlegs:
        raise ValueError(f"leg {leg} out of range for {nlegs} legs")
    return ((),) * (leg - 1) + (ranks,) + ((),) * (nlegs - leg)


def _letters(word) -> tuple:
    """A word as one tuple of (leg, rank) letters: the order terms print in."""
    return tuple((leg, r) for leg, ranks in enumerate(word) for r in ranks)
