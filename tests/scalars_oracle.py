"""Reference scalar kernel for differential tests.

This is the Fraction-based Gaussian-rational and truncated-series arithmetic
that smashtwist.scalars used before its integer kernel: each coefficient is a
pair of ``Fraction`` parts.  It is kept verbatim as an oracle; tests compare
every operation, query, string form and literal of the production kernel
against it.  It also holds ``invert``, the series inverse the package
dropped.  Nothing in the package imports it.
"""

from __future__ import annotations

from fractions import Fraction

from smashtwist import scalars as _package

_ZERO_FRACTION = Fraction(0)


class NonInvertibleError(ArithmeticError):
    """Raised when inverting a series whose constant coefficient is zero."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class GaussRational:
    """A value re + im*i with exact rational parts and i*i = -1."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @staticmethod
    def _raw(re: Fraction, im: Fraction) -> "GaussRational":
        out = GaussRational.__new__(GaussRational)
        out.re = re
        out.im = im
        return out

    @staticmethod
    def coerce(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, (int, Fraction, str)):
            return GaussRational(x)
        raise TypeError(f"cannot coerce {x!r} to GaussRational")

    def __add__(self, other):
        other = GaussRational.coerce(other)
        return GaussRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussRational.coerce(other)
        return GaussRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussRational.coerce(other) - self

    def __neg__(self):
        return GaussRational._raw(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussRational.coerce(other)
        if not self.im:
            if self.re == 1:
                return other
            if not other.im:
                return GaussRational._raw(self.re * other.re, _ZERO_FRACTION)
        if not other.im and other.re == 1:
            return self
        return GaussRational._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return GaussRational._raw(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return GaussRational.coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{istr})"


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


class TruncSeries:
    """Polynomial in the deformation parameter h truncated at a fixed order.

    Storage is sparse: ``data`` maps an h-power to its nonzero coefficient.
    All arithmetic silently discards terms of degree > order, and two series
    are equal iff they share the order and every coefficient.
    """

    __slots__ = ("order", "data")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.data = {}
        for k, c in enumerate(coeffs):
            c = GaussRational.coerce(c)
            if not c.is_zero():
                self.data[k] = c

    @staticmethod
    def _from_data(order: int, data: dict) -> "TruncSeries":
        out = TruncSeries.__new__(TruncSeries)
        out.order = order
        out.data = data
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(value, order: int) -> "TruncSeries":
        c = GaussRational.coerce(value)
        return TruncSeries._from_data(order, {} if c.is_zero() else {0: c})

    @staticmethod
    def zero(order: int) -> "TruncSeries":
        return TruncSeries._from_data(order, {})

    @staticmethod
    def one(order: int) -> "TruncSeries":
        return TruncSeries.const(1, order)

    @staticmethod
    def h_power(k: int, order: int, coeff=1) -> "TruncSeries":
        """coeff * h^k, or zero if k exceeds the order."""
        if k < 0:
            raise ValueError("negative power of h")
        c = GaussRational.coerce(coeff)
        if k > order or c.is_zero():
            return TruncSeries.zero(order)
        return TruncSeries._from_data(order, {k: c})

    @staticmethod
    def coerce(x, order: int) -> "TruncSeries":
        if isinstance(x, TruncSeries):
            if x.order != order:
                raise ValueError(f"order mismatch: {x.order} vs {order}")
            return x
        return TruncSeries.const(x, order)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "TruncSeries"):
        if not isinstance(other, TruncSeries):
            raise TypeError(f"expected TruncSeries, got {type(other).__name__}")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.data)
        for k, c in other.data.items():
            prev = out.get(k)
            if prev is None:
                out[k] = c
            else:
                s = prev + c
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        return TruncSeries._from_data(self.order, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.data)
        for k, c in other.data.items():
            prev = out.get(k)
            if prev is None:
                out[k] = -c
            else:
                s = prev - c
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        return TruncSeries._from_data(self.order, out)

    def __neg__(self):
        return TruncSeries._from_data(self.order, {k: -c for k, c in self.data.items()})

    def _is_unit(self) -> bool:
        if len(self.data) != 1:
            return False
        c = self.data.get(0)
        return c is not None and not c.im and c.re == 1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            return self.scale(other)
        self._check(other)
        if self._is_unit():
            return other
        if other._is_unit():
            return self
        order = self.order
        out: dict = {}
        for i, a in self.data.items():
            for j, b in other.data.items():
                k = i + j
                if k > order:
                    continue
                v = a * b
                prev = out.get(k)
                if prev is None:
                    out[k] = v
                else:
                    s = prev + v
                    if s.is_zero():
                        del out[k]
                    else:
                        out[k] = s
        return TruncSeries._from_data(order, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "TruncSeries":
        c = GaussRational.coerce(c)
        if c.is_zero():
            return TruncSeries._from_data(self.order, {})
        return TruncSeries._from_data(
            self.order, {k: v * c for k, v in self.data.items()}
        )

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse, defined iff the h^0 coefficient is nonzero."""
        a0 = self.data.get(0)
        if a0 is None:
            raise NonInvertibleError("series has no constant term")
        inv0 = ONE / a0
        out = {0: inv0}
        for k in range(1, self.order + 1):
            acc = ZERO
            for j in range(1, k + 1):
                aj = self.data.get(j)
                bk = out.get(k - j)
                if aj is not None and bk is not None:
                    acc = acc + aj * bk
            v = -inv0 * acc
            if not v.is_zero():
                out[k] = v
        return TruncSeries._from_data(self.order, out)

    def truncate(self, new_order: int) -> "TruncSeries":
        """Drop to a lower truncation order."""
        if new_order > self.order:
            raise ValueError("cannot raise the truncation order")
        return TruncSeries._from_data(
            new_order, {k: c for k, c in self.data.items() if k <= new_order}
        )

    # -- queries ------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(
            self.data.get(k, ZERO) for k in range(self.order + 1)
        )

    def coefficient(self, k: int) -> GaussRational:
        return self.data.get(k, ZERO)

    def is_zero(self) -> bool:
        return not self.data

    def lowest_order(self):
        """Smallest k with a nonzero h^k coefficient, or None if zero."""
        return min(self.data) if self.data else None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = TruncSeries.const(other, self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.data == other.data

    def __hash__(self):
        return hash((self.order, frozenset(self.data.items())))

    def __repr__(self):
        return f"TruncSeries({self.order}, {self.coeffs!r})"

    def __str__(self):
        parts = []
        for k in sorted(self.data):
            c = self.data[k]
            if k == 0:
                parts.append(str(c))
            else:
                hpow = "h" if k == 1 else f"h^{k}"
                if c == ONE:
                    parts.append(hpow)
                elif c == -ONE:
                    parts.append(f"-{hpow}")
                else:
                    parts.append(f"{c}*{hpow}")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += " - " + p[1:] if p.startswith("-") else " + " + p
        return text


def _parse_product(text: str):
    """Shared literal parser: returns (GaussRational value, h-power)."""
    value = GaussRational(1)
    h_power = 0
    factors = [f.strip() for f in str(text).split("*")]
    if not factors or any(not f for f in factors):
        raise ValueError(f"malformed scalar literal {text!r}")
    for k, tok in enumerate(factors):
        if tok.startswith("-") and k == 0 and tok != "-":
            value = -value
            tok = tok[1:].strip()
            if not tok:
                raise ValueError(f"malformed scalar literal {text!r}")
        if tok == "i":
            value = value * I
        elif tok == "h":
            h_power += 1
        elif tok.startswith("h^"):
            try:
                h_power += int(tok[2:])
            except ValueError:
                raise ValueError(f"bad power of h in {text!r}") from None
        else:
            try:
                value = value * GaussRational(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad factor {tok!r} in scalar literal {text!r}") from None
    return value, h_power


def parse_scalar_literal(text: str, order: int) -> TruncSeries:
    """Parse a product literal like "-1/2*i*h^2" into a series.

    The grammar is a '*'-separated product of factors: a rational (integer or
    numerator/denominator), the imaginary unit i, or a power of h.  A leading
    minus sign may be attached to the first factor.
    """
    value, h_power = _parse_product(text)
    return TruncSeries.h_power(h_power, order, value)


def parse_gauss_literal(text: str) -> GaussRational:
    """Parse an h-free literal like "-2/3*i" into a Gaussian rational."""
    value, h_power = _parse_product(text)
    if h_power:
        raise ValueError(f"literal {text!r} must not involve h here")
    return value


def scalar_literals(series: TruncSeries):
    """Decompose a series into product literals; parsing them back and
    summing recovers the series exactly."""
    out = []
    for k in sorted(series.data):
        c = series.data[k]
        for part, is_im in ((c.re, False), (c.im, True)):
            if part == 0:
                continue
            factors = [str(part)]
            if is_im:
                factors.append("i")
            if k == 1:
                factors.append("h")
            elif k > 1:
                factors.append(f"h^{k}")
            out.append("*".join(factors))
    return out


def invert(series):
    """Multiplicative inverse of a ``smashtwist.scalars.TruncSeries``, defined
    iff its h^0 coefficient is nonzero.

    The package never inverts a series, so this recurrence lives here.  It
    runs in the package's arithmetic; only the reciprocal of the h^0
    coefficient is taken in this kernel, as the package has no division.
    """
    a0 = series.data.get(0)
    if a0 is None:
        raise NonInvertibleError("series has no constant term")
    r0 = 1 / GaussRational(a0.re, a0.im)
    inv0 = _package.GaussRational(r0.re, r0.im)
    out = {0: inv0}
    for k in range(1, series.order + 1):
        acc = _package.GaussRational(0)
        for j in range(1, k + 1):
            aj = series.data.get(j)
            bk = out.get(k - j)
            if aj is not None and bk is not None:
                acc = acc + aj * bk
        v = -inv0 * acc
        if not v.is_zero():
            out[k] = v
    return _package.TruncSeries._from_data(series.order, out)
