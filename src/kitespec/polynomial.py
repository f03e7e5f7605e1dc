"""Dense integer polynomials with arbitrary-precision coefficients.

Coefficients are stored lowest power first, so ``coeffs[k]`` multiplies
``lambda**k``.  Serialization uses decimal strings to survive any JSON
consumer without precision loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


@dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.coeffs)
        if not all(type(x) is int for x in c):
            raise TypeError(f"coefficients must be int, got {c!r}")
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if not c:
            c = (0,)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self[k] + other[k] for k in range(n)))

    def __sub__(self, other) -> "IntPolynomial":
        return self + -other

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by lambda**k."""
        return IntPolynomial((0,) * k + self.coeffs)

    def pow(self, e: int) -> "IntPolynomial":
        result = IntPolynomial((1,))
        for _ in range(e):
            result = result * self
        return result

    __pow__ = pow

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0 * x if not isinstance(x, (int, float)) else type(x)(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def pretty(self) -> str:
        """Human-readable form in λ, highest power first."""
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                coef = "" if mag == 1 else str(mag)
                power = "" if k == 1 else str(k).translate(_SUPERSCRIPTS)
                term = f"{coef}λ{power}"
            if not parts:
                parts.append(term if c > 0 else f"−{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"− {term}")
        return " ".join(parts)


ONE = IntPolynomial((1,))


def lagrange_integer(points: list[tuple[int, int]]) -> IntPolynomial:
    """Interpolate the unique polynomial through integer points; raises if
    the result is not integer-coefficient."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            denom *= xi - xj
            # multiply basis by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] += c * -xj
                nxt[k + 1] += c
            basis = nxt
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ValueError(f"non-integer interpolated coefficient {c}")
        out.append(c.numerator)
    return IntPolynomial(tuple(out))
