"""Sparse multivariate polynomial arithmetic.

Polynomials are stored as a map from exponent tuples to float coefficients.
Everything downstream (vector fields, Jacobians, multiplier polynomials,
sum-of-squares bases) is built on this representation, so the conventions
here are global:

* a monomial is a tuple of non-negative ints, one exponent per variable;
* zero coefficients are never stored (pruning is exact, not thresholded);
* canonical term order is graded lexicographic.

Values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
import re

import numpy as np

Monomial = tuple[int, ...]


def grlex_key(mono: Monomial):
    """Sort key for graded-lexicographic monomial order."""
    return (sum(mono), mono)


class Polynomial:
    """A sparse real polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        self.nvars = int(nvars)
        clean: dict[Monomial, float] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(int(e) for e in mono)
                if len(mono) != nvars:
                    raise ValueError(
                        f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                c = float(coeff)
                if c != 0.0:
                    c += clean.get(mono, 0.0)
                    if c != 0.0:
                        clean[mono] = c
                    elif mono in clean:
                        del clean[mono]
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: float) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} vars")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: 1.0})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, float]:
        """Term map (treat as read-only)."""
        return self._terms

    def coeff(self, mono: Monomial) -> float:
        return self._terms.get(tuple(mono), 0.0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self) -> list[tuple[Monomial, float]]:
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]))

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- arithmetic --------------------------------------------------------

    def _check_arity(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"arity mismatch: {self.nvars} vs {other.nvars} variables"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check_arity(other)
        terms = dict(self._terms)
        for mono, c in other._terms.items():
            s = terms.get(mono, 0.0) + c
            if s == 0.0:
                terms.pop(mono, None)
            else:
                terms[mono] = s
        out = Polynomial(self.nvars)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial(self.nvars)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = float(other)
            if c == 0.0:
                return Polynomial.zero(self.nvars)
            out = Polynomial(self.nvars)
            out._terms = {m: v * c for m, v in self._terms.items()}
            return out
        self._check_arity(other)
        prod: dict[Monomial, float] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = prod.get(mono, 0.0) + c1 * c2
                if s == 0.0:
                    prod.pop(mono, None)
                else:
                    prod[mono] = s
        out = Polynomial(self.nvars)
        out._terms = prod
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.nvars, 1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __repr__(self):
        return f"Polynomial({self.nvars}, {poly_to_text(self)!r})"

    # -- calculus / evaluation --------------------------------------------

    def diff(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        terms: dict[Monomial, float] = {}
        for mono, c in self._terms.items():
            e = mono[index]
            if e == 0:
                continue
            dm = list(mono)
            dm[index] = e - 1
            terms[tuple(dm)] = c * e
        out = Polynomial(self.nvars)
        out._terms = terms
        return out

    def __call__(self, point) -> float:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.nvars,):
            raise ValueError(
                f"arity mismatch: point has shape {point.shape}, expected ({self.nvars},)"
            )
        total = 0.0
        for mono, c in self._terms.items():
            v = c
            for x, e in zip(point, mono):
                if e:
                    v *= x**e
            total += v
        return total

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, nvars) array of points, vectorized."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise ValueError(f"points must have shape (N, {self.nvars})")
        out = np.zeros(points.shape[0])
        for mono, c in self._terms.items():
            v = np.full(points.shape[0], c)
            for j, e in enumerate(mono):
                if e:
                    v *= points[:, j] ** e
            out += v
        return out

    def _source(self, names: list[str]) -> str:
        """The polynomial as a Python expression in the variable names."""
        parts = []
        for mono, c in self.sorted_terms():
            factors = [repr(c)]
            for j, e in enumerate(mono):
                factors.extend([names[j]] * e)
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0.0"

    def as_function(self):
        """Compile to a plain-Python scalar function of nvars floats.

        Fast path for tight simulation loops. Powers are expanded into
        repeated products, so values agree with __call__ to rounding.
        """
        names = [f"v{i}" for i in range(self.nvars)]
        src = f"def _poly({', '.join(names)}):\n    return {self._source(names)}\n"
        ns: dict = {}
        exec(src, ns)  # noqa: S102 - generated from numeric literals only
        return ns["_poly"]

    # -- substitution ------------------------------------------------------

    def embed(self, nvars: int, offset: int = 0) -> "Polynomial":
        """Reinterpret in a larger variable space, shifting indices by ``offset``."""
        if offset < 0 or offset + self.nvars > nvars:
            raise ValueError("embedding does not fit in target variable space")
        terms = {}
        for mono, c in self._terms.items():
            new = [0] * nvars
            new[offset : offset + self.nvars] = mono
            terms[tuple(new)] = c
        out = Polynomial(nvars)
        out._terms = terms
        return out

    def substitute(self, replacements: list["Polynomial"]) -> "Polynomial":
        """Substitute each variable with a polynomial over a common new space."""
        if len(replacements) != self.nvars:
            raise ValueError("need one replacement per variable")
        if not replacements:
            return Polynomial(0, dict(self._terms))
        target = replacements[0].nvars
        for r in replacements:
            if r.nvars != target:
                raise ValueError("replacement polynomials disagree on arity")
        result = Polynomial.zero(target)
        for mono, c in self._terms.items():
            term = Polynomial.constant(target, c)
            for j, e in enumerate(mono):
                if e:
                    term = term * replacements[j] ** e
            result = result + term
        return result


# -- line integrals ------------------------------------------------------------


def line_integral_unit(p: Polynomial, a, b) -> float:
    """Exact value of the path integral of p over the unit-parameter segment.

    Computes ``int_0^1 p(a + s*b) ds`` by substituting the affine path,
    collecting a univariate polynomial in s, and evaluating its
    antiderivative at 1 minus at 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (p.nvars,) or b.shape != (p.nvars,):
        raise ValueError(f"path endpoints must have shape ({p.nvars},)")
    total = 0.0
    for mono, c in p._terms.items():
        u = np.array([1.0])
        for ai, bi, e in zip(a, b, mono):
            if e == 0:
                continue
            # (ai + bi*s)^e, coefficients in increasing powers of s
            fac = np.array(
                [math.comb(e, k) * ai ** (e - k) * bi**k for k in range(e + 1)]
            )
            u = np.convolve(u, fac)
        total += c * sum(u[k] / (k + 1) for k in range(len(u)))
    return total


def line_integral_form(p: Polynomial) -> Polynomial:
    """Path integral of p as a polynomial in (start, offset).

    Returns q in 2n variables with ``q(a, b) == line_integral_unit(p, a, b)``,
    obtained by substituting x_i -> a_i + s*b_i and integrating out s.
    """
    n = p.nvars
    # work in (a_1..a_n, b_1..b_n, s)
    wide = 2 * n + 1
    s = Polynomial.variable(wide, 2 * n)
    repl = [
        Polynomial.variable(wide, i) + s * Polynomial.variable(wide, n + i)
        for i in range(n)
    ]
    composed = p.substitute(repl)
    terms: dict[Monomial, float] = {}
    for mono, c in composed._terms.items():
        k = mono[2 * n]
        reduced = mono[: 2 * n]
        terms[reduced] = terms.get(reduced, 0.0) + c / (k + 1)
    return Polynomial(2 * n, terms)


# -- polynomial matrices ----------------------------------------------------


class PolyMatrix:
    """A dense matrix of polynomials sharing one variable space."""

    __slots__ = ("nvars", "rows", "cols", "_entries", "symmetric")

    def __init__(self, nvars: int, rows: int, cols: int, entries=None, symmetric=False):
        self.nvars = nvars
        self.rows = rows
        self.cols = cols
        self.symmetric = bool(symmetric)
        if entries is None:
            self._entries = [
                [Polynomial.zero(nvars) for _ in range(cols)] for _ in range(rows)
            ]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry grid does not match declared shape")
            for row in entries:
                for p in row:
                    if p.nvars != nvars:
                        raise ValueError("entry arity does not match matrix arity")
            self._entries = [list(r) for r in entries]
        if self.symmetric:
            if rows != cols:
                raise ValueError("symmetric matrix must be square")
            for i in range(rows):
                for j in range(i):
                    if self._entries[i][j] != self._entries[j][i]:
                        raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")

    @classmethod
    def column(cls, entries: list[Polynomial]) -> "PolyMatrix":
        if not entries:
            raise ValueError("empty column")
        return cls(entries[0].nvars, len(entries), 1, [[p] for p in entries])

    def entry(self, i: int, j: int) -> Polynomial:
        return self._entries[i][j]

    def transpose(self) -> "PolyMatrix":
        ent = [[self._entries[j][i] for j in range(self.rows)] for i in range(self.cols)]
        return PolyMatrix(self.nvars, self.cols, self.rows, ent, symmetric=self.symmetric)

    def as_function(self):
        """Compile a column to one function x -> (rows,) array whose entries
        are the expressions of Polynomial.as_function (the same values)."""
        if self.cols != 1:
            raise ValueError("only a column compiles to a vector function")
        names = [f"v{i}" for i in range(self.nvars)]
        rows = ", ".join(self.entry(i, 0)._source(names) for i in range(self.rows))
        unpack = f"    {', '.join(names)}, = x\n" if names else ""
        src = f"def _column(x):\n{unpack}    return _array([{rows}])\n"
        ns: dict = {"_array": np.array}
        exec(src, ns)  # noqa: S102 - generated from numeric literals only
        return ns["_column"]

    def eval(self, point) -> np.ndarray:
        out = np.empty((self.rows, self.cols))
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self._entries[i][j](point)
        return out

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = np.empty((points.shape[0], self.rows, self.cols))
        for i in range(self.rows):
            for j in range(self.cols):
                out[:, i, j] = self._entries[i][j].eval_many(points)
        return out

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, nvars={self.nvars})"


def jacobian(f: PolyMatrix) -> PolyMatrix:
    """Jacobian of a polynomial vector field given as an n x 1 column."""
    if f.cols != 1:
        raise ValueError("jacobian expects a column matrix")
    n = f.rows
    if f.nvars != n:
        raise ValueError(f"vector field has {n} rows but {f.nvars} variables")
    ent = [[f.entry(i, 0).diff(j) for j in range(n)] for i in range(n)]
    return PolyMatrix(f.nvars, n, n, ent)


# -- text format -------------------------------------------------------------
#
# Terms are written `coeff*x1^a*x2^b`, joined by `+`/`-`; variables are
# x1..xn unless alias names are supplied (the two-state benchmark uses
# phi, psi). Coefficients round-trip exactly via repr().


class PolyParseError(ValueError):
    """Malformed polynomial text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"\s+"
    r"|(?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[\^*+-])"
)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise PolyParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if not lexeme.isspace():
            kind = "num" if m.group("num") else ("name" if m.group("name") else "op")
            tokens.append((kind, lexeme, line, col))
        for ch in lexeme:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    return tokens


def poly_from_text(text: str, nvars: int, names: list[str] | None = None) -> Polynomial:
    """Parse polynomial text. Accepts x1..xn plus optional alias names."""
    var_index = {f"x{i + 1}": i for i in range(nvars)}
    if names is not None:
        if len(names) != nvars:
            raise ValueError("need one alias name per variable")
        for i, nm in enumerate(names):
            var_index[nm] = i
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 1, 1)
    terms: dict[Monomial, float] = {}
    i = 0
    first = True
    while i < len(tokens):
        sign = 1.0
        # leading/joining signs
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
            first = False
        if not first and sign == 1.0 and i < len(tokens) and tokens[i][0] != "op":
            pass
        if i >= len(tokens):
            ln, cl = tokens[-1][2], tokens[-1][3]
            raise PolyParseError("dangling sign", ln, cl)
        coeff = sign
        expo = [0] * nvars
        saw_factor = False
        expect_factor = True
        while i < len(tokens):
            kind, lex, ln, cl = tokens[i]
            if kind == "op" and lex in "+-":
                break
            if kind == "op" and lex == "*":
                if expect_factor:
                    raise PolyParseError("unexpected '*'", ln, cl)
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise PolyParseError(f"missing '*' before {lex!r}", ln, cl)
            if kind == "num":
                coeff *= float(lex)
                saw_factor = True
                expect_factor = False
                i += 1
            elif kind == "name":
                if lex not in var_index:
                    raise PolyParseError(f"unknown variable {lex!r}", ln, cl)
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "num":
                        raise PolyParseError("expected integer exponent after '^'", ln, cl)
                    ptxt = tokens[i][1]
                    if not ptxt.isdigit():
                        raise PolyParseError(
                            f"exponent must be a non-negative integer, got {ptxt!r}",
                            tokens[i][2],
                            tokens[i][3],
                        )
                    power = int(ptxt)
                    i += 1
                expo[var_index[lex]] += power
                saw_factor = True
                expect_factor = False
            else:
                raise PolyParseError(f"unexpected token {lex!r}", ln, cl)
        if not saw_factor:
            ln, cl = tokens[min(i, len(tokens) - 1)][2], tokens[min(i, len(tokens) - 1)][3]
            raise PolyParseError("empty term", ln, cl)
        mono = tuple(expo)
        terms[mono] = terms.get(mono, 0.0) + coeff
        first = False
    return Polynomial(nvars, terms)


def poly_to_text(p: Polynomial, names: list[str] | None = None) -> str:
    """Render in the term text format; lossless under poly_from_text."""
    if names is None:
        names = [f"x{i + 1}" for i in range(p.nvars)]
    elif len(names) != p.nvars:
        raise ValueError("need one name per variable")
    items = sorted(p._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
    if not items:
        return "0.0"
    chunks = []
    for k, (mono, coeff) in enumerate(items):
        neg = coeff < 0 or (coeff == 0.0 and math.copysign(1.0, coeff) < 0)
        mag = -coeff if neg else coeff
        factors = [repr(mag)]
        for j, e in enumerate(mono):
            if e == 1:
                factors.append(names[j])
            elif e > 1:
                factors.append(f"{names[j]}^{e}")
        body = "*".join(factors)
        if k == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)
