"""Exact integer linear algebra for resonance adaptation.

A generator k (coprime components, first nonzero positive) is completed to a
matrix A in SL(n, Z) whose first row is k; the construction is a recursive
extended-gcd reduction of (k_1, ..., k_{n-1}) against k_n, chosen so that

    |A_hat|_inf <= |k|_inf,   |A|_inf = |k|_inf,
    |A^{-1}|_inf <= (n-1)^{(n-1)/2} |k|_inf^{n-1}.

All arithmetic is exact (Python integers and fractions): determinants via
fraction-free elimination, inverses via the adjugate. The rational decoupling
matrix U differs from the identity only in its first row and block-diagonalizes
the pulled-back kinetic form:

    |A^T U Y|^2 = |k|^2 Y_1^2 + |P_k^perp A_hat^T Yhat|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fourier import ConfigError, Mode, Record, is_generator


IntMatrix = list[list[int]]


def int_det(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def int_adjugate(matrix: IntMatrix) -> IntMatrix:
    """Exact adjugate; A^{-1} = adj(A)/det(A)."""
    n = len(matrix)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != j]
                for r in range(n) if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * int_det(minor)
    return adj


def mat_vec(matrix, vec):
    return [sum(matrix[i][j] * vec[j] for j in range(len(vec))) for i in range(len(matrix))]


def mat_transpose(matrix):
    return [list(col) for col in zip(*matrix)]


def mat_mul(a, b):
    bt = mat_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def apply(matrix, v) -> np.ndarray:
    """M v, shape L + (rows,), for an exact M (rows of ints or Fractions), or its entries rounded
    once by np.asarray(M, dtype=float) and held to apply M often, and floats v of shape L + (cols,):
    each row is summed in column order, so no BLAS kernel or fused multiply-add sets the bits."""
    M = np.asarray(matrix, dtype=float)
    v = np.asarray(v, dtype=float)
    out = v[..., :1] * M[:, 0]
    for j in range(1, v.shape[-1]):
        out += v[..., j:j + 1] * M[:, j]
    return out


@dataclass(frozen=True)
class UnimodularMatrix(Record):
    """A in SL(n, Z) with first row k, exact inverse, and norm bounds."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> Mode:
        return self.rows[0]

    @property
    def A_hat(self) -> tuple[tuple[int, ...], ...]:
        return self.rows[1:]

    @cached_property
    def det(self) -> int:
        return int_det([list(r) for r in self.rows])

    @cached_property
    def inverse(self) -> tuple[tuple[int, ...], ...]:
        """adj(A), which is A^{-1} since complete_to_sl only builds det A = 1."""
        return tuple(tuple(row) for row in int_adjugate([list(r) for r in self.rows]))

    def norm_inf(self, rows=None) -> int:
        rows = self.rows if rows is None else rows
        return max((abs(x) for row in rows for x in row), default=0)

    def bounds_report(self) -> dict:
        n = self.n
        k_inf = max(abs(x) for x in self.k)
        ahat_inf = self.norm_inf(self.A_hat)
        ainv_inf = self.norm_inf(self.inverse)
        ainv_bound = (n - 1) ** ((n - 1) / 2) * k_inf ** (n - 1) if n > 1 else 1
        return {
            "det": self.det,
            "k_inf": k_inf,
            "A_inf": self.norm_inf(),
            "A_hat_inf": ahat_inf,
            "A_inv_inf": ainv_inf,
            "A_inv_bound": ainv_bound,
            "bounds_ok": (
                self.det == 1
                and ahat_inf <= k_inf
                and self.norm_inf() == k_inf
                and ainv_inf <= ainv_bound + 1e-12
            ),
        }

    def to_dict(self) -> dict:
        return {
            "A": [list(r) for r in self.rows],
            "A_inv": [list(r) for r in self.inverse],
            "bounds": self.bounds_report(),
        }


def _complete(k: tuple[int, ...]) -> list[list[int]]:
    """Rows of an integer matrix with first row k and determinant 1.

    Recursive extended-gcd reduction of k_hat = (k_1..k_{n-1}) against k_n;
    valid for k with gcd 1 and positive first nonzero component.
    """
    n = len(k)
    if n == 1:
        return [[1]]
    k_hat = k[:-1]
    k_n = k[-1]
    g = math.gcd(*k_hat) if len(k_hat) > 1 else abs(k_hat[0])
    if g == 0:
        # k = (0, ..., 0, 1); cyclic completion with a sign fix
        rows = [[0] * (n - 1) + [1]]
        for i in range(n - 1):
            e = [0] * n
            e[i] = 1
            rows.append(e)
        if (-1) ** (n - 1) == -1:
            rows[-1] = [-x for x in rows[-1]]
        return rows
    u = tuple(c // g for c in k_hat)
    inner = _complete(u)  # first row u, det 1, size (n-1)
    b_hat = inner[1:]
    if g == 1:
        c, z = 0, 1
    else:
        c = -pow(k_n, -1, g)  # c k_n = -1 mod g, so z g - c k_n = 1 below
        # reduce c into (-g/2, g/2] (exact integer rounding), then solve for z
        c += (g - 2 * c) // (2 * g) * g
        z = (1 + c * k_n) // g
    rows = [list(k)]
    for row in b_hat:
        rows.append(list(row) + [0])
    rows.append([c * v for v in u] + [z])
    return rows


def complete_to_sl(k) -> UnimodularMatrix:
    """Complete a generator k to A in SL(n, Z) with first row k.

    det A = 1 exactly and the three max-norm bounds hold:
    |A_hat|_inf <= |k|_inf, |A|_inf = |k|_inf,
    |A^{-1}|_inf <= (n-1)^{(n-1)/2} |k|_inf^{n-1}.
    """
    k = tuple(int(v) for v in k)
    if not is_generator(k):
        raise ConfigError("not a generator")
    um = UnimodularMatrix(tuple(tuple(r) for r in _complete(k)))
    if um.det != 1:
        raise AssertionError(f"completion produced det {um.det} for k={k}")
    return um


@dataclass(frozen=True)
class DecouplingMatrix(Record):
    """Rational U = I except row 1 = (1, -(A_hat k)^T / |k|^2).

    In the sheared variables Y = U^{-1} y_tilde the pulled-back kinetic form
    splits exactly: |A^T U Y|^2 = |k|^2 Y_1^2 + |P_k^perp A_hat^T Yhat|^2.
    Operator norms of U and U^{-1} are bounded by n^{3/2}.
    """

    um: UnimodularMatrix

    @cached_property
    def shear(self) -> tuple[Fraction, ...]:
        """The off-diagonal first-row entries -(A_hat k)_i / |k|^2."""
        k = self.um.k
        k_sq = sum(v * v for v in k)
        ahat_k = mat_vec([list(r) for r in self.um.A_hat], list(k))
        return tuple(Fraction(-a, k_sq) for a in ahat_k)

    @cached_property
    def U(self) -> list[list[Fraction]]:
        n = self.um.n
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(1)
        for j, v in enumerate(self.shear):
            rows[0][j + 1] = v
        return rows

    @cached_property
    def U_inv(self) -> list[list[Fraction]]:
        rows = [row[:] for row in self.U]
        for j, v in enumerate(self.shear):
            rows[0][j + 1] = -v
        return rows

    @cached_property
    def affine(self) -> list[list[Fraction]]:
        """A^T U (y = affine Y): column 0 is k and column j >= 1 is
        A_j + shear_j k = P_k^perp A_hat^T e_j, orthogonal to k."""
        k, rows = self.um.k, self.um.rows
        return [[Fraction(k[i])] + [rows[j + 1][i] + k[i] * s for j, s in enumerate(self.shear)]
                for i in range(self.um.n)]

    @cached_property
    def affine_inv(self) -> list[list[Fraction]]:
        """U^{-1} A^{-T}: row 0 is k/|k|^2, as affine's other columns are
        orthogonal to k, and row i >= 1 is that of A^{-T}."""
        k_sq = sum(v * v for v in self.um.k)
        return [[Fraction(v, k_sq) for v in self.um.k]] + [list(c) for c in zip(*self.um.inverse)][1:]

    def operator_norms(self) -> tuple[float, float]:
        """(|U|_2, |U^{-1}|_2), both (|w| + (|w|^2 + 4)^{1/2}) / 2 for U = I + e1 w^T."""
        w2 = float(sum(v * v for v in self.shear))  # |w|^2 of the shear w, exact
        norm = (math.sqrt(w2) + math.sqrt(w2 + 4.0)) / 2.0
        return norm, norm

    def to_dict(self) -> dict:
        return {
            "U_num": [[x.numerator for x in row] for row in self.U],
            "U_den": [[x.denominator for x in row] for row in self.U],
            "norm_bound": self.um.n ** 1.5,
            "operator_norms": list(self.operator_norms()),
        }


def decoupling_matrix(um: UnimodularMatrix) -> DecouplingMatrix:
    return DecouplingMatrix(um)


def symplectic_residual_exact(dm: DecouplingMatrix) -> int:
    """max |J^T Omega J - Omega| over entries, J = diag(U, U^{-T}), in exact
    rationals (expected to be exactly zero)."""
    n = dm.um.n
    u = dm.U
    uinv_t = mat_transpose(dm.U_inv)
    zero = [[Fraction(0)] * n for _ in range(n)]
    J = [row + z for row, z in zip(u, zero)] + [z + row for row, z in zip(uinv_t, zero)]
    omega = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        omega[i][n + i] = Fraction(1)
        omega[n + i][i] = Fraction(-1)
    jt = mat_transpose(J)
    res = mat_mul(mat_mul(jt, omega), J)
    worst = Fraction(0)
    for i in range(2 * n):
        for j in range(2 * n):
            worst = max(worst, abs(res[i][j] - omega[i][j]))
    return worst


def kinetic_split_residual(dm: DecouplingMatrix, Y) -> Fraction:
    """|A^T U Y|^2 - (|k|^2 Y_1^2 + |P_k^perp A_hat^T Yhat|^2), exact.

    P_k^perp v = v - (v.k/|k|^2) k stays rational for rational v.
    """
    um = dm.um
    Y = [Fraction(v) for v in Y]
    at = mat_transpose([list(r) for r in um.rows])
    u_y = mat_vec(dm.U, Y)
    w = mat_vec(at, u_y)
    lhs = sum(v * v for v in w)
    k = [Fraction(v) for v in um.k]
    k_sq = sum(v * v for v in k)
    ahat_t = mat_transpose([list(r) for r in um.A_hat])
    v = mat_vec(ahat_t, Y[1:])
    proj = sum(a * b for a, b in zip(v, k)) / k_sq
    perp = [a - proj * b for a, b in zip(v, k)]
    rhs = k_sq * Y[0] * Y[0] + sum(a * a for a in perp)
    return lhs - rhs
