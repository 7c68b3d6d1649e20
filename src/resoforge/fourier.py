"""Sparse Fourier algebra for zero-average real-analytic functions on T^n.

A function f(x) = sum_k f_k e^{i k.x} with f_0 = 0 and f_{-k} = conj(f_k) is
stored through its coefficients on the canonical half-lattice Z^n_* (integer
vectors whose first nonzero component is positive); the conjugate half is
implied.  Mode directions with coprime components ("generators") index the
1-D lattice projections pi_k f(theta) = sum_j f_{jk} e^{i j theta} used
throughout the package.

Potentials with infinite support are handled through a coefficient rule
(currently the exponentially decaying lacunary family supported on the
generator set) materialized up to a recorded cutoff; the rule supplies exact
coefficients beyond the cutoff and a majorant of the tail of each lattice ray.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

Mode = tuple[int, ...]

TWO_PI = 2.0 * math.pi


class NotAGeneratorError(ValueError):
    """Mode vector is not a generator (coprime, first nonzero positive)."""


def l1(k: Iterable[int]) -> int:
    return int(sum(abs(int(c)) for c in k))


def is_canonical(k: Iterable[int]) -> bool:
    """Membership in Z^n_*: k != 0 and the first nonzero component positive."""
    for c in k:
        if c != 0:
            return c > 0
    return False


def is_generator(k: Iterable[int]) -> bool:
    """Membership in the generator set: canonical and gcd of components 1."""
    k = tuple(int(c) for c in k)
    return is_canonical(k) and math.gcd(*k) == 1


def canonical_form(k: Iterable[int]) -> tuple[Mode, bool]:
    """Return (canonical representative, flipped) with flipped = (rep == -k)."""
    k = tuple(int(c) for c in k)
    if is_canonical(k):
        return k, False
    neg = tuple(-c for c in k)
    if is_canonical(neg):
        return neg, True
    raise ValueError("zero mode has no canonical form")


def iter_half_ball(n: int, K: float) -> Iterator[Mode]:
    """Yield all k in Z^n_* with |k|_1 <= K in lexicographic order."""
    kmax = int(math.floor(K))

    def rec(prefix: list[int], budget: int, started: bool) -> Iterator[Mode]:
        i = len(prefix)
        if i == n:
            if started:
                yield tuple(prefix)
            return
        lo = 0 if not started else -budget
        for c in range(lo, budget + 1):
            prefix.append(c)
            yield from rec(prefix, budget - abs(c), started or c != 0)
            prefix.pop()

    yield from rec([], kmax, False)


def generators(n: int, K: float, min_order: int = 1) -> list[Mode]:
    """All generators k with min_order <= |k|_1 <= K, lexicographically.

    Generators are the k in Z^n_* with gcd(k_1, ..., k_n) = 1; each indexes a
    maximal 1-D sublattice Z k and hence a simple resonance y.k = 0.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if K < 1:
        raise ValueError("cutoff K must be >= 1")
    out = []
    for k in iter_half_ball(n, K):
        if l1(k) < min_order:
            continue
        if n == 1:
            if k == (1,):
                out.append(k)
        elif math.gcd(*k) == 1:
            out.append(k)
    return out


def on_ray(kp: Mode, k: Mode) -> int | None:
    """The signed j != 0 with kp == j*k (on_ray(-k, k) == -1); None if kp is 0 or off Z k."""
    j = None
    for a, b in zip(kp, k):
        if b == 0:
            if a != 0:
                return None
        else:
            q, r = divmod(a, b)
            if r != 0:
                return None
            if j is None:
                j = q
            elif q != j:
                return None
    return int(j) if j else None


# --------------------------------------------------------------------------
# coefficient rules (infinite-support models)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LacunaryRule:
    """Coefficient rule f_k = amplitude * e^{-s |k|_1} on generators only.

    The modes jk with |j| >= 2 all vanish (gcd(jk) = |j| > 1), so every
    projection pi_k f is an exact shifted cosine and all tail bounds along a
    ray are zero.  The full potential is f = 2*amplitude * sum_{k in G^n}
    e^{-s|k|_1} cos(k.x) with weighted sup norm equal to amplitude at width s.
    """

    n: int
    s: float
    amplitude: float = 1.0

    def coeff(self, k: Mode) -> complex:
        if is_generator(k):
            return complex(self.amplitude * math.exp(-self.s * l1(k)))
        return 0.0

    def line_tail_majorant(self, k: Mode, j_from: int, width: float) -> float:
        """Bound on sum_{|j| >= j_from} |f_{jk}| e^{|j| width}; zero here."""
        return 0.0

    def provable_lower_bound(self, delta: float) -> bool:
        """|f_k| >= delta |k|_1^{-n} e^{-s|k|_1} holds for all generators."""
        return delta <= self.amplitude


# --------------------------------------------------------------------------
# multivariate series
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigPoly:
    """Zero-average real-analytic function on T^n as a sparse mode map.

    coeffs maps canonical modes k in Z^n_* to f_k (conj(f_k) at -k) and is not
    mutated after construction.  An optional rule supplies exact coefficients
    beyond the materialized support; rule_cutoff records up to which |k|_1 the
    rule was materialized into coeffs.
    """

    n: int
    coeffs: dict[Mode, complex]
    rule: LacunaryRule | None = None
    rule_cutoff: float | None = None

    def __post_init__(self):
        clean = {}
        for k, c in self.coeffs.items():
            k = tuple(int(v) for v in k)
            if len(k) != self.n:
                raise ValueError(f"mode {k} has wrong dimension")
            if not is_canonical(k):
                raise ValueError(f"mode {k} is not in the canonical half-lattice")
            c = complex(c)
            if c != 0:
                clean[k] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def from_cosines(cls, n: int, amplitudes: Mapping[Mode, float]) -> "TrigPoly":
        """f = sum_k a_k cos(k.x) for canonical k (coefficients a_k / 2)."""
        return cls(n, {tuple(k): a / 2.0 for k, a in amplitudes.items()})

    def coeff(self, k: Iterable[int]) -> complex:
        k = tuple(int(v) for v in k)
        if all(v == 0 for v in k):
            return 0.0
        rep, flipped = canonical_form(k)
        if rep in self.coeffs:
            c = self.coeffs[rep]
        elif self.rule is not None:
            c = self.rule.coeff(rep)
        else:
            c = 0.0
        return complex(np.conj(c)) if flipped else complex(c)

    def max_order(self) -> int:
        """Largest |k|_1 over coeffs, computed once per potential."""
        return self._max_order

    @cached_property
    def _max_order(self) -> int:
        return max((l1(k) for k in self.coeffs), default=0)

    def evaluate(self, x) -> complex:
        """Value of the stored (truncated) mode sum at real or complex x."""
        x = np.asarray(x, dtype=complex)
        val = 0.0 + 0.0j
        for k, c in self.coeffs.items():
            phase = 1j * complex(np.dot(k, x))
            val += c * np.exp(phase) + np.conj(c) * np.exp(-phase)
        return complex(val)


@dataclass(frozen=True)
class OneDTrigPoly:
    """Zero-average real-analytic function of one angle, c_{-j} = conj(c_j).

    Coefficients are stored for j >= 1.
    """

    coeffs: dict[int, complex]

    def __post_init__(self):
        clean = {}
        for j, c in self.coeffs.items():
            j = int(j)
            if j < 1:
                raise ValueError("store only j >= 1; the conjugate half is implied")
            c = complex(c)
            if c != 0:
                clean[j] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def from_cosine(cls, amplitude: float, shift: float = 0.0) -> "OneDTrigPoly":
        """amplitude * cos(theta + shift)."""
        return cls({1: 0.5 * amplitude * np.exp(1j * shift)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, theta) -> complex:
        theta = complex(theta)
        val = 0.0 + 0.0j
        for j, c in self.coeffs.items():
            val += c * np.exp(1j * j * theta) + np.conj(c) * np.exp(-1j * j * theta)
        return complex(val)

    def values_on_grid(self, m: int, order: int = 0) -> np.ndarray:
        """Real values of the order-th derivative on the grid theta_t = 2 pi t / m.

        One unnormalized inverse real FFT of the half spectrum X (length
        m//2 + 1) built from c_j (ij)^order.  On the grid e^{ij theta_t}
        depends only on r = j mod m, so every mode folds into X by aliasing:
        c goes to X[r] when 0 < r < m/2, conj(c) to X[m - r] when r > m/2, and
        2 Re c to the real bins r = 0 and r = m/2.  The rounding error is of
        order eps * log2(m) * sum_j j^order |c_j|.
        """
        js = np.fromiter(self.coeffs, dtype=np.int64, count=len(self.coeffs))
        cs = np.fromiter(self.coeffs.values(), dtype=complex, count=len(js)) * (1j * js) ** order
        r = js % m
        low = r < m - r
        vals = np.where((r == 0) | (2 * r == m), 2.0 * cs.real, np.where(low, cs, np.conj(cs)))
        X = np.zeros(m // 2 + 1, dtype=complex)
        np.add.at(X, np.where(low, r, m - r), vals)
        return np.fft.irfft(X, n=m, norm="forward")

    def shifted(self, shift: float) -> "OneDTrigPoly":
        """theta -> value at theta + shift."""
        return OneDTrigPoly({j: c * np.exp(1j * j * shift) for j, c in self.coeffs.items()})

    def scaled(self, factor: complex) -> "OneDTrigPoly":
        return OneDTrigPoly({j: factor * c for j, c in self.coeffs.items()})

    def plus(self, other: "OneDTrigPoly") -> "OneDTrigPoly":
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, 0.0) + c
        return OneDTrigPoly(out)


# --------------------------------------------------------------------------
# lattice projections
# --------------------------------------------------------------------------

def project_lattice(f: TrigPoly, k: Mode) -> OneDTrigPoly:
    """Fourier projection pi_k f(theta) = sum_j f_{jk} e^{i j theta}, k a generator:
    lattice_projections(f, [k])[0]."""
    return lattice_projections(f, [k])[0]


def lattice_projections(f: TrigPoly, gens: Iterable[Mode]) -> list[OneDTrigPoly]:
    """pi_k f for every generator k of gens (all checked first), from one pass.

    The rays partition the support: kp lies on the ray of kp/gcd(kp) at
    j = gcd(kp).  One pass over f.coeffs fills this call's ray table in coeffs
    order; a rule then adds f_{jk} up to its cutoff.
    """
    gens = [tuple(int(v) for v in k) for k in gens]
    if not all(is_generator(k) for k in gens):
        raise NotAGeneratorError("not a generator")
    rays: dict[Mode, dict[int, complex]] = {k: {} for k in gens}
    for kp, c in f.coeffs.items():
        j = math.gcd(*kp)
        if (kbar := kp if j == 1 else tuple(v // j for v in kp)) in rays:
            rays[kbar][j] = c
    out = []
    for k in gens:
        coeffs = rays[k]
        if f.rule is not None:
            cutoff = f.rule_cutoff if f.rule_cutoff is not None else f.max_order()
            jm = max(2, int(cutoff // max(l1(k), 1)) + 2)
            for j in range(1, jm + 1):
                c = f.rule.coeff(tuple(j * v for v in k))
                if c != 0:
                    coeffs[j] = c
        out.append(OneDTrigPoly(coeffs))
    return out


# --------------------------------------------------------------------------
# presets and JSON interchange
# --------------------------------------------------------------------------

def lacunary_potential(n: int, s: float, k_max: float = 40, amplitude: float = 1.0) -> TrigPoly:
    """The exponentially lacunary model 2*amp*sum_{k in G^n} e^{-s|k|_1} cos k.x.

    Materialized up to |k|_1 <= k_max with the exact rule attached, so
    coefficient queries and norm tails beyond the cutoff stay exact.
    """
    rule = LacunaryRule(n=n, s=s, amplitude=amplitude)
    coeffs = {k: rule.coeff(k) for k in generators(n, k_max)}
    return TrigPoly(n, coeffs, rule=rule, rule_cutoff=float(k_max))


def two_mode_potential(s: float) -> TrigPoly:
    """Two-cosine benchmark 2e^{-2s}(cos((1,1).x) + cos((1,-1).x)) (n = 2)."""
    a = math.exp(-2.0 * s)
    return TrigPoly.from_cosines(2, {(1, 1): 2 * a, (1, -1): 2 * a})


def save_potential(f: TrigPoly, s: float, path) -> None:
    doc: dict = {"n": f.n, "s": s}
    if f.rule is not None:
        doc["rule"] = "exp-lacunary"
        doc["params"] = {
            "s": f.rule.s,
            "amplitude": f.rule.amplitude,
            "k_max": f.rule_cutoff,
        }
    else:
        doc["modes"] = [
            {"k": list(k), "re": float(c.real), "im": float(c.imag)}
            for k, c in sorted(f.coeffs.items())
        ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_potential(source) -> tuple[TrigPoly, float]:
    """Load a potential file; returns (TrigPoly, s).

    Schema: {"n": int, "s": float, "modes": [{"k": [...], "re": , "im": }]}
    with modes restricted to Z^n_*, or the rule variant
    {"n":, "s":, "rule": "exp-lacunary", "params": {...}}.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = dict(source)
    try:
        n = int(doc["n"])
        s = float(doc["s"])
    except KeyError as exc:
        raise ValueError(f"potential file missing field {exc}") from exc
    if "rule" in doc:
        if doc["rule"] != "exp-lacunary":
            raise ValueError(f"unknown rule preset {doc['rule']!r}")
        params = doc.get("params", {})
        return (
            lacunary_potential(
                n,
                float(params.get("s", s)),
                k_max=float(params.get("k_max", 40)),
                amplitude=float(params.get("amplitude", 1.0)),
            ),
            s,
        )
    coeffs = {}
    for entry in doc.get("modes", []):
        k = tuple(int(v) for v in entry["k"])
        if not is_canonical(k):
            raise ValueError(f"mode {k} is not in the canonical half-lattice")
        coeffs[k] = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
    return TrigPoly(n, coeffs), s
