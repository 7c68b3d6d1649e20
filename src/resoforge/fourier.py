"""Sparse Fourier algebra for zero-average real-analytic functions on T^n.

A function f(x) = sum_k f_k e^{i k.x} with f_0 = 0 and f_{-k} = conj(f_k) is
stored through its coefficients on the canonical half-lattice Z^n_* (integer
vectors whose first nonzero component is positive); the conjugate half is
implied.  Mode directions with coprime components ("generators") index the
1-D lattice projections pi_k f(theta) = sum_j f_{jk} e^{i j theta} used
throughout the package.  OneDTrigPoly and the Morse census sum one-angle
polynomials through one evaluator, trig_values, which takes each value as
its own sum in mode order, whatever stack of rows and angles it sits in.

Potentials with infinite support are handled through a coefficient rule
(currently the exponentially decaying lacunary family supported on the
generator set) materialized up to a recorded cutoff; the rule supplies exact
coefficients beyond the cutoff.

The package's two error classes live here too, each with the exit code the
CLI returns for it: ConfigError for an argument that is not admissible,
HypothesisError for a hypothesis of the construction that fails on
well-formed inputs.  Anything else a function raises is a bug.  Record, the
base of the dataclasses that the CLI prints, lives here as well.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np
import numpy.random  # numpy loads it lazily: at import here, not inside the first call

Mode = tuple[int, ...]

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """An argument is not admissible, such as a label k that is not a generator."""

    exit_code = 2


class HypothesisError(RuntimeError):
    """A hypothesis of the construction failed on well-formed inputs, such as a small divisor."""

    exit_code = 1


class Record:
    """A dataclass that the CLI prints as its fields, unless a subclass overrides to_dict."""

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    raise ConfigError("zero mode has no canonical form")


def seed_sequence(seed) -> np.random.SeedSequence:
    """np.random.SeedSequence(seed); a seed that it refuses, such as -1, is a ConfigError."""
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed must be a nonnegative integer or a sequence of them, got {seed!r}") from exc


def half_ball(n: int, K: float) -> np.ndarray:
    """All k in Z^n_* with |k|_1 <= K as rows of an int array, in lexicographic
    order.  The ball |k|_1 <= K is grown one coordinate at a time, each prefix
    of budget b = K - |prefix|_1 followed by c = -b..b, so the work grows with
    the output and not with the (2K+1)^n box; k -> -k reverses the order of
    the ball, so the rows after the zero vector are Z^n_*."""
    if n < 1:
        raise ConfigError("dimension must be >= 1")
    if not math.isfinite(K):
        raise ConfigError(f"cutoff K must be finite, got {K!r}")
    cols, budget = [], np.array([max(0, math.floor(K))])
    for _ in range(n):
        count = 2 * budget + 1
        at = np.repeat(np.arange(len(budget)), count)
        c = np.arange(len(at)) - np.repeat(np.cumsum(count) - budget - 1, count)
        cols, budget = [x[at] for x in cols] + [c], budget[at] - np.abs(c)
    return np.stack(cols, axis=1)[len(budget) // 2 + 1:]


def generators(n: int, K: float, min_order: int = 1) -> list[Mode]:
    """All generators k with min_order <= |k|_1 <= K, lexicographically.

    Generators are the k in Z^n_* with gcd(k_1, ..., k_n) = 1; each indexes a
    maximal 1-D sublattice Z k and hence a simple resonance y.k = 0.
    """
    if not K >= 1:
        raise ConfigError("cutoff K must be >= 1")
    ks = half_ball(n, K)
    ks = ks[(np.abs(ks).sum(axis=1) >= min_order) & (np.gcd.reduce(ks, axis=1) == 1)]
    return list(map(tuple, ks.tolist()))


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
                raise ConfigError(f"mode {k} has wrong dimension")
            if not is_canonical(k):
                raise ConfigError(f"mode {k} is not in the canonical half-lattice")
            if not cmath.isfinite(c := complex(c)):  # no bound orders a NaN
                raise ConfigError(f"mode {k} needs a finite re and im, got {c}")
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
        """Value of the stored (truncated) mode sum at real or complex x: a loop of its own,
        so that verify_conjugacy's ham.value shares no code with nf_value's series kernel."""
        x = np.asarray(x, dtype=complex)
        val = 0.0 + 0.0j
        for k, c in self.coeffs.items():
            phase = 1j * complex(np.dot(k, x))
            val += c * np.exp(phase) + np.conj(c) * np.exp(-phase)
        return complex(val)


def trig_values(C: np.ndarray, js: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2 Re sum_j C[..., j] e^{ijt}, t broadcast against the leading axes of C; every
    row at every angle is t[:, None], and rows that share their angles are
    (C[:, None], t[:, None]), which takes each e^{ijt} once for all of them.  One
    einsum and no BLAS, so each value is its own sum in mode order whatever the
    stack holds: the package's one evaluator of one-angle trig polynomials."""
    return 2.0 * np.einsum("...j,...j->...", C, np.exp(1j * np.multiply.outer(t, js))).real


def power_table(v, top: int) -> np.ndarray:
    """v^0 ... v^top on a new last axis, each the product of the one before and v (no pow):
    v^k is within gamma_{k-1} = (k-1)u / (1 - (k-1)u) of the exact power where normal (Higham, Lemma 3.1)."""
    factors = np.empty(np.shape(v) + (top + 1,))
    factors[..., 0], factors[..., 1:] = 1.0, np.asarray(v, dtype=float)[..., None]
    return np.multiply.accumulate(factors, axis=-1)


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
                raise ConfigError("store only j >= 1; the conjugate half is implied")
            if not cmath.isfinite(c := complex(c)):
                raise ConfigError(f"mode {j} needs a finite re and im, got {c}")
            if c != 0:
                clean[j] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def from_cosine(cls, amplitude: float, shift: float = 0.0) -> "OneDTrigPoly":
        """amplitude * cos(theta + shift)."""
        return cls({1: 0.5 * amplitude * np.exp(1j * shift)})

    def evaluate(self, theta) -> np.ndarray:
        """Real values at real angles theta of any shape."""
        js = np.fromiter(self.coeffs, dtype=float, count=len(self.coeffs))
        C = np.fromiter(self.coeffs.values(), dtype=complex, count=len(js))
        return trig_values(C, js, np.asarray(theta, dtype=float))[()]

    def values_on_grid(self, m: int) -> np.ndarray:
        """Real values on the grid theta_t = 2 pi t / m, t = 0..m-1."""
        return self.evaluate(np.arange(m) * (TWO_PI / m))

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
        raise ConfigError("not a generator")
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
    coefficient queries beyond the cutoff stay exact.
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
    with open(source) as fh:
        doc = json.load(fh)
    try:
        n = int(doc["n"])
        s = float(doc["s"])
    except KeyError as exc:
        raise ConfigError(f"potential file missing field {exc}") from exc
    if not math.isfinite(s):
        raise ConfigError(f"potential file field s must be finite, got {s}")
    if "rule" in doc:
        if doc["rule"] != "exp-lacunary":
            raise ConfigError(f"unknown rule preset {doc['rule']!r}")
        params = doc.get("params", {})
        rule = {key: float(params.get(key, default)) for key, default in (("s", s), ("k_max", 40), ("amplitude", 1.0))}
        if not all(map(math.isfinite, rule.values())):
            raise ConfigError(f"rule params s, k_max and amplitude must be finite, got {rule}")
        return lacunary_potential(n, rule["s"], k_max=rule["k_max"], amplitude=rule["amplitude"]), s
    coeffs = {}
    for entry in doc.get("modes", []):
        k = entry.get("k")
        if not (isinstance(k, list) and len(k) == n and all(type(v) is int for v in k)):
            raise ConfigError(f'each mode needs "k", a list of {n} integers, got {k!r}')
        k = tuple(k)
        if not is_canonical(k):
            raise ConfigError(f"mode {k} is not in the canonical half-lattice")
        coeffs[k] = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
    return TrigPoly(n, coeffs), s
