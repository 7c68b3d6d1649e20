"""The loop references and inputs that several test modules and
tests/golden/regen.py share, so that no test module imports another.  A
reference is a scalar loop or direct sum that array code of the library
replaced; `averaging_cases`, `close_pairs` and
`three_mode_standard_form` also feed the golden digests."""

import math

import numpy as np

from resoforge.cover import free_params
from resoforge.fourier import ConfigError, OneDTrigPoly, TrigPoly, is_generator, l1
from resoforge.lieseries import _fold, _slots, lie_step_nonres, lie_step_res
from resoforge.standard_form import standardize

TWO_PI = 2 * math.pi


def on_ray(kp, k):
    """The signed j != 0 with kp == j*k (on_ray(-k, k) == -1); None if kp is 0 or
    off Z k: a scalar oracle, one component at a time, for the library's
    mode-array test `lieseries._on_line` and for `ray_terms`."""
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


def reference_project_lattice(f, k):
    """pi_k f by the per-mode scan: on_ray of every stored mode against k."""
    k = tuple(int(v) for v in k)
    if not is_generator(k):
        raise ConfigError("not a generator")
    coeffs = {}
    for kp, c in f.coeffs.items():
        j = on_ray(kp, k)
        if j is not None:
            coeffs[j] = c
    if f.rule is not None:
        fresh = max((l1(kp) for kp in f.coeffs), default=0)
        cutoff = f.rule_cutoff if f.rule_cutoff is not None else fresh
        jm = max(2, int(cutoff // max(l1(k), 1)) + 2)
        for j in range(1, jm + 1):
            c = f.rule.coeff(tuple(j * v for v in k))
            if c != 0:
                coeffs[j] = c
    return OneDTrigPoly(coeffs)


def reference_values_on_grid(F, m, order=0):
    """Direct-sum evaluator: the (degree x m) phase matrix, no FFT, no folding."""
    theta = np.arange(m) * (2 * math.pi / m)
    if not F.coeffs:
        return np.zeros(m)
    js = np.array(sorted(F.coeffs), dtype=float)
    cs = np.array([F.coeffs[int(j)] for j in js]) * (1j * js) ** order
    return 2.0 * np.real(cs @ np.exp(1j * np.outer(js, theta)))


def derivative(F, order):
    """F^(order): the coefficients c_j (ij)^order."""
    return OneDTrigPoly({j: (1j * j) ** order * c for j, c in F.coeffs.items()})


def per_order_values_on_grid(F, m, order=0):
    """The single-order grid as one backward-normalized irfft scaled by m: an
    FFT oracle for the reference census of tests/test_morse.py."""
    js = np.fromiter(F.coeffs, dtype=np.int64, count=len(F.coeffs))
    cs = np.fromiter(F.coeffs.values(), dtype=complex, count=len(js))
    cs = cs * (1j * js) ** order
    r = js % m
    low = r < m - r
    vals = np.where(low, cs, np.conj(cs))
    vals = np.where((r == 0) | (2 * r == m), 2.0 * cs.real, vals)
    X = np.zeros(m // 2 + 1, dtype=complex)
    np.add.at(X, np.where(low, r, m - r), vals)
    return m * np.fft.irfft(X, n=m)


def product_power(v, e):
    """v^e entrywise, v and the integer array e broadcast, by an explicit loop
    of products from 1.0 (v^k = v^(k-1) v): the power rule of the evaluators."""
    out, power = np.ones(np.broadcast(v, e).shape), np.ones(np.shape(v))
    for k in range(int(np.max(e, initial=0)) + 1):
        out = np.where(e == k, power, out)
        power = power * v
    return out


def from_rows(F, rows, ledger=None):
    """The series of F's algebra holding the terms (k, m, c), merged by the
    library's slot fold (equal keys summed from 0.0 in row order, exact zeros
    dropped); the nonzero ones beyond the truncation go to the ledger one by one."""
    K = np.array([k for k, _, _ in rows], dtype=np.int64).reshape(len(rows), F.n)
    M = np.array([m for _, m, _ in rows], dtype=np.int64).reshape(len(rows), F.n)
    C = np.array([c for _, _, c in rows], dtype=complex)
    fits = (np.abs(K).sum(axis=1) <= F.cutoff) & (M.sum(axis=1) <= F.max_degree)
    if ledger is not None:
        for c in C[~fits & (C != 0)].tolist():
            ledger.drop(abs(c))
    table = _slots(F.n, F.cutoff, F.max_degree)
    return F._with(*_fold(table, [(table.of(K[fits], M[fits]), C[fits])]))


def add_term(F, k, m, c, ledger=None):
    """Add c (y - y0)^m e^{i k.x} to F in place through the series' own merge:
    a zero c is skipped and a term beyond the truncation goes to the ledger."""
    S = F._merged(F, from_rows(F, [(k, m, c)], ledger))
    F._store(S.K, S.M, S.C)


# one mode from each l1 shell 1, 2, 3 with amplitudes 0.15-0.5 and random
# phases: the averaging benchmark's draw of three-mode potentials
SHELLS = (((1, 0), (0, 1)), ((1, 1), (1, -1)), ((1, 2), (2, 1), (1, -2), (2, -1)))


def averaging_potential(rng, must_have=None):
    modes = [must_have if must_have in shell else shell[int(rng.integers(len(shell)))]
             for shell in SHELLS]
    return TrigPoly(2, {k: 0.5 * rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, TWO_PI))
                        for k in modes})


def averaging_cases(seed, k):
    """(None or k, f, params, y0) of the averaging benchmark's draws, as the
    golden corpus takes them: nonresonant at K = 8, resonant along k at K = 6."""
    rng = np.random.default_rng([2, seed, 0])
    u = np.array([-k[1], k[0]], dtype=float)
    return [(None, averaging_potential(rng), free_params(2, 1.0, alpha=0.02, K0=2, K=8),
             np.array([0.7, 0.31])),
            (k, averaging_potential(rng, must_have=k),
             free_params(2, 1.0, alpha=0.03, K0=2, K=6), 0.7 * u / np.linalg.norm(u))]


def lie_step(ham, k, params, y0, **kwargs):
    """lie_step_nonres where k is None, else lie_step_res along k."""
    if k is None:
        return lie_step_nonres(ham, params, y0, **kwargs)
    return lie_step_res(ham, k, params, y0, **kwargs)


def close_pair_family(sep, amplitude=1.3, shift=0.4):
    """F = A(cos u - (a/4) cos 2u) shifted, a = 1/cos(sep/2): F' = -A sin u
    (1 - a cos u) has exactly four zeros, two of them at +-acos(1/a), which
    sit sep apart around the one at u = 0."""
    a = 1.0 / math.cos(sep / 2.0)
    return OneDTrigPoly({1: 0.5 * amplitude, 2: -amplitude * a / 8.0}).shifted(shift)


def close_pairs(count, seed):
    """count close pairs drawn as the certify benchmark's census jobs draw them."""
    rng, out = np.random.default_rng(seed), []
    for _ in range(count):
        sep = 10.0 ** rng.uniform(-6.0, 0.0)
        amplitude = float(rng.uniform(0.5, 2.0))
        out.append(close_pair_family(sep, amplitude=amplitude, shift=float(rng.uniform(0.0, 2 * np.pi))))
    return out


def three_mode_standard_form(phase=0.0):
    # the (1, 2) line with a third mode on it, at order 3: both the averaged
    # and the oscillatory decoupled potentials depend on Y1, so p varies
    # with q1 and phat and neither Phi2 nor Phi3 is the identity
    a = math.exp(-2.0)
    k = (1, 2)
    f = TrigPoly(2, {(1, 1): complex(a), (1, -1): complex(a), k: 0.7 * a * np.exp(1j * phase)})
    u = np.array([-2.0, 1.0]) / math.sqrt(5.0)
    return standardize(f, 1.0, 1e-4, k, free_params(2, 1.0, alpha=0.03, K0=2, K=6),
                       0.6 * u, beta=0.05, order=3)
