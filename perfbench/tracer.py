"""Outside-in span tracing of resoforge's layer entry points.

`Tracer.install()` rebinds every traced function in each resoforge module
namespace that holds it (``genericity`` imports ``critical_points`` and
``project_lattice`` by name, ``cli`` imports most entry points, the package
re-exports them), and replaces traced methods on their class.  Each call
records one span: name, parent span, start and end.  Spans stay in memory in
flat arrays; `uninstall()` restores the originals and `dump()` writes the
spans out.  Per-layer calls and self time (span time minus the time of
child spans) are computed from the arrays.

Hot helpers such as ``fourier.on_ray`` (about 0.9 M calls per membership
check) and ``TaylorFourierSeries.add_term`` are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np


def _nf_terms(nf) -> int:
    parts = list(nf.g_o) + list(nf.f_rem) + list(nf.g_res or [])
    return sum(len(p.terms) for p in parts)


def _membership_generators(tracer, args, kwargs, out):
    tracer.count("genericity.generators_checked", out.n_checked_lower + out.n_checked_morse)


def _lie_terms(tracer, args, kwargs, out):
    tracer.count("lieseries.terms_out", _nf_terms(out))


def _fp_iterations(tracer, args, kwargs, out):
    tracer.count("standard_form.fixed_point_iterations", out.iterations)


def _batch_points(tracer, args, kwargs, out):
    tracer.count("cover.classify_batch.points", len(args[0]))


def _batch_tag(args, kwargs):
    Y, params = args[0], args[1]
    return f"n={params.n},K={params.K},points={len(Y)}"


def _order_tag(args, kwargs):
    return f"order={kwargs.get('order', 1)}"


def _verify_standard_tag(args, kwargs):
    return f"phat={len(args[1])}"


def _standardize_tag(args, kwargs):
    return f"modes={len(args[0].coeffs)}"


# (metric prefix, module, attribute, after-call counter hook, span tag)
# An attribute "Class.method" is replaced on the class; a plain function is
# rebound in every resoforge module that holds the same object.
TARGETS = [
    ("fourier.values_on_grid", "resoforge.fourier", "OneDTrigPoly.values_on_grid", None, None),
    ("fourier.project_lattice", "resoforge.fourier", "project_lattice", None, None),
    ("fourier.evaluate", "resoforge.fourier", "OneDTrigPoly.evaluate", None, None),
    ("fourier.evaluate", "resoforge.fourier", "TrigPoly.evaluate", None, None),
    ("morse.critical_points", "resoforge.morse", "critical_points", None, None),
    ("morse.cosine_certificate", "resoforge.morse", "cosine_certificate", None, None),
    ("genericity.check_membership", "resoforge.genericity", "check_membership",
     _membership_generators, None),
    ("genericity.empirical_genericity", "resoforge.genericity", "empirical_genericity",
     None, None),
    ("cover.classify_batch", "resoforge.cover", "classify_batch", _batch_points, _batch_tag),
    ("cover.classify_point", "resoforge.cover", "classify_point", None, None),
    ("cover.measure_R2", "resoforge.cover", "measure_R2", None, None),
    ("lieseries.poisson", "resoforge.lieseries", "TaylorFourierSeries.poisson", None, None),
    ("lieseries.lie_step_nonres", "resoforge.lieseries", "lie_step_nonres",
     _lie_terms, _order_tag),
    ("lieseries.lie_step_res", "resoforge.lieseries", "lie_step_res", _lie_terms, _order_tag),
    ("lieseries.eval_grads", "resoforge.lieseries", "TaylorFourierSeries.eval_grads",
     None, None),
    ("lieseries.verify_conjugacy", "resoforge.lieseries", "verify_conjugacy", None, None),
    ("standard_form.phi2_jacobian", "resoforge.standard_form", "Phi2Map.jacobian", None, None),
    ("standard_form.symplectic_check", "resoforge.standard_form", "symplectic_check",
     None, None),
    ("standard_form.solve_fixed_point", "resoforge.standard_form", "solve_fixed_point",
     _fp_iterations, None),
    ("standard_form.standardize", "resoforge.standard_form", "standardize",
     None, _standardize_tag),
    ("standard_form.verify_standard", "resoforge.standard_form", "verify_standard",
     None, _verify_standard_tag),
    ("unimodular.complete_to_sl", "resoforge.unimodular", "complete_to_sl", None, None),
    ("unimodular.decoupling_matrix", "resoforge.unimodular", "decoupling_matrix", None, None),
]

SPAN_NAMES = list(dict.fromkeys(t[0] for t in TARGETS))

# per-layer metric prefix -> (end-to-end metrics it should move, on which
# workload, workloads on which it should stay flat); written down before
# any change is measured against it
LAYER_EFFECTS = {
    "fourier.values_on_grid": ("wall_s, job_p50_ms", "certify", "averaging, cover"),
    "fourier.project_lattice": ("wall_s, job_p50_ms", "certify", "averaging, cover"),
    "fourier.evaluate": ("wall_s, job_p50_ms", "certify", "averaging, cover"),
    "morse.critical_points": ("job_tail_ms, error_rate", "certify",
                              "reduction (one census per verify_standard)"),
    "morse.cosine_certificate": ("job_tail_ms, error_rate", "certify", "reduction"),
    "morse.census_exact_ratio": ("job_tail_ms, error_rate", "certify", "reduction"),
    "genericity.check_membership": ("wall_s", "certify", "-"),
    "genericity.empirical_genericity": ("wall_s", "certify", "-"),
    "genericity.generators_checked": ("wall_s", "certify", "-"),
    "cover.classify_batch": ("wall_s, job_p50_ms, job_tail_ms", "cover", "all others"),
    "cover.classify_point": ("wall_s, job_p50_ms, job_tail_ms", "cover", "all others"),
    "cover.measure_R2": ("wall_s, job_p50_ms, job_tail_ms", "cover", "all others"),
    "lieseries.poisson": ("job_tail_ms, wall_s", "averaging", "reduction"),
    "lieseries.lie_step_nonres": ("job_tail_ms, wall_s", "averaging", "reduction"),
    "lieseries.lie_step_res": ("job_tail_ms, wall_s", "averaging", "reduction"),
    "lieseries.terms_out": ("job_tail_ms, wall_s", "averaging", "reduction"),
    "lieseries.eval_grads": ("job_p50_ms", "averaging", "-"),
    "lieseries.verify_conjugacy": ("job_p50_ms", "averaging", "-"),
    "standard_form.phi2_jacobian": ("job_tail_ms, wall_s", "reduction", "-"),
    "standard_form.symplectic_check": ("job_tail_ms, wall_s", "reduction", "-"),
    "standard_form.solve_fixed_point": ("job_p50_ms, peak_rss_mb", "reduction", "averaging"),
    "standard_form.fixed_point_iterations": ("job_p50_ms, peak_rss_mb", "reduction",
                                             "averaging"),
    "standard_form.standardize": ("job_p50_ms, peak_rss_mb", "reduction", "averaging"),
    "standard_form.verify_standard": ("job_p50_ms, peak_rss_mb", "reduction", "averaging"),
    "unimodular.complete_to_sl": ("wall_s (small share)", "reduction", "-"),
    "unimodular.decoupling_matrix": ("wall_s (small share)", "reduction", "-"),
}
COUNTERS = [
    "genericity.generators_checked",
    "lieseries.terms_out",
    "standard_form.fixed_point_iterations",
    "cover.classify_batch.points",
]


class Tracer:
    """Records spans of the TARGETS while installed and `recording` is set."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.tags: dict[int, str] = {}
        self.counters = {name: 0 for name in COUNTERS}
        self.recording = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount) -> None:
        self.counters[name] += amount

    # -- installation ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook, tagger):
        name_id = self.name_ids[name]
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            if tagger is not None:
                self.tags[idx] = tagger(args, kwargs)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "resoforge" or key.startswith("resoforge."))]
        for name, module_name, attr, hook, tagger in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hook, tagger))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hook, tagger)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def arrays(self):
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=float) - np.frombuffer(self.starts, dtype=float)
        return names, parents, dur

    def per_layer(self) -> tuple[dict, float]:
        """Calls and self time per traced name, plus the top-level span time."""
        names, parents, dur = self.arrays()
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for name, i in self.name_ids.items():
            sel = names == i
            out[name] = {"calls": int(np.count_nonzero(sel)),
                         "self_s": float(self_time[sel].sum())}
        return out, float(dur[~has_parent].sum())

    def durations(self, name: str, tag: str | None = None) -> np.ndarray:
        """Durations of the spans of `name`, only those tagged `tag` if given."""
        names, _parents, dur = self.arrays()
        idx = [i for i in np.nonzero(names == self.name_ids[name])[0]
               if tag is None or self.tags.get(int(i)) == tag]
        return dur[np.array(idx, dtype=int)]

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, name, parent, start, end, tag."""
        with open(path, "w") as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps({
                    "id": i, "name": SPAN_NAMES[self.names[i]], "parent": self.parents[i],
                    "start": self.starts[i], "end": self.ends[i], "tag": self.tags.get(i),
                }) + "\n")
