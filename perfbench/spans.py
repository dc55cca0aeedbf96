"""Spans around calls into latdft's public functions, recorded from outside the package.

The tracer replaces each traced function with a wrapper, both where it is
defined and under every name another latdft module imported it as (for
example ``latdft.sampler.nearest_plane``), so calls made inside the package
are seen too.  ``uninstall`` puts the originals back.  Each span records
name, start, end, parent span and operation id; spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import defaultdict

from latdft import intlat

# Span name -> (module, attribute path).  Names are "<layer>.<function>".
TRACED = {
    "intlat.hnf": ("latdft.intlat", "hnf"),
    "intlat.lll_reduce": ("latdft.intlat", "lll_reduce"),
    "intlat.nearest_plane": ("latdft.intlat", "nearest_plane"),
    "intlat.cvp_exact": ("latdft.intlat", "cvp_exact"),
    "intlat.lambda1_sq": ("latdft.intlat", "lambda1_sq"),
    "intlat.membership": ("latdft.intlat", "membership"),
    "sysnf.reduce_to_sysnf": ("latdft.sysnf", "reduce_to_sysnf"),
    "sysnf.apply_sigma_inverse": ("latdft.sysnf", "ReductionCertificate.apply_sigma_inverse"),
    "dft.dft_matrix": ("latdft.dft", "dft_matrix"),
    "qcirc.simulate_sysnf_qft": ("latdft.qcirc", "simulate_sysnf_qft"),
    "qcirc.lattice_qft_values": ("latdft.qcirc", "lattice_qft_values"),
    "sampler.sample": ("latdft.sampler", "sample"),
}


def _reduce_note(args, kwargs, cert):
    eps = args[1] if len(args) > 1 else kwargs["epsilon"]
    return args[0], eps, cert.T


# Counts taken from a call's arguments and result, kept on its span.
NOTES = {
    "sysnf.reduce_to_sysnf": _reduce_note,
    "qcirc.lattice_qft_values": lambda args, kwargs, out: len(out),
    "dft.dft_matrix": lambda args, kwargs, cm: 16 * cm.order**2,
    "sampler.sample": lambda args, kwargs, res: (
        res.grid_points,
        len(res.distribution.points),
        res.certificate.basis.N,
    ),
}

START, END, PARENT, OP, NOTE = 1, 2, 3, 4, 5

_UNITS = {"self_s": "s", "overhead_s": "s", "useful_ratio": "1", "reduced_modulus": "1", "bytes": "B"}


def unit(metric: str) -> str:
    return _UNITS.get(metric.rsplit(".", 1)[1], "count")


def _t_doublings(note) -> int:
    """Doublings of T from the documented starting scale ceil(n |det| / eps)."""
    b, eps, t = note
    t0 = max(1, math.ceil(b.ncols * abs(intlat.determinant(b)) / eps))
    return max(0, (t // t0).bit_length() - 1)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches = []
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "latdft"]
        for name, (module, path) in TRACED.items():
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, NOTES.get(name))
            if outer:  # a method: its class attribute is the only name
                sites = [(owner, attr)]
            else:  # a function: every name a latdft module bound it to
                sites = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
            self._patches += [(o, a, original, wrapper) for o, a in sites]

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def summarize(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded from index ``first`` on."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for sp in spans:
            if sp[PARENT] >= 0:
                child[sp[PARENT]] += sp[END] - sp[START]
        calls = dict.fromkeys(TRACED, 0)
        self_s = dict.fromkeys(TRACED, 0.0)
        notes = defaultdict(list)
        for idx, sp in enumerate(spans, start=first):
            name = sp[0]
            calls[name] += 1
            self_s[name] += sp[END] - sp[START] - child[idx]
            if sp[NOTE] is not None:
                notes[name].append(sp[NOTE])
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        reductions = calls["sysnf.reduce_to_sysnf"]
        doublings = sum(_t_doublings(n) for n in notes["sysnf.reduce_to_sysnf"])
        out["sysnf.reduce_to_sysnf.t_doublings"] = doublings
        out["sysnf.reduce_to_sysnf.useful_ratio"] = (
            reductions / (reductions + doublings) if reductions else 0.0
        )
        out["qcirc.lattice_qft_values.points"] = sum(notes["qcirc.lattice_qft_values"])
        out["dft.dft_matrix.bytes"] = sum(notes["dft.dft_matrix"])
        runs = notes["sampler.sample"]
        out["sampler.grid_points"] = sum(r[0] for r in runs)
        out["sampler.support_points"] = sum(r[1] for r in runs)
        out["sampler.reduced_modulus"] = max((r[2] for r in runs), default=0)
        return out

    def write(self, path, meta: dict) -> None:
        """Spans as [name, start, end, parent, op]; times are perf_counter seconds."""
        names = sorted(TRACED)
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[sp[0]], sp[START], sp[END], sp[PARENT], sp[OP]] for sp in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({**meta, "names": names, "spans": rows}, fh)
