"""Spans around calls into the ``sharptail`` modules, and the layer metrics.

``Tracer.install`` replaces module attributes and model methods with
wrappers that record a span per call: name, start, end, parent span,
operation id and a tuple of counters.  Where a module imports a name from
another (``csum`` in ``saddle``, ``estimate``, ``mc``, ``scenarios``), the
importing module's name is wrapped, since that is the one its code looks
up.  ``uninstall`` puts the originals back, so untraced rounds run the
program as shipped.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from sharptail import cgf, cli, estimate, fclt, mc, numerics, saddle, scenarios, weights

# (module, attribute, span name, counters(args, kwargs, result) -> tuple of ints)
_MODULE_SPANS = [
    (cli, "validate_document", "cli.validate", None),
    (cli, "draw_environment", "weights.draw_environment", None),
    (fclt, "draw_environment", "weights.draw_environment", None),
    (scenarios, "draw_environment", "weights.draw_environment", None),
    (fclt, "solve_deterministic", "saddle.solve_deterministic", None),
    (cgf, "expit", "numerics.expit", None),
    (cli, "check_conditions", "estimate.check_conditions", None),
    (mc, "tilted_mc_segments", "mc.tilted",
     lambda a, k, r: (sum(s.weights.size for s in a[0]) * a[3].draws, a[3].draws, r.hits)),
    (cli, "sample_fluctuations", "fclt.replica",
     lambda a, k, r: (int(np.count_nonzero(r.valid)), r.valid.size)),
    (cli, "fclt_report", "fclt.report", None),
    (scenarios, "tcell_environment", "scenarios.environment", None),
    (scenarios, "portfolio_segments", "scenarios.environment", None),
    (cli, "tcell_activation_prob", "scenarios.tcell", None),
    (cli, "portfolio_loss_prob", "scenarios.portfolio", None),
] + [(m, "csum", "numerics.csum", lambda a, k, r: (len(a[0]),))
     for m in (numerics, saddle, estimate, mc, scenarios)]

# (base class, method, span name, counters)
_METHOD_SPANS = [
    (weights.WeightModel, "expect", "weights.expect", None),
    (cgf.CumulantModel, "log_abs_mgf", "cgf.log_abs_mgf",
     lambda a, k, r: (int(np.size(a[1])),)),
    (cgf.CumulantModel, "tilted_batch", "cgf.tilted_batch",
     lambda a, k, r: (int(np.size(a[1])) * a[2],)),
]

# the one root finder every saddle solve goes through
_ROOT_OWNERS = (saddle, scenarios)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, t0_ns, t1_ns, parent, op, counts)
        self._stack: list[int] = []
        self._saved: list = []
        self.op = -1

    def begin(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, time.perf_counter_ns()

    def end(self, sid: int, t0: int, name: str, counts: tuple = ()) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, t0, t1, parent, self.op, counts)

    def _wrapped(self, fn, name, counters):
        tracer = self

        def traced(*args, **kwargs):
            sid, t0 = tracer.begin()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counts = counters(args, kwargs, result) if counters and result is not None else ()
                tracer.end(sid, t0, name, counts)

        return traced

    def _root_wrapped(self, fn):
        tracer = self

        def traced(psi, *args, **kwargs):
            evals = 0

            def counted(t, order):
                nonlocal evals
                evals += 1
                return psi(t, order)

            sid, t0 = tracer.begin()
            sol = None
            try:
                sol = fn(counted, *args, **kwargs)
                return sol
            finally:
                tracer.end(sid, t0, "saddle.solve_psi_root",
                           (sol.iterations if sol is not None else 0, evals))

        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, name, counters in _MODULE_SPANS:
            self._patch(module, attr, self._wrapped(getattr(module, attr), name, counters))
        for base, attr, name, counters in _METHOD_SPANS:
            for cls in _subclasses(base):
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._wrapped(cls.__dict__[attr], name, counters))
        for module in _ROOT_OWNERS:
            self._patch(module, "solve_psi_root", self._root_wrapped(module.solve_psi_root))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _subclasses(base):
    found = []
    for cls in base.__subclasses__():
        found += [cls, *_subclasses(cls)]
    return found


def round_layers(spans, ops: set[int]) -> dict:
    """Per-layer totals of one round: seconds, counts and their ratios."""
    dur: dict[str, int] = {}
    calls: dict[str, int] = {}
    tot: dict[str, list[int]] = {}
    under_det: dict[int, bool] = {}
    for sid, (name, t0, t1, parent, op, counts) in enumerate(spans):
        if op not in ops:
            continue
        under_det[sid] = name == "saddle.solve_deterministic" or under_det.get(parent, False)
        keys = [name]
        if name == "saddle.solve_psi_root" and not under_det[sid]:
            keys.append("saddle.solve")
        for key in keys:
            dur[key] = dur.get(key, 0) + (t1 - t0)
            calls[key] = calls.get(key, 0) + 1
            acc = tot.setdefault(key, [0] * len(counts))
            for i, c in enumerate(counts):
                acc[i] += c

    def s(name):
        return dur.get(name, 0) / 1e9

    def count(name, i):
        values = tot.get(name, [])
        return values[i] if i < len(values) else 0

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    return {
        "cli.validate_s": s("cli.validate"),
        "weights.draw_environment_s": s("weights.draw_environment"),
        "weights.expect_calls": calls.get("weights.expect", 0),
        "weights.expect_s": s("weights.expect"),
        "saddle.solves": calls.get("saddle.solve_psi_root", 0),
        "saddle.newton_iters": count("saddle.solve_psi_root", 0),
        "saddle.psi_evals": count("saddle.solve_psi_root", 1),
        "saddle.solve_s": s("saddle.solve"),
        "saddle.deterministic_s": s("saddle.solve_deterministic"),
        "numerics.csum_calls": calls.get("numerics.csum", 0),
        "numerics.csum_elems": count("numerics.csum", 0),
        "numerics.csum_s": s("numerics.csum"),
        "numerics.csum_ns_per_elem": ratio(dur.get("numerics.csum", 0), count("numerics.csum", 0)),
        "numerics.expit_s": s("numerics.expit"),
        "cgf.log_abs_mgf_elems": count("cgf.log_abs_mgf", 0),
        "cgf.log_abs_mgf_ns_per_elem": ratio(dur.get("cgf.log_abs_mgf", 0),
                                             count("cgf.log_abs_mgf", 0)),
        "estimate.check_conditions_s": s("estimate.check_conditions"),
        "cgf.tilted_batch_ns_per_draw": ratio(dur.get("cgf.tilted_batch", 0),
                                              count("cgf.tilted_batch", 0)),
        "mc.tilted_s": s("mc.tilted"),
        "mc.ns_per_summand_draw": ratio(dur.get("mc.tilted", 0), count("mc.tilted", 0)),
        "mc.hit_ratio": ratio(count("mc.tilted", 2), count("mc.tilted", 1)),
        "fclt.replica_ms": ratio(dur.get("fclt.replica", 0), calls.get("fclt.replica", 0), 1e-6),
        "fclt.report_s": s("fclt.report"),
        "fclt.valid_ratio": ratio(count("fclt.replica", 0), count("fclt.replica", 1)),
        "scenarios.environment_s": s("scenarios.environment"),
        "scenarios.tcell_s": s("scenarios.tcell"),
        "scenarios.portfolio_s": s("scenarios.portfolio"),
    }


def self_times(spans, ops: set[int]) -> dict:
    """Seconds per span name, less the time of the wrapped calls it made."""
    own: dict[str, int] = {}
    for name, t0, t1, parent, op, _ in spans:
        if op not in ops:
            continue
        own[name] = own.get(name, 0) + (t1 - t0)
        if parent >= 0:
            pname = spans[parent][0]
            own[pname] = own.get(pname, 0) - (t1 - t0)
    return {name: ns / 1e9 for name, ns in sorted(own.items())}


COUNTS = ("weights.expect_calls", "saddle.solves", "saddle.newton_iters", "saddle.psi_evals",
          "numerics.csum_calls", "numerics.csum_elems", "cgf.log_abs_mgf_elems",
          "mc.hit_ratio", "fclt.valid_ratio")


def unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "ns_per_" in name:
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(per_round: list[dict]) -> dict:
    """Counts from the first traced round (they repeat exactly); times as medians."""
    first = per_round[0]
    return {name: first[name] if name in COUNTS
            else statistics.median(r[name] for r in per_round)
            for name in first}
