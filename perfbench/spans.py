"""Spans recorded from outside uwauth, around the calls into each layer.

`install` replaces uwauth's public entry points at the module or class
attributes where their callers look them up, so the program itself is not
edited. Each call then records a span (name, start, end, parent, tag) in
memory; `Recorder.save` writes them out when the run ends, and `summarize`
turns them into the per-layer metrics. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array

import numpy as np

# Tag values. Non-negative tags carry a per-call quantity (the return-value
# class of a CDF call, or the trial count of a simulation).
SATURATED = 1  # cdf/sf returned exactly 0.0 or 1.0
INVERTED = 2  # cdf/sf returned a value strictly between 0 and 1
RAISED = -1
ACCURACY_ERROR = -2


class Recorder:
    """Append-only span store; one parent stack per thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.tag = array("q")
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            self.tag.append(0)
        stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def close(self, idx: int, tag: int = 0) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.tag[idx] = tag
        self._stack().pop()

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), tag=np.asarray(self.tag))


def wrap(rec: Recorder, name: str, fn, tag_of=None):
    """Return fn recording one span per call; tag_of(args, result) -> int."""
    from uwauth.errors import AccuracyError

    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        except AccuracyError:
            rec.close(idx, ACCURACY_ERROR)
            raise
        except BaseException:
            rec.close(idx, RAISED)
            raise
        rec.close(idx, tag_of(args, result) if tag_of else 0)
        return result

    return traced


def _cdf_class(args, result) -> int:
    return SATURATED if result in (0.0, 1.0) else INVERTED


def _trials(args, result) -> int:
    return int(args[1])


def install(rec: Recorder) -> list:
    """Wrap the entry points; returns what `uninstall` needs to undo it."""
    from uwauth import authentication, cli, experiment, localization, quadform

    dist = quadform.QuadFormDist
    targets = [
        (dist, "cdf", "quadform.cdf", _cdf_class),
        (dist, "sf", "quadform.cdf", _cdf_class),
        (dist, "quantile", "quadform.quantile", None),
        (dist, "__post_init__", "quadform.construct", None),
        (experiment, "distance_noise_variance", "channel.noise_var", None),
        (authentication, "distance_noise_variance", "channel.noise_var", None),
        (localization, "distance_noise_variance", "channel.noise_var", None),
        (experiment, "simulate_test_statistics", "authentication.simulate",
         _trials),
        (experiment, "calibrate_threshold", "authentication.calibrate", None),
        (authentication, "calibrate_threshold", "authentication.calibrate",
         None),
        (authentication, "residual_vector", "authentication.residual", None),
        (authentication, "test_statistic", "authentication.test_statistic",
         None),
        (authentication, "decide", "authentication.decide", None),
        (localization, "build_system", "localization.build_system", None),
        (localization, "solve_position", "localization.solve", None),
        (cli, "run_sweep", "experiment.run_sweep", None),
        (cli, "roc_curve", "experiment.roc", None),
        (cli, "default_thresholds", "experiment.thresholds", None),
        (cli, "main", "cli", None),
    ]
    undo = []
    for owner, attr, name, tag_of in targets:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, wrap(rec, name, original, tag_of))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# Per-layer metric prefixes, the span each sums, and whether its call count
# is reported. The saturated/inverted CDF classes are added by tag.
LAYERS = (
    ("quadform.cdf", "quadform.cdf", True),
    ("quadform.quantile", "quadform.quantile", True),
    ("quadform.construct", "quadform.construct", True),
    ("authentication.simulate", "authentication.simulate", True),
    ("authentication.calibrate", "authentication.calibrate", False),
    ("authentication.residual", "authentication.residual", False),
    ("authentication.test_statistic", "authentication.test_statistic", False),
    ("authentication.decide", "authentication.decide", False),
    ("localization.build_system", "localization.build_system", True),
    ("localization.solve", "localization.solve", True),
    ("channel.noise_var", "channel.noise_var", True),
    ("experiment.run_sweep", "experiment.run_sweep", False),
    ("experiment.thresholds", "experiment.thresholds", False),
    ("experiment.roc", "experiment.roc", False),
    ("cli", "cli", False),
)
CDF_CLASSES = (("saturated", SATURATED), ("inverted", INVERTED))


def _phase_totals(rec: Recorder, lo: int, hi: int) -> dict:
    """Sums over spans lo..hi-1, which have no children outside that range."""
    name = np.asarray(rec.name)[lo:hi]
    dur = (np.asarray(rec.end)[lo:hi] - np.asarray(rec.start)[lo:hi]) * 1e-9
    parent = np.asarray(rec.parent)[lo:hi] - lo
    tag = np.asarray(rec.tag)[lo:hi]
    has_parent = parent >= 0
    self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
    ids = {n: i for i, n in enumerate(rec.names)}

    def pick(span):
        return name == ids.get(span, -1)

    masks = {prefix: pick(span) for prefix, span, _ in LAYERS}
    cdf = masks["quadform.cdf"]
    for kind, value in CDF_CLASSES:
        masks[f"quadform.cdf.{kind}"] = cdf & (tag == value)
    out = {}
    for prefix, mask in masks.items():
        out[prefix + ".calls"] = int(np.count_nonzero(mask))
        out[prefix + ".self_s"] = float(self_s[mask].sum())
    for kind, _ in CDF_CLASSES:
        out[kind + "_us"] = dur[masks[f"quadform.cdf.{kind}"]] * 1e6
    quantiles = np.flatnonzero(masks["quadform.quantile"])
    out["quantile.cdf_calls"] = int(np.count_nonzero(
        cdf & np.isin(parent, quantiles)))
    simulate = masks["authentication.simulate"]
    out["simulate.trials"] = int(tag[simulate].sum())
    out["simulate.total_s"] = float(dur[simulate].sum())
    quadform = cdf | masks["quadform.quantile"] | masks["quadform.construct"]
    out["accuracy_errors"] = int(np.count_nonzero(
        quadform & (tag == ACCURACY_ERROR)))
    return out


def summarize(rec: Recorder, requests_from: int, requests: int) -> dict:
    """Per-layer metrics for one set-up plus one request.

    Spans before index `requests_from` belong to the traced set-up and
    count once; spans after it come from `requests` identical requests
    and are averaged over them.
    """
    setup = _phase_totals(rec, 0, requests_from)
    reqs = _phase_totals(rec, requests_from, len(rec))
    per = {}
    for key in setup:
        if key.endswith("_us"):
            per[key] = np.concatenate([setup[key], reqs[key]])
        else:
            per[key] = setup[key] + reqs[key] / requests
    m = {}
    for prefix, _, counted in LAYERS:
        if counted:
            m[prefix + ".calls"] = per[prefix + ".calls"]
        m[prefix + ".self_s"] = per[prefix + ".self_s"]
    for kind, _ in CDF_CLASSES:
        us = per[kind + "_us"]
        m[f"quadform.cdf.{kind}.calls"] = per[f"quadform.cdf.{kind}.calls"]
        m[f"quadform.cdf.{kind}.self_s"] = per[f"quadform.cdf.{kind}.self_s"]
        m[f"quadform.cdf.{kind}.p50_us"] = (
            float(np.median(us)) if us.size else 0.0)
    q_calls = per["quadform.quantile.calls"]
    m["quadform.quantile.cdf_per_call"] = (
        per["quantile.cdf_calls"] / q_calls if q_calls else 0.0)
    m["quadform.accuracy_errors"] = per["accuracy_errors"]
    m["authentication.simulate.trials_per_s"] = (
        per["simulate.trials"] / per["simulate.total_s"]
        if per["simulate.total_s"] else 0.0)
    return m
