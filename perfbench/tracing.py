"""Spans around calls into the sebits modules, recorded from outside `src/`.

`Tracer.install` replaces each traced public function with a wrapper in every
`sebits.*` namespace that binds it (`from .x import y` copies the binding, so
patching the defining module alone would miss calls made through the copies)
and `Tracer.restore` puts the originals back.  A span is (name, start, end,
parent, job); spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

# module.function of every traced public function -> the statistics reported
TRACED = {
    "cli.main": ("calls", "self_s"),
    "core.induced_semantic_distribution": ("calls", "self_s"),
    "core.induced_semantic_joint": ("calls", "self_s"),
    "measures.entropy": ("calls", "self_s"),
    "measures.semantic_entropy": ("calls", "self_s"),
    "optimize.maximize_up_smi": ("calls", "busy_s"),
    "optimize.semantic_capacity": ("calls", "busy_s"),
    "optimize.blahut_arimoto_capacity": ("calls", "busy_s"),
    "optimize.semantic_rate_distortion": ("calls", "busy_s"),
    "optimize.blahut_arimoto_rd": ("calls", "busy_s"),
    "srccode.build_semantic_huffman": ("calls", "busy_s"),
    "srccode.encode_sequence": ("calls", "busy_s"),
    "srccode.decode_sequence": ("calls", "busy_s"),
    "chancode.simulate_awgn": ("calls", "busy_s"),
    "chancode.gep_union_bound": ("calls", "busy_s"),
    "chancode.min_group_hamming_distance": ("calls", "busy_s"),
    "chancode.classic_distance_spectrum": ("calls", "busy_s"),
    "typicality.enumerate_typical_sets": ("calls", "busy_s"),
    "typicality.estimate_joint_typicality": ("calls", "busy_s"),
    "gaussian.emit_curves": ("calls", "busy_s"),
}


def _awgn_work(a) -> dict:
    cb, cfg = a["cb"], a["cfg"]
    return {"trials": cfg.trials, "decode_work": cfg.trials * cb.num_codewords * cb.n, "cfg": cfg}


def _enumeration_work(a) -> dict:
    n = a["n"]
    sizes = (a["d"].alphabet_size, a["f"].semantic_size)
    return {"compositions": sum(math.comb(n + k - 1, k - 1) for k in sizes)}


def _joint_mc_work(a) -> dict:
    per_trial = 1 if a.get("mode", "correlated") == "correlated" else 4
    return {"draws": a["trials"] * a["n"] * per_trial}


# work counts read off a call's arguments
WORK = {
    "chancode.simulate_awgn": _awgn_work,
    "typicality.enumerate_typical_sets": _enumeration_work,
    "typicality.estimate_joint_typicality": _joint_mc_work,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int | None = None
    failed: bool = False
    work: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        work = WORK.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None, job=self.job)
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                span.work = work(bound.arguments)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sebits" or key.startswith("sebits."))]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"sebits.{module}"], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def restore(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def of(self, name: str, jobs: range | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (jobs is None or s.job in jobs)]


def per_layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass span counts, busy (inclusive) and self time, and work rates."""

    def busy(spans) -> float:
        return sum(s.duration for s in spans)

    def work(spans, key) -> float:
        return sum(s.work[key] for s in spans)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    for name, stats in TRACED.items():
        spans = tracer.of(name)
        values = {"calls": len(spans), "busy_s": busy(spans), "self_s": sum(s.self_s for s in spans)}
        for stat in stats:
            m[f"{name}.{stat}"] = values[stat] / passes

    up = tracer.of("optimize.maximize_up_smi")
    m["optimize.maximize_up_smi.p50_s"] = statistics.median(s.duration for s in up) if up else 0.0
    m["optimize.semantic_rate_distortion.failed"] = sum(
        s.failed for s in tracer.of("optimize.semantic_rate_distortion")) / passes

    awgn = tracer.of("chancode.simulate_awgn")
    m["chancode.simulate_awgn.trials_per_s"] = rate(work(awgn, "trials"), busy(awgn))
    m["chancode.decode_work"] = work(awgn, "decode_work") / passes

    exact = tracer.of("typicality.enumerate_typical_sets")
    m["typicality.compositions"] = work(exact, "compositions") / passes
    m["typicality.compositions_per_s"] = rate(work(exact, "compositions"), busy(exact))
    mc = tracer.of("typicality.estimate_joint_typicality")
    m["typicality.estimate_joint_typicality.draws_per_s"] = rate(work(mc, "draws"), busy(mc))
    return m
