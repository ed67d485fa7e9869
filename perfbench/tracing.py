"""Spans around the package's layer entry points, recorded from outside it.

`Tracer.installed()` replaces module attributes of `rateless_dmt` with
timing wrappers and puts the originals back on exit. The package looks
these attributes up at call time (`rng.trial_uniforms(...)`,
`simulate.run_rateless_experiment(...)`), so every call made through them is
seen. A span's self time is its duration minus that of its direct children.
Parent links follow the calling thread, so the traced passes run with
`--workers 1`, where the self times of all spans add up to the wall time.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from rateless_dmt import cli, permcode, rng, simulate

CHUNK_SPAN = "rng.map_chunks.fn"


@dataclass
class Span:
    name: str
    tag: str  # shape (`2x2`) or code size (`b6`), inherited by child spans
    note: str = ""  # e.g. the SNR of a code-trials call
    work: int = 0  # Monte Carlo trials the call runs
    t0: float = 0.0
    t1: float = 0.0
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _shape_of(cfg, r_n, eta_grid, trials, *args, **kwargs):
    return f"{cfg.M}x{cfg.N}", "", trials * len(eta_grid)


def _bits_of(code, eta, trials, *args, **kwargs):
    return f"b{code.bits}", f"{eta.eta_db:g} dB", trials


def _search_of(L, bits, *args, **kwargs):
    return f"b{bits}", f"L={L}", 0


@contextmanager
def patched(module, attr: str, replacement):
    """Set module.attr for the duration of the block, then restore it."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, describe: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            parent = getattr(self._local, "top", None)
            if describe is not None:
                tag, note, work = describe(*args, **kwargs)
            else:
                tag, note, work = (parent.tag, parent.note, 0) if parent else ("", "", 0)
            span = Span(name, tag, note, work)
            self._local.top = span
            span.t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._local.top = parent
                if parent is not None:
                    parent.child_s += span.dur
                self.spans.append(span)

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layer entry points of rng, simulate, permcode and cli."""
        map_chunks = rng.map_chunks

        def chunked(fn, *args, **kwargs):
            return map_chunks(self.wrap(CHUNK_SPAN, fn), *args, **kwargs)

        wrappers = [
            (rng, "trial_uniforms", self.wrap("rng.trial_uniforms", rng.trial_uniforms)),
            (rng, "complex_normals", self.wrap("rng.complex_normals", rng.complex_normals)),
            (rng, "map_chunks", self.wrap("rng.map_chunks", chunked)),
            (simulate, "run_rateless_experiment",
             self.wrap("simulate.run_rateless_experiment", simulate.run_rateless_experiment, _shape_of)),
            (permcode, "run_rateless_code_trials",
             self.wrap("permcode.run_rateless_code_trials", permcode.run_rateless_code_trials, _bits_of)),
            (permcode, "search_permutation_code",
             self.wrap("permcode.search_permutation_code", permcode.search_permutation_code, _search_of)),
            (cli, "main", self.wrap("cli.main", cli.main)),
        ]
        with ExitStack() as stack:
            for module, attr, replacement in wrappers:
                stack.enter_context(patched(module, attr, replacement))
            yield self

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


SHAPES = ("1x1", "2x2", "1x4", "4x1", "4x4")
CODE_SIZES = ("b2", "b6", "b8")
RNG_SPANS = ("rng.trial_uniforms", "rng.complex_normals")
ENTRY_SPANS = ("simulate.run_rateless_experiment", "permcode.run_rateless_code_trials")


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def pass_layers(spans: list[Span], wall: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and the split of its wall time.

    The split has rng self time, kernel self time (chunk spans minus their
    rng children) and the three parts of "outside": cli self time, entry
    point self time (simulate/permcode outside their chunk mapping, plus the
    mapping itself), and the benchmark loop between cli calls.
    """
    self_by: dict[tuple[str, str], float] = {}
    dur_by: dict[tuple[str, str], float] = {}
    chunk_durs = []
    for s in spans:
        key = (s.name, s.tag)
        self_by[key] = self_by.get(key, 0.0) + s.self_s
        dur_by[key] = dur_by.get(key, 0.0) + s.dur
        if s.name == CHUNK_SPAN:
            chunk_durs.append(s.dur)
    rates = entry_rates(spans)

    def total(names, table=self_by) -> float:
        return sum(v for (name, _), v in table.items() if name in names)

    m: dict[str, float] = {}
    for name in RNG_SPANS:
        m[f"{name}.self_s"] = total((name,))
        m[f"{name}.share"] = m[f"{name}.self_s"] / wall
    for module, entry, tags in (
        ("simulate", "run_rateless_experiment", SHAPES),
        ("permcode", "run_rateless_code_trials", CODE_SIZES),
    ):
        for tag in tags:
            kernel = self_by.get((CHUNK_SPAN, tag), 0.0)
            m[f"{module}.kernel.self_s.{tag}"] = kernel
            m[f"{module}.kernel.share.{tag}"] = kernel / wall
            m[f"{module}.{entry}.trials_per_s.{tag}"] = rates.get((f"{module}.{entry}", tag, ""), 0.0)
    m["rng.map_chunks.chunks"] = float(len(chunk_durs))
    m["rng.map_chunks.chunk_s_p50"] = _quantile(chunk_durs, 0.5)
    m["rng.map_chunks.chunk_s_p90"] = _quantile(chunk_durs, 0.9)
    m["cli.main.self_s"] = total(("cli.main",))

    split = {
        "rng": total(RNG_SPANS),
        "kernel": total((CHUNK_SPAN,)),
        "cli": m["cli.main.self_s"],
        "entry": total(ENTRY_SPANS + ("rng.map_chunks",)),
        "loop": wall - total(("cli.main",), dur_by),
    }
    return m, split


def entry_rates(spans: list[Span]) -> dict[tuple[str, str, str], float]:
    """Trials per second of each (entry point, tag, note), e.g. b8 at 20 dB.

    The key with an empty note covers every call of that entry point and tag.
    """
    dur: dict[tuple[str, str, str], float] = {}
    work: dict[tuple[str, str, str], int] = {}
    for s in spans:
        if s.name in ENTRY_SPANS:
            for key in {(s.name, s.tag, s.note), (s.name, s.tag, "")}:
                dur[key] = dur.get(key, 0.0) + s.dur
                work[key] = work.get(key, 0) + s.work
    return {key: work[key] / d for key, d in dur.items() if d > 0}
