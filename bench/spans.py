"""In-memory span tracing around calls into cvshadow's layers.

A span records (name, start, end, parent).  A tracer made with
``memory=True`` also records, for the spans in ``MEMORY_SPANS``, the
``tracemalloc`` peak of what was allocated inside them; ``tracemalloc`` slows
allocation-heavy code, so times and peaks come from separate iterations.
Times come from ``time.monotonic`` (CLOCK_MONOTONIC, comparable across
processes on one host).

The tracer wraps functions at run time from the benchmark's own code; no file
of the library is modified.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from contextlib import contextmanager

# Public function name -> span name.  The same table serves the library
# workloads (which call through ``bind``) and the CLI (whose imported names
# are replaced in ``cvshadow.cli``'s namespace).
SPAN_OF = {
    "build_state": "states.build",
    "chain_ground_state": "states.build",
    "fock_matrix_of": "states.build",
    "sample_homodyne_batch": "measurement.sample",
    "sample_heterodyne_batch": "measurement.sample",
    "shadow_batch_entries": "shadows.entries",
    "average_entries": "shadows.average",
    "project_PM": "shadows.target",
    "project_PM_tilde": "shadows.target",
    "reconstruct_single_mode": "reconstruction.grid",
    "reconstruct_pair_section": "reconstruction.grid",
    "required_samples_homodyne": "bounds.report",
    "required_samples_heterodyne": "bounds.report",
    "entropy_poly": "entropy.poly",
}

_MODULE_OF = {
    "fock_matrix_of": "cvshadow.states",
    "sample_homodyne_batch": "cvshadow.measurement",
    "shadow_batch_entries": "cvshadow.shadows",
    "average_entries": "cvshadow.shadows",
    "project_PM": "cvshadow.shadows",
    "project_PM_tilde": "cvshadow.shadows",
}


# Spans whose allocation peak is reported.
MEMORY_SPANS = {"measurement.sample", "shadows.entries", "reconstruction.grid"}


class Tracer:
    """Collects spans in memory; ``dump`` writes them out once, at the end."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        # memory spans never nest in this benchmark; a nested one reports no peak
        measure = self.memory and name in MEMORY_SPANS and not tracemalloc.is_tracing()
        record = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        if measure:
            tracemalloc.start()
        record["start"] = time.monotonic()
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            if measure:
                record["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _NoSpan:
    @contextmanager
    def span(self, name: str):
        yield


NO_TRACE = _NoSpan()


def bind(tracer: Tracer | None):
    """Namespace of the library calls the workloads make, traced if asked."""
    import importlib
    from types import SimpleNamespace

    calls = {}
    for name, module in _MODULE_OF.items():
        fn = getattr(importlib.import_module(module), name)
        calls[name] = tracer.wrap(fn, SPAN_OF[name]) if tracer else fn
    return SimpleNamespace(**calls)


def install_cli_tracing(tracer: Tracer) -> None:
    """Wrap the layer functions ``cvshadow.cli`` imports, plus JSONL I/O."""
    import cvshadow.cli as cli

    for name, span_name in SPAN_OF.items():
        if hasattr(cli, name):
            setattr(cli, name, tracer.wrap(getattr(cli, name), span_name))
    batch_cls = cli.SampleBatch
    batch_cls.to_jsonl = tracer.wrap(batch_cls.to_jsonl, "measurement.jsonl_write")
    batch_cls.from_jsonl = classmethod(
        tracer.wrap(batch_cls.from_jsonl.__func__, "measurement.jsonl_parse")
    )


def own_time(spans: list[dict], name: str) -> tuple[float, list[float]]:
    """Total time under spans called ``name``, not double counting nesting.

    Returns the total and the durations of the outermost such spans.
    """
    durations = []
    for s in spans:
        if s["name"] != name:
            continue
        parent = s["parent"]
        nested = False
        while parent is not None:
            if spans[parent]["name"] == name:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            durations.append(s["end"] - s["start"])
    return sum(durations), durations


def top_level_time(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
