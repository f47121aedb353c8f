"""Span tracing of muonlab's layers, applied from outside the package.

`install` replaces the entry points of each module with wrappers that record
one span per call: the layer name, start and end times, and the span that was
open on the same thread when the call began. Spans stay in memory and are
written once, by `Tracer.dump`, when the run ends.

Two of the wrapped names are private, because the training loop reaches its
Newton-Schulz kernel and its gradient clip only through them: `optim`'s
reference to `_ns_orthogonalize` and `harness`'s to `_clip_grad_arrays`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter

# The config parsers the CLI calls; returning from one ends the set-up.
PARSERS = ("parse_train_config", "parse_sweep_config", "parse_ablate_config",
           "parse_telescope_config")


class Tracer:
    """Collects spans per thread, plus counted notes about some calls."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[list]] = []
        self.notes: Counter = Counter()

    def _thread_state(self) -> tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])  # this thread's spans, stack of open indices
            with self._lock:
                self._buffers.append(state[0])
            self._local.state = state
        return state

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` wrapped to record a span called ``name``.

        ``note(notes, args, result)``, when given, runs after the span ends
        and may count facts about the call in ``notes``.
        """
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(self.notes, args, result)
            return result

        return traced

    def spans(self) -> dict[str, list]:
        """All spans as parallel lists; parents index into the same lists."""
        out = {"name": [], "start": [], "end": [], "parent": []}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            offset = len(out["name"])
            for name, start, end, parent in buf:
                out["name"].append(name)
                out["start"].append(start)
                out["end"].append(end)
                out["parent"].append(parent + offset if parent >= 0 else -1)
        return out

    def dump(self, path: str) -> None:
        """Write the spans and notes as one JSON document."""
        doc = {"spans": self.spans(),
               "notes": [[list(key), count] for key, count in self.notes.items()]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def load(path: str) -> tuple[dict, dict]:
    """Read what `Tracer.dump` wrote: (spans, notes keyed by tuples)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["spans"], {tuple(key): count for key, count in doc["notes"]}


def _note_ns(notes: Counter, args, result) -> None:
    arr, _coeffs, k = args[:3]
    notes[("msign.ns", arr.shape[0], arr.shape[1], k, arr.itemsize)] += 1


def _note_clip(notes: Counter, args, result) -> None:
    max_norm = args[1]
    pre_clip_norm = result[1]
    notes[("optim.clip", pre_clip_norm > max_norm)] += 1


def install(tracer: Tracer, cli) -> None:
    """Wrap the layer boundaries of the muonlab package ``cli`` belongs to.

    Names a module imported from another are wrapped where the caller looks
    them up, which is why several are patched on ``cli`` and ``harness``.
    """
    from muonlab import harness, linalg, optim, tasks

    def patch(owner, attr: str, layer: str, note=None) -> None:
        setattr(owner, attr, tracer.wrap(layer, getattr(owner, attr), note))

    patch(cli, "main", "cli.main")
    for attr in ("load_config",) + PARSERS:
        patch(cli, attr, "config.parse")
    patch(cli, "emit_reports", "reports.emit")
    for attr in ("batch_sweep", "ablate", "telescope_sweep"):
        patch(cli, attr, "harness.driver")
    patch(cli, "train", "harness.train")
    patch(harness, "train", "harness.train")
    patch(harness, "_clip_grad_arrays", "optim.clip", _note_clip)
    patch(optim, "_ns_orthogonalize", "msign.ns", _note_ns)
    patch(optim.OptimizerBank, "step", "optim.step")
    for cls in (tasks.QuadraticTask, tasks.MlpTask):
        patch(cls, "sample_batch", "tasks.sample_batch")
        patch(cls, "batch_loss_grad", "tasks.batch_loss_grad")
        for attr in ("train_loss", "val_loss", "objective_grads"):
            patch(cls, attr, "tasks.eval")
    patch(linalg.Matrix, "__init__", "linalg.matrix")
