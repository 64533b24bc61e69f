"""Outside-in tracing of one retail-profiler CLI command.

Run as ``python3 perfbench/tracer.py SPANS.json <cli arguments...>`` with
``src`` on ``PYTHONPATH``. It imports the package, wraps the public functions
listed in ``LAYERS`` in every module namespace that binds them, calls
``retail_profiler.cli.main(argv)`` in this process and writes the recorded
spans and counters to ``SPANS.json``. Nothing under ``src/`` is modified; the
wrappers live only in this process.

Every wrapped call records a span: (id, parent id, name, start, end, attrs).
Each thread keeps its own span stack. A span opened on a worker thread whose
stack is empty takes as parent the innermost open span of the thread that
runs the command, so the repetitions of ``simulate.baseline_band`` that run
on a thread pool nest under it.

Per-row helpers such as ``CustomerDataset.index_of`` are deliberately not
wrapped; their cost shows in the self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# module -> public functions wrapped with a span. Attribute extractors below
# add work counts to some of them.
LAYERS = {
    "model": ("load_customers", "save_customers"),
    "synth": ("generate", "write_ground_truth"),
    "metrics": ("global_distance",),
    "kernels": ("normalized_rmsd", "accumulate_distance_curve"),
    "pairing": (
        "build_pairs",
        "attach_kpis",
        "write_pair_table",
        "read_pair_table",
        "aggregate_matrix",
        "identification_stats",
    ),
    "simulate": (
        "random_sequence",
        "accumulate_curve",
        "baseline_band",
        "greedy_sequence",
        "power_sequence",
        "write_curve",
        "write_baseline",
    ),
}

# span name -> function(args, result) giving the span's work counts
ATTRIBUTES = {
    "model.load_customers": lambda args, result: {"rows": result.total},
    "kernels.normalized_rmsd": lambda args, result: {"rows": len(result)},
    "kernels.accumulate_distance_curve": lambda args, result: {"rows": len(result)},
    "pairing.build_pairs": lambda args, result: {"pairs": len(result)},
}


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.resolve_calls = 0
        self.targets: set[bytes] = set()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._root = threading.get_ident()

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        root = self._stacks.get(self._root)
        return root[-1] if root else None

    def wrap(self, name: str, fn):
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            parent = self._parent(stack)
            span = next(self._ids)
            stack.append(span)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = attributes(args, result) if attributes and result is not None else {}
                self.spans.append((span, parent, name, start, end, attrs))

        return traced

    def count_resolver(self, resolver):
        """Wrap a target resolver so each call and each distinct target is counted."""

        def resolve(pair):
            target = resolver(pair)
            self.resolve_calls += 1
            self.targets.add(target.values.tobytes())
            return target

        return resolve

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": {
                "targets.resolve.calls": self.resolve_calls,
                "targets.resolve.distinct_targets": len(self.targets),
            },
        }


def install(tracer: Tracer) -> None:
    """Wrap every listed function in each retail_profiler namespace that binds it."""
    import retail_profiler.cli as cli

    modules = [m for n, m in list(sys.modules.items()) if n.startswith("retail_profiler")]
    for module_name, functions in LAYERS.items():
        owner = sys.modules[f"retail_profiler.{module_name}"]
        for function in functions:
            original = getattr(owner, function)
            traced = tracer.wrap(f"{module_name}.{function}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)

    parse_target_spec = cli.parse_target_spec

    def counted_parse(spec):
        resolver, target, description = parse_target_spec(spec)
        return tracer.count_resolver(resolver), target, description

    cli.parse_target_spec = counted_parse


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its share of the wall time it alone was running.

    Wall time is split at every span boundary. Each interval is charged to the
    spans open during it that have no open child, in equal shares when spans
    on several threads run at once. The self times of all spans therefore sum
    to the wall time covered by any span, also when children overlap.
    """
    parent_of = {span[0]: span[1] for span in spans}
    events = sorted(
        [(start, 1, sid) for sid, _, _, start, _, _ in spans]
        + [(end, 0, sid) for sid, _, _, _, end, _ in spans]
    )
    open_spans: set[int] = set()
    open_children: Counter = Counter()
    counted_in: dict[int, int] = {}
    own: dict[int, float] = defaultdict(float)
    previous = None
    for t, is_start, sid in events:
        if previous is not None and t > previous and open_spans:
            leaves = [s for s in open_spans if open_children[s] == 0]
            share = (t - previous) / len(leaves)
            for s in leaves:
                own[s] += share
        previous = t
        parent = parent_of[sid]
        if is_start:
            open_spans.add(sid)
            if parent in open_spans:
                open_children[parent] += 1
                counted_in[sid] = parent
        else:
            open_spans.discard(sid)
            if sid in counted_in:
                open_children[counted_in.pop(sid)] -= 1
    return {span[0]: own[span[0]] for span in spans}


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import retail_profiler.cli as cli

    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
