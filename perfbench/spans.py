"""Tracing from outside the program, and the per-layer summary of a trace.

``install()`` wraps cexdex functions where the stage drivers look them up:
``pipeline`` binds the loaders, ``detect_all`` and ``QuoteStore`` by name,
while ``markout``, ``horizon``, ``estimate``, ``market`` and ``builder``
functions are looked up as module attributes, so those are patched on the
module. Stage spans come from wrapping the entries of ``pipeline.STAGES``,
which ``run_all`` and ``run_stage`` look up at call time.

Each timed call records one span ``[name, start, end, parent, arg]``, kept in
memory and written as JSON when the process ends. Count-only wrappers tally
``detect_all``'s transactions and trades, the markout curves left
unexcluded, and the calls of ``estimate._utc_day``: that one runs far more
than 100k times on a long calendar, and timing each call inflates the
market stage by half.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

from corpus import rows_and_bytes

STAGE_ORDER = ("detect", "markout", "horizon", "estimate", "market", "builder")

# Timed wrappers: (span name, module, attribute, category).
# Category "parse" or "write" feeds the stage split; "" is compute.
TIMED = (
    ("pipeline._read_csv", "pipeline", "_read_csv", "parse"),
    ("pipeline._load_detections", "pipeline", "_load_detections", "parse"),
    ("pipeline._load_markout_curves", "pipeline", "_load_markout_curves", "parse"),
    ("pipeline._load_profiles", "pipeline", "_load_profiles", "parse"),
    ("pipeline._load_economics", "pipeline", "_load_economics", "parse"),
    ("data_model.load_transactions", "pipeline", "load_transactions", "parse"),
    ("data_model.load_quotes", "pipeline", "load_quotes", "parse"),
    ("data_model.load_tokens", "pipeline", "load_tokens", "parse"),
    ("data_model.load_block_records", "pipeline", "load_block_records", "parse"),
    ("data_model.load_searchers", "pipeline", "load_searchers", "parse"),
    ("quotes.QuoteStore", "pipeline", "QuoteStore", "parse"),
    ("pipeline._write_csv", "pipeline", "_write_csv", "write"),
    ("pipeline.write_manifest", "pipeline", "write_manifest", ""),
    ("detect.detect_all", "pipeline", "detect_all", ""),
    ("markout.markout_curve", "markout", "markout_curve", ""),
    ("horizon.build_profile", "horizon", "build_profile", ""),
    ("estimate.trade_economics", "estimate", "trade_economics", ""),
    ("estimate.cumulative_ev_series", "estimate", "cumulative_ev_series", ""),
    ("market.integration_matrix", "market", "integration_matrix", ""),
    ("market.spearman", "market", "spearman", ""),
    ("builder.block_economics", "builder", "block_economics", ""),
    ("builder.builder_summary", "builder", "builder_summary", ""),
    ("quotes.eth_usd", "quotes.QuoteStore", "eth_usd", ""),
    ("kernels.step_mid_lookup", "_kernels", "step_mid_lookup", ""),
)


def _tally_utc_day(counts, args, result):
    counts["estimate.utc_day"] += 1


def _tally_curve(counts, args, curve):
    counts["markout.curves"] += 1
    counts["markout.included"] += not curve.excluded


def _tally_detect(counts, args, result):
    counts["detect.txs"] += len(args[0])
    counts["detect.trades"] += len(result[0])


# Count-only wrappers: (module, attribute, tally(counts, args, result)).
COUNTED = (
    ("estimate", "_utc_day", _tally_utc_day),
    ("pipeline", "_curve_for_trade", _tally_curve),
    ("pipeline", "detect_all", _tally_detect),
)
CATEGORY = {name: cat for name, _, _, cat in TIMED}
STAGE_SPANS = {f"pipeline.{stage}": stage for stage in STAGE_ORDER}
# spans whose first argument (a path) is recorded, to size files afterwards
PATH_ARG = {"pipeline._read_csv", "pipeline._write_csv", "data_model.load_quotes"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def timed(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep_path = name in PATH_ARG

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    str(args[0]) if keep_path and args else None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def counted(self, fn, tally):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tally(counts, args, result)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


def install() -> Tracer:
    """Patch cexdex in this process and return the tracer collecting spans."""
    import cexdex._kernels
    import cexdex.builder
    import cexdex.estimate
    import cexdex.horizon
    import cexdex.market
    import cexdex.markout
    import cexdex.pipeline
    import cexdex.quotes

    targets = {
        "pipeline": cexdex.pipeline, "markout": cexdex.markout,
        "horizon": cexdex.horizon, "estimate": cexdex.estimate,
        "market": cexdex.market, "builder": cexdex.builder,
        "_kernels": cexdex._kernels, "quotes.QuoteStore": cexdex.quotes.QuoteStore,
    }
    tracer = Tracer()
    for name, target, attr, _ in TIMED:
        obj = targets[target]
        setattr(obj, attr, tracer.timed(name, getattr(obj, attr)))
    for target, attr, tally in COUNTED:
        obj = targets[target]
        setattr(obj, attr, tracer.counted(getattr(obj, attr), tally))
    stages = cexdex.pipeline.STAGES
    for span_name, stage in STAGE_SPANS.items():
        stages[stage] = tracer.timed(span_name, stages[stage])
    return tracer


# ---------------------------------------------------------------------------
# summary (runs in the benchmark's parent process)

def _owning_stage(spans, i) -> str | None:
    """The stage whose parse or write time span i counts in.

    None when span i sits inside another span of its own category, whose
    time already covers it, or outside every stage.
    """
    category = CATEGORY[spans[i][0]]
    p = spans[i][3]
    while p >= 0:
        name = spans[p][0]
        if CATEGORY.get(name) == category:
            return None
        if name in STAGE_SPANS:
            return STAGE_SPANS[name]
        p = spans[p][3]
    return None


def summarize(traces: list[dict]) -> dict:
    """Raw per-layer totals of one pipeline run from the traces of its processes.

    Rows and bytes of the files a span names are measured here, after the
    run, so tracing never reads a file.
    """
    m: Counter = Counter()
    sizes: dict[str, tuple[int, int]] = {}
    for trace in traces:
        spans = trace["spans"]
        for i, (name, start, end, _, arg) in enumerate(spans):
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += end - start
            if name in STAGE_SPANS:
                m[f"pipeline.{STAGE_SPANS[name]}.wall_s"] += end - start
            elif CATEGORY[name] and (stage := _owning_stage(spans, i)):
                m[f"pipeline.{stage}.{CATEGORY[name]}_s"] += end - start
            if arg is not None:
                if arg not in sizes:
                    sizes[arg] = rows_and_bytes(Path(arg))
                m[f"{name}.rows"] += sizes[arg][0]
                m[f"{name}.bytes"] += sizes[arg][1]
        m.update(trace["counts"])
    for stage in STAGE_ORDER:
        m[f"pipeline.{stage}.compute_s"] = (
            m[f"pipeline.{stage}.wall_s"]
            - m[f"pipeline.{stage}.parse_s"] - m[f"pipeline.{stage}.write_s"]
        )
    return dict(m)
