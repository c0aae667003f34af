"""Command line entry point.

Exit codes: 0 success, 1 validation/data errors, 2 I/O errors. Errors are
printed to stderr as a single JSON object so callers can parse them; any
other exception is a program fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .config import read_json
from .errors import PipelineError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--charts", action="store_true", help="also write SVG charts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cexdex", description="CEX-DEX arbitrage analytics pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in pipeline.STAGE_ORDER + ["all"]:
        p = sub.add_parser(name, help=f"run the {name} stage{'s' if name == 'all' else ''}")
        _add_run_args(p)

    p = sub.add_parser("synth", help="generate a synthetic input corpus")
    p.add_argument("--config", required=True, help="synthetic scenario JSON")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("score", help="compare pipeline outputs to synthetic ground truth")
    p.add_argument("--truth", required=True, help="ground_truth.json from synth")
    p.add_argument("--out-dir", required=True, help="directory holding pipeline outputs")
    return parser


def _write_charts(ws: pipeline.Workspace) -> None:
    # matplotlib is optional; charts are purely a convenience output
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("charts skipped: matplotlib not installed", file=sys.stderr)
        return
    import numpy as np

    from . import estimate, market

    rows = {}
    if (ws.out_dir / "markouts.csv").exists():
        table = ws.markouts
        rows = table.included_rows()
    if rows:
        fig, ax = plt.subplots(figsize=(8, 5))
        offsets = ws.grid.offsets_s
        for label in sorted(rows):
            grs = table.gr[rows[label]]
            med = np.median(grs, axis=0)
            q25, q75 = np.quantile(grs, [0.25, 0.75], axis=0)
            ax.plot(offsets, med * 1e4, label=label)
            ax.fill_between(offsets, q25 * 1e4, q75 * 1e4, alpha=0.15)
            peak = int(np.argmax(med))
            ax.plot(offsets[peak], med[peak] * 1e4, "v")
        ax.set_xlabel("markout offset (s)")
        ax.set_ylabel("median gross return (bps)")
        ax.legend(fontsize=7)
        fig.savefig(ws.out_dir / "median_gr.svg")
        plt.close(fig)

    cum_path = ws.out_dir / "cumulative_ev.csv"
    if cum_path.exists():
        series: dict[str, list[float]] = {}
        for r in pipeline._read_output(cum_path, estimate.CumulativeEv, "estimate").rows():
            series.setdefault(r.searcher_label, []).append(r.cumulative_ev_usd)
        fig, ax = plt.subplots(figsize=(8, 5))
        for label in sorted(series):
            ax.plot(range(len(series[label])), series[label], label=label)
        ax.set_xlabel("day index")
        ax.set_ylabel("cumulative EV (USD)")
        ax.legend(fontsize=7)
        fig.savefig(ws.out_dir / "cumulative_ev.svg")
        plt.close(fig)

    market_path = ws.out_dir / "market.csv"
    if market_path.exists():
        shares = pipeline._read_output(market_path, market.DailyShare, "market")
        defined = np.not_equal(shares.hhi_volume, None)
        _, first = np.unique(shares.date[defined], return_index=True)  # each date's first HHI
        hhis = shares.hhi_volume[defined][np.sort(first)].tolist()  # in file order
        if hhis:
            fig, ax = plt.subplots(figsize=(8, 4))
            ax.plot(range(len(hhis)), hhis)
            ax.set_xlabel("day index")
            ax.set_ylabel("volume HHI")
            ax.set_ylim(0, 1)
            fig.savefig(ws.out_dir / "hhi.svg")
            plt.close(fig)

    integ_path = ws.out_dir / "integration.csv"
    if integ_path.exists():
        integration = pipeline._read_output(integ_path, market.IntegrationCell, "market")
        cells = {(r.searcher_label, r.builder_label): r.volume_fraction for r in integration.rows()}
        if cells:
            searchers = sorted({s for s, _ in cells})
            builders = sorted({b for _, b in cells})
            mat = np.zeros((len(searchers), len(builders)))
            for i, s in enumerate(searchers):
                for j, b in enumerate(builders):
                    mat[i, j] = cells.get((s, b), 0.0)
            fig, ax = plt.subplots(figsize=(6, 6))
            im = ax.imshow(mat, vmin=0, vmax=1, cmap="viridis")
            ax.set_xticks(range(len(builders)), builders, rotation=90, fontsize=6)
            ax.set_yticks(range(len(searchers)), searchers, fontsize=6)
            fig.colorbar(im)
            fig.tight_layout()
            fig.savefig(ws.out_dir / "integration.svg")
            plt.close(fig)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # synth is imported only by the commands that use it, not by every stage
        if args.command == "synth":
            from . import synth

            cfg = synth.SynthConfig.from_json(args.config)
            synth.generate(cfg, args.out_dir)
            return EXIT_OK
        if args.command == "score":
            from . import synth

            report = synth.score(read_json(args.truth), args.out_dir)
            print(json.dumps(report, indent=2, sort_keys=True))
            return EXIT_OK
        ws = pipeline.Workspace(args.input_dir, args.out_dir)
        if args.command == "all":
            pipeline.run_all(ws)
        else:
            pipeline.run_stage(args.command, ws)
        if args.charts:
            _write_charts(ws)
        return EXIT_OK
    except OSError as exc:  # FileNotFoundError included
        _error("io", str(exc))
        return EXIT_IO
    except PipelineError as exc:
        _error(type(exc).__name__, str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
