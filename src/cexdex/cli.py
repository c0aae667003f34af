"""Command line entry point.

Exit codes: 0 success, 1 validation/data errors, 2 I/O errors. Errors are
printed to stderr as a single JSON object so drivers can parse them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline, synth
from .errors import PipelineError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
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
    import csv

    import numpy as np

    from . import horizon as horizon_mod

    table = ws.markouts
    rows = table.included_rows()
    if rows:
        fig, ax = plt.subplots(figsize=(8, 5))
        for label in sorted(rows):
            med = horizon_mod.median_curve(label, table.gr[rows[label]], ws.grid.offsets_s)
            ax.plot(med.offsets_s, med.median_gr * 1e4, label=label)
            ax.fill_between(med.offsets_s, med.q25_gr * 1e4, med.q75_gr * 1e4, alpha=0.15)
            peak = int(np.argmax(med.median_gr))
            ax.plot(med.offsets_s[peak], med.median_gr[peak] * 1e4, "v")
        ax.set_xlabel("markout offset (s)")
        ax.set_ylabel("median gross return (bps)")
        ax.legend(fontsize=7)
        fig.savefig(ws.out_dir / "median_gr.svg")
        plt.close(fig)

    cum_path = ws.out_dir / "cumulative_ev.csv"
    if cum_path.exists():
        series: dict[str, tuple[list[str], list[float]]] = {}
        with open(cum_path, newline="") as f:
            for r in csv.DictReader(f):
                d, c = series.setdefault(r["searcher_label"], ([], []))
                d.append(r["date"])
                c.append(float(r["cumulative_ev_usd"]))
        fig, ax = plt.subplots(figsize=(8, 5))
        for label in sorted(series):
            d, c = series[label]
            ax.plot(range(len(d)), c, label=label)
        ax.set_xlabel("day index")
        ax.set_ylabel("cumulative EV (USD)")
        ax.legend(fontsize=7)
        fig.savefig(ws.out_dir / "cumulative_ev.svg")
        plt.close(fig)

    market_path = ws.out_dir / "market.csv"
    if market_path.exists():
        dates, hhis = [], []
        seen = set()
        with open(market_path, newline="") as f:
            for r in csv.DictReader(f):
                if r["date"] not in seen and r["hhi_volume"]:
                    seen.add(r["date"])
                    dates.append(r["date"])
                    hhis.append(float(r["hhi_volume"]))
        if dates:
            fig, ax = plt.subplots(figsize=(8, 4))
            ax.plot(range(len(dates)), hhis)
            ax.set_xlabel("day index")
            ax.set_ylabel("volume HHI")
            ax.set_ylim(0, 1)
            fig.savefig(ws.out_dir / "hhi.svg")
            plt.close(fig)

    integ_path = ws.out_dir / "integration.csv"
    if integ_path.exists():
        cells: dict[tuple[str, str], float] = {}
        with open(integ_path, newline="") as f:
            for r in csv.DictReader(f):
                cells[(r["searcher_label"], r["builder_label"])] = float(r["volume_fraction"])
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
        if args.command == "synth":
            cfg = synth.SynthConfig.from_json(args.config)
            synth.generate(cfg, args.out_dir)
            return EXIT_OK
        if args.command == "score":
            with open(args.truth) as f:
                truth = json.load(f)
            report = synth.score(truth, args.out_dir)
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
    except FileNotFoundError as exc:
        _error("io", str(exc))
        return EXIT_IO
    except OSError as exc:
        _error("io", str(exc))
        return EXIT_IO
    except PipelineError as exc:
        _error(type(exc).__name__, str(exc))
        return EXIT_VALIDATION
    except (ValueError, KeyError) as exc:
        _error(type(exc).__name__, str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
