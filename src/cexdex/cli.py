"""Command line entry point.

Exit codes: 0 success, 1 validation/data errors, 2 I/O errors. Errors are
printed to stderr as a single JSON object so callers can parse them; any
other exception is a program fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

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
        return EXIT_OK
    except OSError as exc:  # FileNotFoundError included
        _error("io", str(exc))
        return EXIT_IO
    except PipelineError as exc:
        _error(type(exc).__name__, str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
