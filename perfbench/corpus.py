"""Corpus shapes, generation and the on-disk corpus cache.

A corpus is made by ``cexdex.synth.generate`` from a shape and a seed and
is cached under ``.bench_work/corpus/<shape>-s<seed>/``. Generation runs in
its own process (``python3 perfbench/corpus.py <shape> <seed> <dir>``), so
no measured process ever generates.

Run directly to generate one corpus:
    PYTHONPATH=src python3 perfbench/corpus.py sparse 1 /tmp/corpus
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# The searcher set of the pipeline benchmark: two gentle decays, one abrupt
# decay integrated with builderA (the searcher the builder stage joins on),
# and one flat searcher that estimate drops as Pattern 3.
SEARCHERS = (
    ("s_gentle_1s", "gentle", 1.0),
    ("s_abrupt_05s", "abrupt", 0.5),
    ("s_gentle_2s", "gentle", 2.0),
    ("s_flat", "none", None),
)
INTEGRATED_WITH = {"s_abrupt_05s": "builderA"}

# shape -> (n_days, trades per searcher per day, base_volatility)
SHAPES = {
    # few days, many trades a day: one block per trade, so builder's
    # per-block scan over the economics rows grows with trades squared
    "dense": (4, 400, 5e-4),
    # a long calendar with few trades a day: market's pair series re-scans
    # a searcher's trades once per date, so it grows with days squared
    "sparse": (48, 20, 5e-4),
    # the smoke test's corpus; noiseless, because with 10 trades a searcher
    # price noise can make the flat searcher's median curve peak
    "tiny": (2, 5, 0.0),
    # the doubling report's pair, both of the dense shape
    "dense10k": (4, 625, 5e-4),
    "dense20k": (4, 1250, 5e-4),
}

INPUT_FILES = ("transactions.csv", "quotes.csv", "tokens.csv", "blocks.csv",
               "searchers.json", "config.json")
# Most recently used corpora kept in the cache (about 0.4 GB at most): enough
# that the two sparse workloads share each seed's corpus and reference digests
# when one workload's runs all come before the other's.
KEEP_CORPORA = 24


def synth_config(shape: str, seed: int):
    from cexdex.synth import SearcherSpec, SynthConfig

    n_days, per_day, volatility = SHAPES[shape]
    return SynthConfig(
        seed=seed,
        n_days=n_days,
        searchers=tuple(
            SearcherSpec(label, decay, per_day, true_hedge_delay_s=delay)
            for label, decay, delay in SEARCHERS
        ),
        integrated_with=dict(INTEGRATED_WITH),
        base_volatility=volatility,
    )


def rows_and_bytes(path: Path) -> tuple[int | None, int]:
    """(data rows, bytes) of a file; rows only for a CSV (header excluded)."""
    rows = None
    if path.suffix == ".csv":
        with open(path, "rb") as f:
            rows = max(sum(1 for _ in f) - 1, 0)
    return rows, path.stat().st_size


def ensure(root: Path, shape: str, seed: int, env: dict) -> Path:
    """Return the cached corpus directory, generating it first if absent."""
    cache = root / ".bench_work" / "corpus"
    target = cache / f"{shape}-s{seed}"
    if not (target / "stats.json").exists():
        tmp = cache / f".tmp-{shape}-s{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), shape, str(seed), str(tmp)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        n_days, per_day, volatility = SHAPES[shape]
        stats = {"shape": shape, "seed": seed, "n_days": n_days,
                 "trades_per_searcher_day": per_day, "base_volatility": volatility,
                 "n_searchers": len(SEARCHERS),
                 "inputs": {name: dict(zip(("rows", "bytes"), rows_and_bytes(tmp / name)))
                            for name in INPUT_FILES}}
        (tmp / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True))
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    os.utime(target)
    _evict(cache, keep=target)
    return target


def _evict(cache: Path, keep: Path) -> None:
    corpora = sorted(
        (p for p in cache.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime, reverse=True,
    )
    for p in corpora[KEEP_CORPORA:]:
        if p != keep:
            shutil.rmtree(p, ignore_errors=True)


if __name__ == "__main__":
    from cexdex.synth import generate

    shape_arg, seed_arg, out_arg = sys.argv[1:4]
    generate(synth_config(shape_arg, int(seed_arg)), out_arg)
