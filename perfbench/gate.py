"""Correctness gate applied to every measured pipeline run.

Each check is one operation: the recovery checks against the corpus's
ground truth (via ``cexdex.synth.score``) and byte-identity of the outputs
against a reference digest set. No digest is pinned in the benchmark: the
reference is the ``cexdex all`` output of the same source tree on the same
corpus, so an intended format change (of ``markouts.csv``, say) passes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every CSV output and of manifest.json."""
    out = {}
    for p in sorted(out_dir.glob("*.csv")) + [out_dir / "manifest.json"]:
        if p.exists():
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def score_checks(truth: dict, out_dir: Path) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for each recovery check of synth.score."""
    from cexdex.errors import MissingOutputs
    from cexdex.synth import score

    names = ("t_star_exact", "pattern_diagonal", "trades_compared",
             "bp_exact", "ev_rel_error")
    try:
        report = score(truth, out_dir)
    except MissingOutputs as exc:
        return [(n, False, f"missing output {exc}") for n in names]
    confusion = report["pattern_confusion"]
    trades, blocks = report["trades"], report["blocks"]
    n_searchers = len(truth["searchers"])
    max_ev = trades["max_ev_rel_error"]
    return [
        ("t_star_exact", report["max_t_star_error_s"] == 0,
         f"max_t_star_error_s={report['max_t_star_error_s']}"),
        ("pattern_diagonal",
         all(k.split("->")[0] == k.split("->")[1] for k in confusion)
         and sum(confusion.values()) == n_searchers,
         f"pattern_confusion={confusion}"),
        ("trades_compared", trades["n_compared"] == trades["n_truth"],
         f"n_compared={trades['n_compared']} n_truth={trades['n_truth']}"),
        ("bp_exact", blocks["bp_exact_matches"] == blocks["n_truth"],
         f"bp_exact_matches={blocks['bp_exact_matches']} n_truth={blocks['n_truth']}"),
        ("ev_rel_error", max_ev is not None and max_ev < 1e-9,
         f"max_ev_rel_error={max_ev}"),
    ]


def digest_check(name: str, got: dict, expected: dict) -> tuple[str, bool, str]:
    differ = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
    return (name, not differ, f"differing files: {differ}" if differ else "identical")
