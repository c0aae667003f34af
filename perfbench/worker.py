"""One measured pipeline process.

    python3 perfbench/worker.py <command> <input_dir> <out_dir> [<trace_json>]

The process imports ``cexdex.cli`` and builds a ``Workspace``, then runs
<command>: ``setup`` (nothing more), ``all`` or one stage name, through
``cexdex.cli.main`` as the ``cexdex`` command runs it. With <trace_json>,
cexdex is patched by ``spans.install`` and the spans are written there at
the end. The last stdout line is JSON: exit code, import time, the
``perf_counter`` readings when set-up was done and when the command
started (the clock is shared by all processes), and wall and CPU time of
the command.
"""

import json
import resource
import sys
import time

t0 = time.perf_counter()
from cexdex import cli, pipeline  # noqa: E402

import_s = time.perf_counter() - t0


def cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main(argv: list[str]) -> int:
    command, input_dir, out_dir = argv[:3]
    trace_path = argv[3] if len(argv) > 3 else None
    pipeline.Workspace(input_dir, out_dir)
    ready_at = time.perf_counter()
    tracer = None
    if trace_path:
        import spans

        tracer = spans.install()
    c0, w0 = cpu_s(), time.perf_counter()
    rc = 0
    if command != "setup":
        rc = cli.main([command, "--input-dir", input_dir, "--out-dir", out_dir])
    wall = time.perf_counter() - w0
    cpu = cpu_s() - c0
    if tracer is not None:
        tracer.dump(trace_path)
    print(json.dumps({
        "rc": rc, "import_s": import_s, "ready_at": ready_at,
        "start_at": w0, "wall_s": wall, "cpu_s": cpu,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
