"""Record the reference values the checks compare against.

    python3 perfbench/record_reference.py [fig4|sweeps|boundaries ...]

Run this only on a commit whose outputs are known to be right: it
overwrites ``reference/*.json`` with whatever the current sources
compute.  Generated operations are recorded for the default seed and the
default ``--seconds`` of ``run.py``; each must already pass the oracle
checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import checks
import worker
import workloads

RECORD_SECONDS = 15  # run.py's default --seconds


def _sig(x: float) -> float:
    return float(f"{x:.13g}")


def record_fig4(nff) -> dict:
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = nff.cli.main(worker.FIG4_ARGV + [tmp])
        if code != 0:
            raise SystemExit(f"reproduce exited with {code}")
        out = {}
        grid = checks.sweep_grid()
        for path in sorted(Path(tmp).glob("*.csv")):
            header, rows = checks.read_table(path)
            if header == ["r_lambda", "epsilon"]:
                r = [float(row[0]) for row in rows]
                dropped = [i for i, g in enumerate(grid) if not any(abs(g - x) <= 1e-12 * g for x in r)]
                out[path.name] = {"dropped": dropped, "epsilon": [_sig(float(row[1])) for row in rows]}
            else:
                out[path.name] = {"rows": [
                    [k, th, st, None if v == "" else float(v), int(c)] for k, th, st, v, c in rows
                ]}
    return out


def record_ops(nff, workload: str) -> dict:
    ops = workloads.generate(workload, checks.DEFAULT_SEED, RECORD_SECONDS)
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
        job = (worker.SweepJob if workload == "sweeps" else worker.SearchJob)(nff, Path(tmp))
        outputs, errors, _, _ = worker.run_ops(ops, job)
    failed = worker.check_ops(ops, outputs, errors, job.check, None)
    if failed:
        raise SystemExit(f"{workload}: outputs fail the oracle checks: {failed}")
    if workload == "sweeps":
        return {str(op["i"]): [_sig(x) for x in out[1][:: checks.SAMPLE_STRIDE]]
                for op, out in zip(ops, outputs)}
    return {str(op["i"]): out for op, out in zip(ops, outputs)}


def main(argv: list[str]) -> int:
    nff, _ = worker._import_nff()
    for workload in argv or ["fig4", "sweeps", "boundaries"]:
        data = record_fig4(nff) if workload == "fig4" else record_ops(nff, workload)
        checks.REFERENCE_DIR.mkdir(exist_ok=True)
        path = checks.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {len(data)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
