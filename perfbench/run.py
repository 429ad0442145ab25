"""Layered benchmark for sharpcert: the certify and verify workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root.  The runner is the single client: it draws a
round of operations from the seed and runs its sessions one after another,
each in a fresh measured process (``worker.py``) with ``PYTHONPATH=src``,
never more than one at a time.  At least three rounds run, and more while
another fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one round
untraced and then the same round with every layer wrapped (``layers.py``), and
reports per-layer counts and self-time shares.  Each run writes its full record
under ``.bench_build/perfbench/runs``; the last line of stdout is the result
JSON.  See README.md in this directory for what each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170  # the whole run, helpers included, ends before this
# A fixed floor on rounds: if the round count depended on how fast the first
# round happened to run, slow first rounds would be reported alone and fast
# ones averaged with a second, widening the spread between runs.
MIN_ROUNDS = 3

SHARE_LAYERS = ("cli", "scheme.compute", "scheme.ladder", "scheme.verify", "scheme.json",
                "specfun.delta_eigen", "specfun.funk_hecke", "specfun.gegenbauer",
                "kernels.kernel_poly", "kernels.moment", "polys.nonneg", "polys.min_shift",
                "scalars.decimal")
CALL_LAYERS = ("specfun.delta_eigen", "specfun.funk_hecke", "kernels.kernel_poly",
               "kernels.moment", "polys.nonneg")


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("SHARPCERT_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.tmp = WORK / "tmp"
        self.sessions_run = 0

    def _timeout(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1:
            raise BenchError("out of time")
        return left

    def helper(self, code: str) -> str:
        """Run a short untimed Python snippet against the package; returns stdout."""
        proc = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=self._timeout())
        if proc.returncode != 0:
            raise BenchError(f"helper failed: {proc.stderr.strip()[-2000:]}")
        return proc.stdout.strip()

    def session(self, ops, traced: bool = False) -> dict:
        """One measured process running ``ops`` in order."""
        self.sessions_run += 1
        tag = f"{self.workload}-s{self.sessions_run}"
        session_path, result_path = self.tmp / f"{tag}.ops.json", self.tmp / f"{tag}.result.json"
        spans_path = WORK / "spans" / f"{self.workload}-seed{self.seed}-{tag}.json" if traced else "-"
        session_path.write_text(json.dumps(ops))
        result_path.unlink(missing_ok=True)
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(session_path), str(result_path),
             repr(spawn), str(spans_path)],
            env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=self._timeout(),
        )
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"measured process failed: {proc.stderr.strip()[-2000:]}")
        return json.loads(result_path.read_text())

    # -- inputs ---------------------------------------------------------------

    def valid_certs(self, dims):
        """Pinned certificates for ``dims``, made by a separate process when missing."""
        cert_dir = WORK / "certs"
        cert_dir.mkdir(parents=True, exist_ok=True)
        paths = {d: cert_dir / f"d{d}.json" for d in dims}

        def pinned(d):
            return workloads.cert_digest(paths[d]) == workloads.PINS[str(d)]

        missing = [d for d in dims if not pinned(d)]
        if missing:
            self.session([{"argv": ["certify", "-d", str(d), "--out", str(paths[d])]} for d in missing])
        return paths, {d for d in dims if not pinned(d)}

    def make_round(self, rng, index: int):
        outdir = WORK / "out" / f"{self.workload}-r{index}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        if self.workload == "certify":
            return workloads.certify_sessions(rng, outdir)
        plan = workloads.verify_plan(rng)
        paths, unpinned = self.valid_certs(sorted({d for d, _ in plan}))
        sessions = workloads.verify_sessions(plan, paths, rng, outdir)
        for (op,) in sessions:
            op["unpinned"] = op["d"] in unpinned
        return sessions

    # -- execution ------------------------------------------------------------

    def run_round(self, sessions, traced: bool = False) -> dict:
        ops, setups, rss, traces = [], [], [], []
        for session in sessions:
            res = self.session(session, traced)
            setups.append(res["setup_s"])
            rss.append(res["maxrss_mb"])
            if traced:
                traces.append(res["trace"])
            for op, r in zip(session, res["ops"]):
                ok, gap = workloads.check(op, r)
                ok = ok and not op.get("unpinned", False)
                ops.append({**{k: v for k, v in op.items() if k not in ("argv", "out")},
                            "rc": r["rc"], "seconds": r["seconds"], "ok": ok, "gap": gap})
                if not ok:
                    ops[-1]["stderr_tail"] = r["stderr"][-500:]
        return {"ops": ops, "setup_s": setups, "maxrss_mb": rss, "traces": traces,
                "wall_s": sum(op["seconds"] for op in ops)}


def _cert_stats(paths):
    """Largest numerator bit length and tail depth over certificate files."""
    bits = depth = 0

    def walk(x):
        nonlocal bits
        if isinstance(x, dict):
            if isinstance(x.get("rational"), str):
                bits = max(bits, abs(int(x["rational"].split("/")[0])).bit_length())
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    for p in paths:
        with open(p) as fh:
            cert = json.load(fh)
        walk(cert)
        depth = max(depth, int(cert.get("tail_check_depth", 0)))
    return bits, depth


def layer_metrics(untraced: dict, traced: dict, cert_paths) -> dict:
    calls, self_s, counts = {}, {}, {}
    root_s, sturm_max = 0.0, 0
    for t in traced["traces"]:
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
        root_s += t["root_s"]
        sturm_max = max(sturm_max, t["sturm_chain_len_max"])
    wall = traced["wall_s"]
    requests = counts.get("eigen_table.requests", 0)
    max_bits, tail_depth = _cert_stats(cert_paths)
    m = {}
    for name in CALL_LAYERS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SHARE_LAYERS:
        m[f"{name}.self_pct"] = (100 * self_s.get(name, 0.0) / wall, "%")
    m.update({
        "polys.sturm.calls": (counts.get("sturm.calls", 0), "count"),
        "polys.sturm.chain_len_max": (sturm_max, "count"),
        "scheme.eigen_table.requests": (requests, "count"),
        "scheme.eigen_table.hit_ratio": (counts.get("eigen_table.hits", 0) / requests if requests else 0.0, "frac"),
        "scalars.gamma.calls": (counts.get("gamma.calls", 0), "count"),
        "scalars.exact_scalar.created": (counts.get("exact_scalar.created", 0), "count"),
        "backend.rat.calls": (counts.get("rat.calls", 0), "count"),
        "scheme.cert.max_num_bits": (max_bits, "count"),
        "scheme.cert.tail_depth": (tail_depth, "count"),
        "scheme.verify.gap_accepted": (sum(op["gap"] for op in traced["ops"]), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (wall - root_s, "s"),
        "trace.overhead_frac": (wall / untraced["wall_s"] - 1, "frac"),
    })
    return m


def environment(runner: Runner) -> dict:
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(str(p.relative_to(SRC)).encode())
        digest.update(p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "backend": runner.helper("import sharpcert; print(sharpcert.BACKEND)"),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("certify", "verify"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sharpcert" / "__init__.py").exists():
        print(f"error: no sharpcert source under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    shutil.rmtree(runner.tmp, ignore_errors=True)
    runner.tmp.mkdir(parents=True)
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    try:
        env = environment(runner)  # also compiles the package once before timing
        rng = random.Random(f"{args.workload}:{args.seed}")
        rounds, metrics = [], {}
        if args.trace:
            sessions = runner.make_round(rng, 0)
            rounds = [runner.run_round(sessions), runner.run_round(sessions, traced=True)]
            if args.workload == "certify":
                certs = [op["out"] for (op,) in sessions]
            else:
                certs = [op["argv"][1] for (op,) in sessions if op["edit"] is None]
            metrics = layer_metrics(rounds[0], rounds[1], certs)
        else:
            while True:
                start = time.monotonic()
                rounds.append(runner.run_round(runner.make_round(rng, len(rounds))))
                took = time.monotonic() - start
                if len(rounds) >= MIN_ROUNDS and time.monotonic() - runner.started + took > args.seconds:
                    break
            metrics = {
                "setup_s": (statistics.median(s for r in rounds for s in r["setup_s"]), "s"),
                "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
                "peak_rss_mb": (statistics.median(max(r["maxrss_mb"]) for r in rounds), "MB"),
            }
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    op_ms = sorted(1000 * op["seconds"] for op in ops)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **env, "rounds": len(rounds),
        "attempted": len(ops), "failed": failed,
        "gaps_accepted": sum(op["gap"] for op in ops),
        "op_ms": {"n": len(op_ms), "p50": statistics.median(op_ms),
                  "p90": statistics.quantiles(op_ms, n=10)[8] if len(op_ms) >= 10 else None},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": ops,
    }
    record_path = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} ops={len(ops)} "
          f"failed={failed} gaps_accepted={record['gaps_accepted']} backend={env['backend']} "
          f"python={env['python']} nproc={env['nproc']} commit={env['commit']} "
          f"source_sha256={env['source_sha256'][:16]}")
    print(f"per-op latency: n={record['op_ms']['n']} p50={record['op_ms']['p50']:.1f} ms "
          f"p90={record['op_ms']['p90']} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
