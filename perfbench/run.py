#!/usr/bin/env python3
"""Benchmark of the local and Spark fair-biclique pipelines.

Each workload is a closed loop with one client: one full pipeline query at
the Table I default parameters, repeated until ``--seconds`` of query time
have been measured. The program is called only through its public
functions, and every result set is checked from the definitions
(``checks.py``) outside the timed window.

    python3 perfbench/run.py --workload bsfbc-imdb --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``layers.py``). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The graph is the Table I dataset generated with ``--graph-seed`` (default:
the dataset's Table I seed) with its vertex ids permuted by ``--seed``. The
permuted graph is isomorphic to the Table I one, so every seed asks for the
same amount of work while the program still sees fresh inputs; a different
generator seed changes the result count by a factor of up to 2.7 (75,315
BSFBCs at seed 33, 28,059 at seed 34).
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before the heavy imports

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")


@dataclass(frozen=True)
class Workload:
    dataset: str
    model: str  # "ssfbc" or "bsfbc"
    spark: bool


# Why each workload exists is in README.md.
WORKLOADS = {
    "bsfbc-imdb": Workload("imdb-lite", "bsfbc", spark=False),
    "ssfbc-imdb": Workload("imdb-lite", "ssfbc", spark=False),
    "ssfbc-dblp": Workload("dblp-lite", "ssfbc", spark=False),
    "spark-bsfbc-imdb": Workload("imdb-lite", "bsfbc", spark=True),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0, help="vertex-id permutation seed")
    ap.add_argument("--graph-seed", type=int, default=None,
                    help="generator seed (default: the dataset's Table I seed)")
    ap.add_argument("--seconds", type=float, default=8.0, help="query time to measure")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# One pass of the reference work takes about this long on the host the
# reference figures in README.md were measured on; timings are rescaled to it.
REF_WORK_S = 0.25
REF_WORK_ITERS = 1_800_000


def reference_work(cg) -> float:
    """Seconds taken by one pass of fixed pure-Python work.

    The pass is an integer loop plus, for every edge ``(u, v)`` of the
    benchmark's own graph copy and every ``v2 > v`` in ``N(u)``,
    ``|N(v) ∩ N(v2)|``; each half takes ~0.12 s on a quiet host. It is the
    benchmark's code, so only the host's speed moves its time; permuting
    the vertex ids leaves the work the same. In the host's slow phases the
    loop alone slowed less than the queries and the set work alone more
    (README.md, *Noise*), so the pass holds both. The garbage collector is
    off while it runs, so the heap the program left behind adds no
    collections.
    """
    adj_u, adj_v, u_val = cg.adj_u, cg.adj_v, cg.u_val
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc = 0
        for i in range(REF_WORK_ITERS):
            acc += i * i % 7
        for v, nu in adj_v.items():
            for u in nu:
                x = u_val[u]
                for v2 in adj_u[u]:
                    if v2 > v:
                        acc += len(nu & adj_v[v2]) + x
        return time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()


def normalised(seconds: float, ref_work_s: float) -> float:
    """``seconds`` rescaled to a host on which the reference work takes REF_WORK_S."""
    return seconds * REF_WORK_S / ref_work_s


# --------------------------------------------------------------------- inputs
def make_graph(spec, graph_seed: int, seed: int, tr):
    """The Table I graph from ``graph_seed``, vertex ids permuted by ``seed``.

    Returns the program's ``BipartiteGraph`` and the checker's own copy,
    both built from the same edge list.
    """
    from repro.graph.bipartite import BipartiteGraph
    from repro.graph.generators import planted_bipartite

    import checks

    with span(tr, "graph.generate"):
        base = planted_bipartite(spec, seed=graph_seed)
        rng = random.Random(seed)
        mu = dict(zip(sorted(base.adj_u), rng.sample(range(len(base.adj_u)), len(base.adj_u))))
        mv = dict(zip(sorted(base.adj_v), rng.sample(range(len(base.adj_v)), len(base.adj_v))))
        edges = sorted((mu[u], mv[v]) for u, nbrs in base.adj_u.items() for v in nbrs)
        u_val = dict(sorted((mu[u], x) for u, x in base.u_val.items()))
        v_val = dict(sorted((mv[v], x) for v, x in base.v_val.items()))
        g = BipartiteGraph.from_edges(
            edges, u_val, v_val, attrs_u=base.attrs_u, attrs_v=base.attrs_v
        )
    return g, checks.Graph.from_edges(edges, u_val, v_val, base.attrs_u, base.attrs_v)


def span(tr, name):
    return tr.span(name) if tr is not None else nullcontext()


# ---------------------------------------------------------------------- spark
def spark_conf(nproc: int) -> dict[str, str]:
    """``jobs/enumerate_distributed.py``'s conf plus deployment-only settings."""
    return {
        "spark.app.name": "repro-enumerate",
        "spark.master": f"local[{nproc}]",
        "spark.driver.host": "127.0.0.1",
        "spark.driver.memory": "2g",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": os.path.join(WORK, "spark-local"),
        # -XX:-UsePerfData keeps the JVM from writing /tmp/hsperfdata_*.
        "spark.driver.extraJavaOptions":
            f"-XX:-UsePerfData -Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
    }


def start_spark(conf: dict[str, str]):
    from pyspark.sql import SparkSession

    builder = SparkSession.builder
    for k, v in conf.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it to exit.

    The JVM quits when its stdin closes; without this it would outlive the
    benchmark's process by a moment instead of ending before it.
    """
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()
        gateway.proc.wait(timeout=60)


# -------------------------------------------------------------------- queries
def query(w: Workload, g, a: int, b: int, d: int, spark, tr):
    """One full pipeline call; returns (results, pruned graph)."""
    from repro.core.bsfbc import search_bsfbc
    from repro.core.cfcore import bcfcore, bcfcore_spark, cfcore
    from repro.core.distributed import enumerate_df
    from repro.core.ssfbc import search_ssfbc

    if w.spark:
        group = f"perfbench-q{tr.qid}" if tr is not None else None
        if group:
            spark.sparkContext.setJobGroup(group, group)
        with span(tr, "spark.prune"):
            gp = bcfcore_spark(spark, g, a, b)
        with span(tr, "fanout"):
            rows = enumerate_df(spark, gp, a, b, d, model="bsfbc").collect()
            res = [(frozenset(r.l), frozenset(r.r)) for r in rows]
        if group:
            tr.count("spark.jobs", len(spark.sparkContext.statusTracker().getJobIdsForGroup(group)))
        return res, gp
    with span(tr, "prune"):
        gp = (bcfcore if w.model == "bsfbc" else cfcore)(g, a, b)
    if tr is not None:
        tr.count("prune.vertices_kept", gp.n_u + gp.n_v)
        tr.count("prune.edges_kept", gp.n_edges)
    if w.model == "bsfbc":
        return search_bsfbc(gp, a, b, d), gp
    with span(tr, "search"):
        res = search_ssfbc(gp, a, b, d)
    if tr is not None:
        tr.count("search.results", len(res))
    return res, gp


@dataclass
class Reference:
    """The first result set of a run, checked, and what later ones must equal."""

    digest: tuple[int, int]
    pruned: object
    errors: list[str]


def establish_reference(w, cg, res, gp, a, b, d) -> Reference:
    import checks

    checker = checks.Checker(cg, w.model, a, b, d)
    errors = checker.check(res)
    errors += [f"self-test: mutation not rejected: {m}"
               for m in checks.self_test(checker, res)]
    return Reference(checks.digest(res), gp, errors)


def cross_check(w, g, ref: Reference, a, b, d) -> list[str]:
    """Compare the reference with a second computation of the same answer.

    Local workloads: the program's other search algorithm (FairBCEM,
    Alg. 5). Spark: the local pruning (its vertex sets) and local search.

    BSFBCs are ``Combination`` expansions of SSFBCs, one SSFBC at a time,
    and both algorithms share that expansion; so BFairBCEM gives the BSFBC
    set of BFairBCEM++ whenever their SSFBC sets agree, and only the SSFBC
    sets are compared.
    """
    import checks
    from repro.core.bsfbc import search_bsfbc
    from repro.core.cfcore import bcfcore
    from repro.core.ssfbc import search_ssfbc

    errors = []
    if w.spark:
        gl = bcfcore(g, a, b)
        if (set(gl.adj_u), set(gl.adj_v)) != (set(ref.pruned.adj_u), set(ref.pruned.adj_v)):
            errors.append("bcfcore_spark and bcfcore keep different vertices")
        got, want = checks.digest(search_bsfbc(gl, a, b, d)), ref.digest
        what = "local bcfcore -> search_bsfbc"
    else:
        got = checks.digest(search_ssfbc(ref.pruned, a, b, d, algorithm="bcem"))
        want = ref.digest if w.model == "ssfbc" else checks.digest(search_ssfbc(ref.pruned, a, b, d))
        what = "algorithm='bcem'"
    if got != want:
        errors.append(f"{what} gives {got[0]} results where {want[0]} were expected")
    return errors


def closed_loop(w, g, cg, params, spark, tr, seconds, ref, errors, work_s):
    """Run queries until ``seconds`` of query time are measured.

    The reference work is timed after every query; ``work_s`` is its time
    before the first one. Returns (samples, attempted, failed, reference,
    last reference-work time), where a sample of a passing query is its
    seconds and the mean reference-work time just before and after it.
    A query fails if it raises or its result set differs from the reference;
    the second is a check failure and is added to ``errors``.
    """
    import checks

    samples, attempted, failed, elapsed = [], 0, 0, 0.0
    while attempted == 0 or elapsed < seconds:
        if tr is not None:
            tr.qid = attempted + 1
        t = time.perf_counter()
        try:
            with span(tr, "query"):
                res, gp = query(w, g, *params, spark, tr)
        except Exception:  # a failing query is counted, and the loop goes on
            traceback.print_exc()
            res = gp = None
        dt = time.perf_counter() - t
        attempted += 1
        elapsed += dt
        passed = res is not None
        if passed:
            if ref is None:
                ref = establish_reference(w, cg, res, gp, *params)
            if checks.digest(res) != ref.digest:
                errors.append(f"query {attempted}: result set differs from the first one")
                passed = False
        del res, gp
        before, work_s = work_s, reference_work(cg)
        if passed:
            samples.append((dt, (before + work_s) / 2))
        else:
            failed += 1
    return samples, attempted, failed, ref, work_s


# ------------------------------------------------------------------ reporting
def source_id() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, _, sha = out.stdout.strip().partition("\n")
        if out.returncode == 0 and os.path.samefile(top, ROOT):
            return sha
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for dirpath, _dirs, files in sorted(os.walk(SRC)):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    h.update(fh.read())
    return "no git checkout; sha256 of src/**/*.py " + h.hexdigest()[:16]


def setup_samples(args, n: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference-work seconds) of ``n`` fresh interpreters
    doing the same imports and generation."""
    out = []
    for _ in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.graph_seed is not None:
            cmd += ["--graph-seed", str(args.graph_seed)]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if p.returncode != 0:
            fail(f"set-up child failed:\n{p.stderr}")
        child = json.loads(p.stdout.strip().splitlines()[-1])
        out.append((child["setup_s"], child["ref_work_s"]))
    return out


def run_all(args) -> None:
    """Run every workload in its own process and print one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.graph_seed is not None:
            cmd += ["--graph-seed", str(args.graph_seed)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = p.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if p.returncode != 0 or not lines:
            fail(f"workload {name} exited with {p.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    print(json.dumps(total))


def main(argv=None) -> None:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"no program to measure: {SRC}/repro is missing")
    if args.workload == "all":
        run_all(args)
        return
    w = WORKLOADS[args.workload]
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    # Spark's Python workers import repro too; they only see the environment.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # spark-submit's own JVM
    sys.path.insert(0, SRC)

    tr = None
    if args.trace:
        import layers
        from tracer import Tracer

        tr = Tracer()
        layers.install(tr)

    from repro.experiments.datasets import DATASETS

    ds = DATASETS[w.dataset]
    graph_seed = ds.seed if args.graph_seed is None else args.graph_seed
    a, b = (ds.alpha_b, ds.beta_b) if w.model == "bsfbc" else (ds.alpha_s, ds.beta_s)
    params = (a, b, ds.delta)
    g, cg = make_graph(ds.spec, graph_seed, args.seed, tr)
    setup_s = time.perf_counter() - T0
    work_s = reference_work(cg)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "ref_work_s": work_s}))
        return

    nproc = os.cpu_count() or 1
    spark, conf, ref = None, {}, None
    errors: list[str] = []
    try:
        if w.spark:
            conf = spark_conf(min(nproc, 2))
            t = time.perf_counter()
            spark = start_spark(conf)
            # The warm-up query is part of set-up (a user pays it on every job);
            # its result is the reference the timed queries must equal.
            res, gp = query(w, g, *params, spark, tr)
            setup_s += time.perf_counter() - t
            ref = establish_reference(w, cg, res, gp, *params)
            del res, gp
            before, work_s = work_s, reference_work(cg)
            setup = [(setup_s, (before + work_s) / 2)]
        else:
            setup = [(setup_s, work_s)]
        if tr is None:
            samples, attempted, failed, ref, work_s = closed_loop(
                w, g, cg, params, spark, None, args.seconds, ref, errors, work_s)
        else:
            samples, attempted, failed, ref, work_s = closed_loop(
                w, g, cg, params, spark, tr, args.seconds / 2, ref, errors, work_s)
            tr.uninstall()
            plain, att2, fail2, ref, work_s = closed_loop(
                w, g, cg, params, spark, None, args.seconds / 2, ref, errors, work_s)
            traced_samples, n_traced = samples, attempted
            attempted, failed = attempted + att2, failed + fail2
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ref_errors = ref.errors + cross_check(w, g, ref, *params) if ref else ["every query raised"]
    finally:
        if spark is not None:
            stop_spark(spark)
    if ref_errors:
        failed = attempted  # every query raised or returned the faulty reference set
    errors += ref_errors
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    if tr is None and not w.spark:
        setup += setup_samples(args, 2)

    print(f"workload {args.workload}: {w.dataset} {w.model} alpha={a} beta={b} "
          f"delta={ds.delta}, graph seed {graph_seed}, id permutation seed {args.seed}, "
          f"|U|={g.n_u} |V|={g.n_v} |E|={g.n_edges}")
    print(f"nproc {nproc}; source {source_id()}; python {platform.python_version()}; "
          f"pyspark {__import__('pyspark').__version__}")
    if conf:
        print("spark conf " + " ".join(f"{k}={v}" for k, v in conf.items()))
    if ref is not None:
        print(f"results per query: {ref.digest[0]}; checks: "
              f"{'passed' if not errors else 'FAILED'}")
    print(f"queries attempted {attempted}, failed {failed}")

    if tr is None:
        pairs = samples or [(0.0, REF_WORK_S)]
        norm = [normalised(q, k) for q, k in pairs]
        print(f"as measured: query_p50 {statistics.median(q for q, _ in pairs):.4f} s, "
              f"set-up {statistics.median(s for s, _ in setup):.4f} s, reference work "
              f"{statistics.median(k for _, k in pairs):.4f} s (n={len(samples)}); "
              f"normalised to reference work of {REF_WORK_S} s below")
        metrics = {
            "setup_s": (statistics.median(normalised(s, k) for s, k in setup), "s", len(setup)),
            "query_p50_norm_s": (statistics.median(norm), "s", len(samples)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
        if len(samples) >= 100:
            p90 = statistics.quantiles(norm, n=10)[-1]
            print(f"query_p90_norm_s = {p90:.4f} s (n={len(samples)})")
    else:
        metrics = per_layer_metrics(tr, [q for q, _ in traced_samples],
                                    [q for q, _ in plain], n_traced)
        path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl")
        tr.dump(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        for missing in tr.missing:
            print(f"missing span: {missing} no longer exists; its metrics read 0")
    for k, (v, unit, n) in metrics.items():
        print(f"{k} = {v:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _n) in metrics.items()},
    }))


def per_layer_metrics(tr, traced, plain, n_traced):
    """Median over the traced queries of each per-layer figure: (value, unit, samples)."""
    import layers

    per_q = [layers.query_metrics(tr, q) for q in range(1, n_traced + 1)]
    out = {k: (statistics.median(m[k] for m in per_q), len(per_q)) for k in per_q[0]}
    out["graph.generate_s"] = (tr.total(0, "graph.generate"), 1)
    overhead = statistics.median(traced) - statistics.median(plain) if traced and plain else 0.0
    out["trace.overhead_s"] = (overhead, len(traced) + len(plain))
    out["trace.missing_spans"] = (len(tr.missing), 1)
    return {k: (*out[k][:1], unit, out[k][1]) for k, unit in layers.UNITS.items()}


if __name__ == "__main__":
    main()
