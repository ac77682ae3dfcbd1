"""Where each layer of the program is wrapped, and the per-layer metrics.

Layers are the repository's modules:

- ``graph``: ``repro.graph.generators`` and ``repro.graph.bipartite``
- ``prune``: ``repro.core.fcore``, ``twohop``, ``coloring`` and the local
  ``cfcore``/``bcfcore``
- ``search``: ``repro.core.ssfbc``
- ``expand``: ``repro.core.bsfbc`` with ``repro.core.fairset``
- ``spark``: ``repro.core.fcore_df``, the DataFrame 2-hop functions and the
  ``*_spark`` drivers in ``repro.core.cfcore``
- ``fanout``: ``repro.core.distributed``

Each wrapped name is the one the caller looks up: ``cfcore`` imported
``fcore`` and ``two_hop`` by name, so the pruning pipeline is traced through
``repro.core.cfcore.fcore`` and ``repro.core.cfcore.two_hop``, not through
their home modules.
"""
from __future__ import annotations

import importlib.util
import pickle
import statistics

from tracer import Tracer

# Spark 4 moved the concrete DataFrame to pyspark.sql.classic; a wrapper on
# the abstract parent would never be called.
_DF = (
    "pyspark.sql.classic.dataframe:DataFrame"
    if importlib.util.find_spec("pyspark.sql.classic") is not None
    else "pyspark.sql.dataframe:DataFrame"
)


def _twohop_edges(tr, adj, _args):
    tr.count("prune.twohop_edges", sum(len(s) for s in adj.values()) // 2)


def _length(counter):
    def hook(tr, out, _args):
        tr.count(counter, len(out))
    return hook


def _mfs_reject(tr, ok, _args):
    if not ok:
        tr.count("expand.mfs_check_rejects")


def _broadcast_bytes(tr, _out, args):
    tr.count("fanout.broadcast_bytes", len(pickle.dumps(args[1], pickle.HIGHEST_PROTOCOL)))


# (looked-up name, span, leaf, counter hook)
WRAPS = [
    ("repro.graph.bipartite:BipartiteGraph.induced", "induced", True, None),
    ("repro.graph.bipartite:BipartiteGraph.common_neighbors_of_us", "common_neighbors", True, None),
    ("repro.graph.bipartite:BipartiteGraph.common_neighbors_of_vs", "common_neighbors", True, None),
    ("repro.core.cfcore:fcore", "fcore", False, None),
    ("repro.core.cfcore:bfcore", "fcore", False, None),
    ("repro.core.cfcore:two_hop", "twohop", False, _twohop_edges),
    ("repro.core.cfcore:bi_two_hop", "twohop", False, _twohop_edges),
    ("repro.core.cfcore:greedy_color", "color", False, None),
    ("repro.core.cfcore:ego_colorful_core", "egocore", False, None),
    ("repro.core.ssfbc:combination", "search.combination", True,
     _length("search.combination_outputs")),
    ("repro.core.bsfbc:search_ssfbc", "search", False, _length("search.results")),
    ("repro.core.bsfbc:expand_to_bsfbc", "expand", False, _length("expand.results")),
    ("repro.core.bsfbc:combination", "expand.combination", True, _length("expand.upper_sets")),
    ("repro.core.bsfbc:mfs_check", "mfs_check", True, _mfs_reject),
    ("repro.core.cfcore:bfcore_edges", "bfcore_edges", False, None),
    (_DF + ".toPandas", "to_pandas", False, _length("spark.collect_rows")),
    ("pyspark.sql.session:SparkSession.createDataFrame", "create_df", False, None),
    ("pyspark.context:SparkContext.broadcast", "broadcast", False, _broadcast_bytes),
]


def install(tr: Tracer) -> None:
    for path, span, leaf, hook in WRAPS:
        tr.wrap(path, span, leaf=leaf, on_result=hook)
    tr.wrap_map_in_pandas(_DF + ".mapInPandas")


# name -> unit, in report order.
UNITS = {
    "graph.generate_s": "s",
    "graph.induced_calls": "count",
    "graph.induced_s": "s",
    "graph.common_neighbors_calls": "count",
    "graph.common_neighbors_s": "s",
    "prune.total_s": "s",
    "prune.fcore_s": "s",
    "prune.fcore_calls": "count",
    "prune.twohop_s": "s",
    "prune.twohop_edges": "count",
    "prune.color_s": "s",
    "prune.egocore_s": "s",
    "prune.vertices_kept": "count",
    "prune.edges_kept": "count",
    "search.total_s": "s",
    "search.self_s": "s",
    "search.results": "count",
    "search.combination_calls": "count",
    "search.combination_outputs": "count",
    "search.combination_s": "s",
    "expand.total_s": "s",
    "expand.self_s": "s",
    "expand.combination_calls": "count",
    "expand.combination_s": "s",
    "expand.upper_sets": "count",
    "expand.mfs_check_calls": "count",
    "expand.mfs_check_s": "s",
    "expand.mfs_check_rejects": "count",
    "expand.results": "count",
    "expand.accept_ratio": "ratio",
    "spark.prune_s": "s",
    "spark.bfcore_edges_calls": "count",
    "spark.bfcore_edges_s": "s",
    "spark.collect_calls": "count",
    "spark.collect_rows": "count",
    "spark.collect_s": "s",
    "spark.to_spark_calls": "count",
    "spark.to_spark_s": "s",
    "spark.local_egocore_s": "s",
    "spark.jobs": "count",
    "fanout.total_s": "s",
    "fanout.roots": "count",
    "fanout.tasks": "count",
    "fanout.task_p50_s": "s",
    "fanout.task_max_s": "s",
    "fanout.task_skew": "ratio",
    "fanout.broadcast_bytes": "B",
    "trace.overhead_s": "s",
    "trace.missing_spans": "count",
}


def query_metrics(tr: Tracer, q: int) -> dict[str, float]:
    """Per-layer figures of one traced query ``q``."""
    t, c, n = tr.total, tr.calls, (lambda name: tr.counters.get((q, name), 0))
    tasks = sorted(s for s, _roots in tr.tasks(q))
    task_p50 = statistics.median(tasks) if tasks else 0.0
    m = {
        "graph.induced_calls": c(q, "induced"),
        "graph.induced_s": t(q, "induced"),
        "graph.common_neighbors_calls": c(q, "common_neighbors"),
        "graph.common_neighbors_s": t(q, "common_neighbors"),
        "prune.total_s": t(q, "prune"),
        "prune.fcore_s": t(q, "fcore", "prune"),
        "prune.fcore_calls": c(q, "fcore", "prune"),
        "prune.twohop_s": t(q, "twohop", "prune"),
        "prune.twohop_edges": n("prune.twohop_edges"),
        "prune.color_s": t(q, "color", "prune"),
        "prune.egocore_s": t(q, "egocore", "prune"),
        "prune.vertices_kept": n("prune.vertices_kept"),
        "prune.edges_kept": n("prune.edges_kept"),
        "search.total_s": t(q, "search"),
        "search.self_s": tr.self_time(q, "search"),
        "search.results": n("search.results"),
        "search.combination_calls": c(q, "search.combination"),
        "search.combination_outputs": n("search.combination_outputs"),
        "search.combination_s": t(q, "search.combination"),
        "expand.total_s": t(q, "expand"),
        "expand.self_s": tr.self_time(q, "expand"),
        "expand.combination_calls": c(q, "expand.combination"),
        "expand.combination_s": t(q, "expand.combination"),
        "expand.upper_sets": n("expand.upper_sets"),
        "expand.mfs_check_calls": c(q, "mfs_check"),
        "expand.mfs_check_s": t(q, "mfs_check"),
        "expand.mfs_check_rejects": n("expand.mfs_check_rejects"),
        "expand.results": n("expand.results"),
        "spark.prune_s": t(q, "spark.prune"),
        "spark.bfcore_edges_calls": c(q, "bfcore_edges"),
        "spark.bfcore_edges_s": t(q, "bfcore_edges"),
        "spark.collect_calls": c(q, "to_pandas"),
        "spark.collect_rows": n("spark.collect_rows"),
        "spark.collect_s": t(q, "to_pandas"),
        "spark.to_spark_calls": c(q, "create_df"),
        "spark.to_spark_s": t(q, "create_df"),
        "spark.local_egocore_s": t(q, "color", "spark.prune") + t(q, "egocore", "spark.prune"),
        "spark.jobs": n("spark.jobs"),
        "fanout.total_s": t(q, "fanout"),
        "fanout.roots": sum(r for _s, r in tr.tasks(q)),
        "fanout.tasks": len(tasks),
        "fanout.task_p50_s": task_p50,
        "fanout.task_max_s": tasks[-1] if tasks else 0.0,
        "fanout.task_skew": tasks[-1] / task_p50 if task_p50 else 0.0,
        "fanout.broadcast_bytes": n("fanout.broadcast_bytes"),
    }
    m["expand.accept_ratio"] = (
        m["expand.results"] / m["expand.upper_sets"] if m["expand.upper_sets"] else 0.0
    )
    return m
