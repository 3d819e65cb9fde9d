"""Per-layer metrics of the traced run, computed from its spans and counts.

Every workload reports every metric (the list is shared with
``BENCHMARK.json``); a metric whose layer the workload never calls is 0
and carries a one-line reason in the printed report.
"""

from __future__ import annotations

from common import Tracer

#: (metric, unit) in ``BENCHMARK.json`` order.
PER_LAYER = [
    ("minicuda.parse_ms", "ms/op"),
    ("minicuda.emit_ms", "ms/op"),
    ("npc.enumerate_ms", "ms/op"),
    ("npc.compile_np_ms", "ms/op"),
    ("npc.variants", "count/op"),
    ("npc.transform_errors", "count/op"),
    ("npc.ir_nodes", "count/op"),
    ("npc.variant_cache_hit_ratio", "ratio"),
    ("kernels.make_args_ms", "ms/op"),
    ("analysis.resources_ms", "ms/launch"),
    ("gpusim.launch_ms", "ms/launch"),
    ("gpusim.execute_ms", "ms/launch"),
    ("gpusim.lower_ms", "ms/launch"),
    ("gpusim.model_ms", "ms/launch"),
    ("gpusim.warp_insts", "count/launch"),
    ("gpusim.blocks", "count/launch"),
    ("gpusim.ns_per_warp_inst", "ns"),
    ("gpusim.fallbacks", "count"),
    ("serve.request_ms", "ms/req"),
    ("serve.wait_ms", "ms/req"),
    ("serve.client_encode_ms", "ms/req"),
    ("serve.decode_ms", "ms/req"),
    ("serve.key_ms", "ms/req"),
    ("serve.kernel_cache_ms", "ms/req"),
    ("serve.encode_ms", "ms/req"),
    ("serve.server_cpu_ms", "ms/req"),
    ("serve.kernel_cache_hit_ratio", "ratio"),
    ("serve.launches", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.request_bytes", "bytes/req"),
    ("serve.response_bytes", "bytes/req"),
    ("trace.overhead_pct", "%"),
]

#: Span totals divided by ops (whole-op layers).
_PER_OP_SPANS = {
    "minicuda.parse_ms": "minicuda.parse",
    "minicuda.emit_ms": "minicuda.emit",
    "npc.enumerate_ms": "npc.enumerate",
    "npc.compile_np_ms": "npc.compile_np",
    "kernels.make_args_ms": "kernels.make_args",
}
_PER_LAUNCH_SPANS = {
    "analysis.resources_ms": "analysis.resources",
    "gpusim.launch_ms": "gpusim.launch",
    "gpusim.lower_ms": "gpusim.lower",
    "gpusim.model_ms": "gpusim.model",
}
_PER_REQ_SPANS = {
    "serve.request_ms": "serve.request",
    "serve.client_encode_ms": "serve.client_encode",
    "serve.decode_ms": "serve.decode",
    "serve.key_ms": "serve.key",
    "serve.kernel_cache_ms": "serve.kernel_cache",
    "serve.encode_ms": "serve.encode",
}
_PER_OP_COUNTS = ("npc.variants", "npc.transform_errors", "npc.ir_nodes")
_PER_LAUNCH_COUNTS = ("gpusim.warp_insts", "gpusim.blocks")
_PER_REQ_COUNTS = ("serve.request_bytes", "serve.response_bytes",
                   "serve.server_cpu_ms")
_TOTAL_COUNTS = ("gpusim.fallbacks", "serve.launches", "serve.coalesced",
                 "serve.shed")
_RATIOS = {
    "npc.variant_cache_hit_ratio": ("npc.variant_cache_hits",
                                    "npc.variant_cache_misses"),
    "serve.kernel_cache_hit_ratio": ("serve.kernel_cache_hits",
                                     "serve.kernel_cache_misses"),
}


def per_layer(tracer: Tracer, ops: int) -> tuple[dict, dict]:
    """(metric -> value, metric -> reason it is absent) for one traced run.

    ``ops`` is the op count of the traced window; launches and requests
    are counted by the workload as ``gpusim.launches`` / ``serve.requests``.
    """
    totals = tracer.totals_ms()
    counts = tracer.counts
    launches = counts.get("gpusim.launches", 0)
    requests = counts.get("serve.requests", 0)

    def span_ms(span: str) -> float:
        return totals.get(span, {}).get("total_ms", 0.0)

    values: dict[str, float] = {}
    absent: dict[str, str] = {}
    for metric, span in _PER_OP_SPANS.items():
        values[metric] = span_ms(span) / ops if ops else 0.0
    for metric, span in _PER_LAUNCH_SPANS.items():
        values[metric] = span_ms(span) / launches if launches else 0.0
    for metric, span in _PER_REQ_SPANS.items():
        values[metric] = span_ms(span) / requests if requests else 0.0
    for metric in _PER_OP_COUNTS:
        values[metric] = counts.get(metric, 0) / ops if ops else 0.0
    for metric in _PER_LAUNCH_COUNTS:
        values[metric] = counts.get(metric, 0) / launches if launches else 0.0
    for metric in _PER_REQ_COUNTS:
        values[metric] = counts.get(metric, 0) / requests if requests else 0.0
    for metric in _TOTAL_COUNTS:
        values[metric] = counts.get(metric, 0)
    for metric, (hit, miss) in _RATIOS.items():
        looked = counts.get(hit, 0) + counts.get(miss, 0)
        values[metric] = counts.get(hit, 0) / looked if looked else 0.0
        if not looked:
            absent[metric] = "no lookups in this workload"

    if launches:
        values["gpusim.execute_ms"] = (
            values["gpusim.launch_ms"] - values["gpusim.lower_ms"]
            - values["analysis.resources_ms"] - values["gpusim.model_ms"]
        )
        insts = counts.get("gpusim.warp_insts", 0)
        values["gpusim.ns_per_warp_inst"] = (
            values["gpusim.execute_ms"] * launches * 1e6 / insts if insts else 0.0
        )
        if "gpusim.lower" not in totals:
            absent["gpusim.lower_ms"] = "the engine that ran (interp) does not lower"
    else:
        values["gpusim.execute_ms"] = values["gpusim.ns_per_warp_inst"] = 0.0
        for metric, _unit in PER_LAYER:
            if metric.startswith(("gpusim.", "analysis.")):
                absent[metric] = "this workload launches no kernels"
    if requests:
        server_side = sum(
            values[m] for m in ("serve.decode_ms", "serve.key_ms",
                                "serve.kernel_cache_ms", "serve.encode_ms")
        ) + span_ms("gpusim.launch") / requests
        values["serve.wait_ms"] = (
            values["serve.request_ms"] - values["serve.client_encode_ms"]
            - server_side
        )
    else:
        values["serve.wait_ms"] = 0.0
        for metric, _unit in PER_LAYER:
            if metric.startswith("serve."):
                absent[metric] = "this workload sends no requests"
    for metric, span in {**_PER_OP_SPANS, **_PER_REQ_SPANS}.items():
        if span not in totals and metric not in absent:
            absent[metric] = "this workload never calls the layer"
    values["trace.overhead_pct"] = 0.0
    return values, absent


def span_table(tracer: Tracer, root: str) -> list[str]:
    """Printable rows: count, total, self time and share of op time."""
    totals = tracer.totals_ms()
    op_ms = totals.get(root, {}).get("total_ms", 0.0) or 1.0
    lines = [f"  {'span':28s} {'count':>7s} {'total ms':>11s} "
             f"{'self ms':>11s} {'of op':>7s}"]
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["total_ms"]):
        lines.append(
            f"  {name:28s} {row['count']:7d} {row['total_ms']:11.1f} "
            f"{row['self_ms']:11.1f} {100 * row['total_ms'] / op_ms:6.1f}%"
        )
    return lines
