"""Per-layer metrics of a traced pass, read from spans and public counters.

``probe_for`` picks the probe for a workload.  A probe installs the span
wrappers (see :mod:`tracing`), wraps each op in an ``op`` span carrying the
op's request id, and turns the recorded spans into per-op figures.  Layer
times are means per op (ms); service figures are means per execute
response; every ratio comes back with its base.
"""

from __future__ import annotations

import time
from collections import defaultdict

from tracing import covered_ms


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Probe:
    def __init__(self, workload, recorder) -> None:
        self.workload = workload
        self.rec = recorder

    def _wrap_ops(self) -> None:
        rec, original = self.rec, self.workload.run

        def run(op):
            rec.request = op.index
            with rec.span("op", kind=op.kind, query=str(op.name)):
                return original(op)

        rec.patch(self.workload, "run", run)

    def _by_request(self) -> dict:
        grouped: dict = defaultdict(lambda: defaultdict(list))
        for span in self.rec.spans:
            grouped[span.request][span.name].append(span)
        return grouped

    @staticmethod
    def _total(spans) -> float:
        return sum(span.ms for span in spans)


class InprocProbe(_Probe):
    """In-process session: compile, normalise, shred, codegen, execute
    (SQL drained per statement, decode as the rest), stitch and the API
    layer around them."""

    def __init__(self, workload, recorder) -> None:
        super().__init__(workload, recorder)
        self.compiled: dict = {}
        self.stats: dict = {}

    def install(self) -> None:
        import repro.api.results as results
        import repro.backend.database as database
        import repro.normalise.norm as norm
        import repro.pipeline.shredder as shredder

        rec = self.rec
        self._wrap_ops()
        rec.wrap(results.Prepared, "run", "api.run",
                 after=lambda span, args, result: self.stats.__setitem__(span.request, result.stats))
        rec.wrap(shredder.ShreddingPipeline, "compile", "pipeline.compile",
                 after=lambda span, args, result: self.compiled.__setitem__(span.request, result))
        rec.wrap(norm, "normalise", "normalise")
        rec.wrap(shredder, "shred_query_package", "shred")
        rec.wrap(shredder, "compile_shredded", "sql.codegen")
        rec.wrap(shredder, "execute_package_batched", "backend.execute")
        rec.wrap_generator(database.Database, "execute_sql_chunks", "backend.statement", "backend.sql")
        rec.wrap(shredder, "stitch_grouped", "shred.stitch")

    on_op = None  # nothing to do between in-process ops

    def counters(self) -> dict:
        return dict(self.workload.session.pipeline.cache.stats())

    def summarise(self, before: dict, after: dict) -> tuple[dict, dict]:
        rows = []
        for request, spans in self._by_request().items():
            if request is None or not spans.get("op"):
                continue
            compile_ms = self._total(spans["pipeline.compile"])
            execute_ms = self._total(spans["backend.execute"])
            stitch_ms = self._total(spans["shred.stitch"])
            sql_ms = covered_ms(spans["backend.sql"])
            compiled = self.compiled[request]
            rows.append({
                "pipeline.compile_ms": compile_ms,
                "normalise.ms": self._total(spans["normalise"]),
                "shred.ms": self._total(spans["shred"]),
                "sql.codegen_ms": self._total(spans["sql.codegen"]),
                "sql.statements_per_op": compiled.query_count,
                "sql.bytes_per_op": sum(len(sql) for _path, sql in compiled.sql_by_path),
                "backend.sql_ms": sql_ms,
                "backend.decode_ms": execute_ms - sql_ms,
                "backend.rows_per_op": self.stats[request].rows_fetched,
                "shred.stitch_ms": stitch_ms,
                "api.overhead_ms": self._total(spans["api.run"]) - compile_ms - execute_ms - stitch_ms,
            })
        values = {name: _mean(row[name] for row in rows) for name in rows[0]}
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        values["pipeline.plan_cache_hit_ratio"] = _ratio(hits, lookups)
        values["pipeline.plan_cache_evictions"] = after["evictions"] - before["evictions"]
        bases = {name: f"mean over {len(rows)} ops" for name in rows[0]}
        bases["pipeline.plan_cache_hit_ratio"] = f"{hits} hits / {lookups} lookups"
        bases["pipeline.plan_cache_evictions"] = f"during {len(rows)} ops"
        return values, bases


class WireProbe(_Probe):
    """Sharded process group seen from the coordinator: routing, each
    shard sub-request (wire round trip, the server's own time and the part
    of it spent executing), frame decoding, and the fan-out merge."""

    def __init__(self, workload, recorder) -> None:
        super().__init__(workload, recorder)
        self.reads: dict = {}  # request → (response, obs tracer)
        self.subs: list = []  # (request, sub span, server_ms, backend_ms)
        self.frames: dict = defaultdict(list)  # request → decoded response payloads
        self.encode_ms: dict = defaultdict(list)
        self.endpoints: list = []

    def install(self) -> None:
        import repro.service.client as service_client
        import repro.shard.client as shard_client
        from repro.obs import Tracer

        rec, client = self.rec, self.workload.session.client
        original = self.workload.run

        def run(op):
            if op.kind == "insert":
                return original(op)
            tracer = Tracer()
            with rec.span("shard.execute"):
                response = client.execute_full(op.name, op.params, None, "bag", tracer=tracer)
            self.reads[op.index] = (response, tracer)
            return response["rows"]

        rec.patch(self.workload, "run", run)
        self._wrap_ops()
        rec.wrap(shard_client.ShardedServiceClient, "plan_for", "shard.plan_for")
        rec.wrap(shard_client, "plan_route", "shard.plan_route")
        rec.wrap(service_client.ServiceClient, "execute_full", "shard.sub", after=self._server_spans)
        rec.wrap(service_client, "split_frame", "service.decode", after=self._frame)

    def _frame(self, span, args, payload) -> None:
        span.attrs["bytes"] = len(args[0]) + 4
        self.frames[span.request].append(payload)

    def _server_spans(self, sub, args, response) -> None:
        """The server's time crosses the wire only as durations: place the
        server span so it ends where the client starts decoding the reply,
        and its executing part at the server span's end."""
        decode = [s for s in self.rec.spans[-16:] if s.parent == sub.id and s.name == "service.decode"]
        end = decode[-1].start if decode else sub.end
        server_ms = float(response["server_millis"])
        backend_ms = float(response["stats"]["millis"])
        start = max(sub.start, end - server_ms / 1000.0)
        server = self.rec.add("service.server", sub, start, end, remote=True)
        self.rec.add("service.backend", server, max(start, end - backend_ms / 1000.0), end,
                     remote=True)
        self.subs.append((sub.request, sub, server_ms, backend_ms))

    def on_op(self, op, result) -> None:
        """Outside the op's span: re-encode the frames it received, the
        cost each server paid to send them."""
        from repro.service.protocol import pack_frame

        if op.kind == "insert":
            self.endpoints.append(result["endpoints"])
            return
        for payload in self.frames.get(op.index, ()):
            started = time.perf_counter()
            pack_frame(payload)
            self.encode_ms[op.index].append((time.perf_counter() - started) * 1000.0)
        self.frames.pop(op.index, None)

    def counters(self) -> dict:
        client = self.workload.session.client
        stats = client.stats()
        totals = {"hits": 0, "misses": 0, "evictions": 0}
        for server in stats["shards"] + [stats["fallback"]]:
            for key in totals:
                totals[key] += (server or {}).get("plan_cache", {}).get(key, 0)
        snap = client.stats_snapshot()
        totals["retries"] = (snap["retries"] + snap["failover_retries"]
                             + snap["failover_reroutes"] + snap["replica_failovers"])
        totals["subrequests"] = sum(snap["shard_requests"]) + snap["fallback_requests"]
        return totals

    def summarise(self, before: dict, after: dict) -> tuple[dict, dict]:
        grouped = self._by_request()
        subs = [s for s in self.subs if s[0] in self.reads]
        decode = [s for s in self.rec.spans if s.name == "service.decode" and s.request in self.reads
                  and s.parent is not None and self.rec.spans[s.parent].name == "shard.sub"]
        routes = [response["route"].split(":", 1)[0] for response, _t in self.reads.values()]
        fanouts = []
        for request, (response, tracer) in self.reads.items():
            if not response["route"].startswith("fanout"):
                continue
            shards = [c for root in tracer.spans for c in root.children if c.name == "shard"]
            servers = [c.attributes["server_millis"] for c in shards]
            wall = self._total(grouped[request]["shard.execute"])
            fanouts.append((sum(servers), max(servers), wall - max(c.duration_ms for c in shards)))
        reads = list(self.reads.values())
        values = {
            "sql.statements_per_op": _mean(r["stats"]["queries"] for r, _t in reads),
            "backend.rows_per_op": _mean(r["stats"]["rows_fetched"] for r, _t in reads),
            "service.server_ms": _mean(s[2] for s in subs),
            "service.server_overhead_ms": _mean(s[2] - s[3] for s in subs),
            "service.wire_ms": _mean(s[1].ms - s[2] for s in subs),
            "service.response_bytes": _mean(s.attrs["bytes"] for s in decode),
            "service.encode_ms": _mean(ms for values in self.encode_ms.values() for ms in values),
            "service.decode_ms": _mean(s.ms for s in decode),
            "shard.route_ms": _mean(
                self._total(grouped[r]["shard.plan_for"]) + self._total(grouped[r]["shard.plan_route"])
                for r in self.reads),
            "shard.work_ms": _mean(f[0] for f in fanouts),
            "shard.span_ms": _mean(f[1] for f in fanouts),
            "shard.merge_ms": _mean(f[2] for f in fanouts),
            "shard.shards_per_op": _mean(len(r["shards"]) or 1 for r, _t in reads),
            "shard.fanout_share": _ratio(routes.count("fanout"), len(routes)),
            "shard.routed_share": _ratio(routes.count("routed"), len(routes)),
            "shard.fallback_share": _ratio(routes.count("fallback"), len(routes)),
            "shard.endpoints_per_write": _mean(self.endpoints),
        }
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        retries = after["retries"] - before["retries"]
        subrequests = after["subrequests"] - before["subrequests"]
        values["pipeline.plan_cache_hit_ratio"] = _ratio(hits, lookups)
        values["pipeline.plan_cache_evictions"] = after["evictions"] - before["evictions"]
        values["shard.retry_ratio"] = _ratio(retries, subrequests)
        bases = {name: f"mean over {len(reads)} reads" for name in values}
        bases.update({
            "service.server_ms": f"mean over {len(subs)} execute responses",
            "service.server_overhead_ms": f"mean over {len(subs)} execute responses",
            "service.wire_ms": f"mean over {len(subs)} execute responses",
            "service.response_bytes": f"mean over {len(decode)} execute responses",
            "service.encode_ms": f"mean over {len(decode)} execute responses",
            "service.decode_ms": f"mean over {len(decode)} execute responses",
            "shard.work_ms": f"mean over {len(fanouts)} fan-outs",
            "shard.span_ms": f"mean over {len(fanouts)} fan-outs",
            "shard.merge_ms": f"mean over {len(fanouts)} fan-outs",
            "shard.fanout_share": f"{routes.count('fanout')} of {len(routes)} reads",
            "shard.routed_share": f"{routes.count('routed')} of {len(routes)} reads",
            "shard.fallback_share": f"{routes.count('fallback')} of {len(routes)} reads",
            "shard.endpoints_per_write": f"mean over {len(self.endpoints)} inserts",
            "pipeline.plan_cache_hit_ratio": f"{hits} hits / {lookups} lookups, all servers",
            "pipeline.plan_cache_evictions": "all servers",
            "shard.retry_ratio": f"{retries} retries / {subrequests} sub-requests",
        })
        return values, bases


def probe_for(workload, recorder):
    return (WireProbe if workload.name == "sharded_wire" else InprocProbe)(workload, recorder)
