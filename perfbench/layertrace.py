"""Spans around calls into the library's layers, recorded from outside it.

The tracer replaces a public name on the module where its caller looks it
up (``qsym.engine.automorphism_group`` is what ``decide`` calls, while
``run_entry`` calls ``qsym.catalog.automorphism_group``) with a wrapper
that records a span: layer name, start, end, parent span and op id.  Spans
stay in memory until the run ends.  Counts are read from the wrapped
calls' return values, so no file of the library is touched.
"""

from __future__ import annotations

import gzip
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        # one list [name, start_ns, end_ns, parent_index, op_id] per span
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def patch(self, owner, attr, name, observe=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def patch_cold_distances(self, graph_cls):
        """Span ``Graph.distances`` only when the graph's cache is empty."""
        original = graph_cls.distances
        cold = self.wrap("graphs.distances", original)

        def distances(g):
            return original(g) if g._dist is not None else cold(g)

        self._patches.append((graph_cls, "distances", original))
        graph_cls.distances = distances

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self, first: int = 0) -> dict:
        """name -> [calls, inclusive ns, self ns] over spans[first:].

        Self time is a span's duration minus its direct children's.
        """
        spans = self.spans
        child_ns = [0] * (len(spans) - first)
        for rec in spans[first:]:
            if rec[3] >= first:
                child_ns[rec[3] - first] += rec[2] - rec[1]
        totals: dict = {}
        for k, rec in enumerate(spans[first:]):
            dur = rec[2] - rec[1]
            t = totals.setdefault(rec[0], [0, 0, 0])
            t[0] += 1
            t[1] += dur
            t[2] += dur - child_ns[k]
        return totals

    def write(self, path):
        """Spans as gzip'd CSV: name,start_ns,end_ns,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")


def _count(key, value):
    def observe(counts, result):
        counts[key] += value(result)
    return observe


def _decided(counts, verdict):
    if verdict.certificate is not None:
        counts["certificate.steps"] += len(verdict.certificate.steps)


def _fixpoint(counts, result):
    kb, closed, _timed_out = result
    counts["engine.closed"] += bool(closed)
    counts["engine.kb_steps"] += len(kb.log)


def _completion(counts, gb):
    counts["groebner.s_polys"] += gb.steps
    counts["groebner.basis_size"] += len(gb.basis)
    counts["groebner.discarded_over_cap"] += gb.discarded_over_cap
    counts["groebner.complete_up_to_degree"] += gb.complete_up_to_degree


def install(tracer: Tracer, q) -> None:
    """Wrap every traced name; ``q`` holds the imported qsym modules."""
    p = tracer.patch
    p(q.catalog, "run_entry", "catalog.run_entry")
    p(q.catalog, "decide", "engine.decide", _decided)
    p(q.catalog, "automorphism_group", "perms.aut_group")
    p(q.engine, "decide", "engine.decide", _decided)
    p(q.engine, "find_disjoint_automorphisms", "perms.disjoint_scan",
      _count("perms.disjoint_hits", lambda r: r is not None))
    p(q.engine, "injective_f_check", "graphs.injective_f",
      _count("graphs.injective_hits", lambda r: bool(r[0])))
    p(q.engine, "automorphism_group", "perms.aut_group")
    p(q.engine, "lemma_fixpoint", "engine.lemma_fixpoint", _fixpoint)
    p(q.engine, "prove_pair", "engine.prove_pair",
      _count("engine.prove_pair_ok", bool))
    # decide() re-verifies through the name it imported into qsym.engine
    p(q.engine, "verify_certificate", "certificate.verify")
    p(q.certificate, "verify_certificate", "certificate.verify")
    p(q.certificate, "serialize_certificate", "certificate.serialize",
      _count("certificate.bytes", len))
    p(q.certificate, "parse_certificate", "certificate.parse")
    p(q.perms, "find_automorphism", "perms.find_automorphism")
    p(q.groebner, "quantum_relations", "groebner.relations")
    p(q.groebner, "buchberger", "groebner.buchberger", _completion)
    p(q.groebner, "normal_form", "groebner.normal_form",
      _count("groebner.zero_reductions", lambda r: r.is_zero))
    tracer.patch_cold_distances(q.graphs.Graph)


def _ms(totals, name, field=1):
    return totals.get(name, (0, 0, 0))[field] / 1e6


def _calls(totals, name):
    return totals.get(name, (0, 0, 0))[0]


def _ratio(num, den):
    return num / den if den else 0.0


# (metric name, unit, better, value from (totals, counts, ops)); ms are per
# pass, counts per op, ratios are useful outcomes over attempts
PER_LAYER = [
    ("perms.disjoint_scan_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "perms.disjoint_scan")),
    ("perms.disjoint_scan_calls", "1/op", "lower",
     lambda t, c, n: _calls(t, "perms.disjoint_scan") / n),
    ("perms.disjoint_hit_ratio", "ratio", "higher",
     lambda t, c, n: _ratio(c["perms.disjoint_hits"],
                            _calls(t, "perms.disjoint_scan"))),
    ("perms.aut_group_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "perms.aut_group")),
    ("perms.aut_group_calls", "1/op", "lower",
     lambda t, c, n: _calls(t, "perms.aut_group") / n),
    ("perms.find_automorphism_calls", "1/op", "lower",
     lambda t, c, n: _calls(t, "perms.find_automorphism") / n),
    ("perms.find_automorphism_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "perms.find_automorphism")),
    ("engine.decide_self_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "engine.decide", 2)),
    ("engine.lemma_fixpoint_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "engine.lemma_fixpoint")),
    ("engine.lemma_fixpoint_calls", "1/op", "lower",
     lambda t, c, n: _calls(t, "engine.lemma_fixpoint") / n),
    ("engine.closed_ratio", "ratio", "higher",
     lambda t, c, n: _ratio(c["engine.closed"],
                            _calls(t, "engine.lemma_fixpoint"))),
    ("engine.prove_pair_calls", "1/op", "lower",
     lambda t, c, n: _calls(t, "engine.prove_pair") / n),
    ("engine.prove_pair_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "engine.prove_pair")),
    ("engine.prove_pair_success_ratio", "ratio", "higher",
     lambda t, c, n: _ratio(c["engine.prove_pair_ok"],
                            _calls(t, "engine.prove_pair"))),
    ("engine.kb_steps", "1/op", "lower",
     lambda t, c, n: c["engine.kb_steps"] / n),
    ("certificate.verify_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "certificate.verify")),
    ("certificate.verify_calls", "1/op", "lower",
     lambda t, c, n: _calls(t, "certificate.verify") / n),
    ("certificate.serialize_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "certificate.serialize")),
    ("certificate.parse_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "certificate.parse")),
    ("certificate.bytes", "bytes/op", "lower",
     lambda t, c, n: c["certificate.bytes"] / n),
    ("certificate.steps", "1/op", "lower",
     lambda t, c, n: c["certificate.steps"] / n),
    ("graphs.distances_computed", "1/op", "lower",
     lambda t, c, n: _calls(t, "graphs.distances") / n),
    ("graphs.distances_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "graphs.distances")),
    ("graphs.injective_f_calls", "1/op", "lower",
     lambda t, c, n: _calls(t, "graphs.injective_f") / n),
    ("graphs.injective_f_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "graphs.injective_f")),
    ("graphs.injective_hit_ratio", "ratio", "higher",
     lambda t, c, n: _ratio(c["graphs.injective_hits"],
                            _calls(t, "graphs.injective_f"))),
    ("groebner.relations_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "groebner.relations")),
    ("groebner.buchberger_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "groebner.buchberger")),
    ("groebner.s_polys", "1/op", "lower",
     lambda t, c, n: c["groebner.s_polys"] / n),
    ("groebner.basis_size", "1/op", "lower",
     lambda t, c, n: c["groebner.basis_size"] / n),
    ("groebner.discarded_over_cap", "1/op", "lower",
     lambda t, c, n: c["groebner.discarded_over_cap"] / n),
    ("groebner.complete_up_to_degree", "degree/op", "higher",
     lambda t, c, n: c["groebner.complete_up_to_degree"] / n),
    ("groebner.normal_form_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "groebner.normal_form")),
    ("groebner.normal_form_calls", "1/op", "lower",
     lambda t, c, n: _calls(t, "groebner.normal_form") / n),
    ("groebner.zero_reduction_ratio", "ratio", "higher",
     lambda t, c, n: _ratio(c["groebner.zero_reductions"],
                            _calls(t, "groebner.normal_form"))),
    ("catalog.run_entry_self_ms", "ms/pass", "lower",
     lambda t, c, n: _ms(t, "catalog.run_entry", 2)),
]
