"""The layers the traced run measures, and the per-layer metrics it reports.

A layer is a relkit module.  ``install`` wraps the public functions each
metric needs; ``metrics`` turns the tracer's totals into the ``per_layer``
metrics named in BENCHMARK.json.  Names are ``<module>.<function>.<what>``.
"""

from __future__ import annotations

FAMILY_OPS = (
    "compose_u",
    "intersect_u",
    "intersect_tol",
    "union_u",
    "converse_u",
    "transitive_closure_u",
    "bar_u",
    "as_u",
)
FINDERS = (
    "find_jonsson",
    "find_directed_jonsson",
    "find_majority",
    "find_pixley",
    "find_vr",
    "find_mal_f",
)
CLOSURES = ("admissible_closure", "tolerance_gen", "congruence_gen")
ENUM = "relations.enumerate_relations"

# name -> unit, in reporting order
METRICS = {
    ENUM + ".calls": "count",
    ENUM + ".self_s": "s",
    ENUM + ".repeat_frac": "ratio",
    ENUM + ".closures_per_relation": "ratio",
    **{f"relations.{c}.{w}": u for c in CLOSURES for w, u in (("calls", "count"), ("self_s", "s"))},
    "relations.closure.repeat_frac": "ratio",
    "relations.compose.calls": "count",
    "relations.compose.self_s": "s",
    "relations.is_admissible.calls": "count",
    "relations.is_admissible.self_s": "s",
    "relations.BinRel.pairs.calls": "count",
    "relations.BinRel.pairs.self_s": "s",
    "uadmissible.UAdmRel.calls": "count",
    "uadmissible.UAdmRel.self_s": "s",
    "uadmissible.family_ops.calls": "count",
    "uadmissible.family_ops.self_s": "s",
    "uadmissible.enumerate_u.self_s": "s",
    "uadmissible.pair_families.self_s": "s",
    "identities.candidate_pool.calls": "count",
    "identities.candidate_pool.self_s": "s",
    "identities.candidate_pool.pool_size": "count",
    "identities.evaluate.calls": "count",
    "identities.evaluate.self_s": "s",
    "identities.check_for_all.self_s": "s",
    "identities.free_seed_verdict.self_s": "s",
    "freeclone.generate_clone.calls": "count",
    "freeclone.generate_clone.self_s": "s",
    "freeclone.generate_clone.elements": "count",
    "freeclone.generate_clone.elements_per_s": "1/s",
    "freeclone.clone_as_algebra.self_s": "s",
    "freeclone.clone_as_algebra.cells_per_s": "1/s",
    "freeclone.free_relations.self_s": "s",
    "freeclone.slot_identifications.self_s": "s",
    "maltsev.find.calls": "count",
    "maltsev.find.self_s": "s",
    "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    "parser.parse_spec.self_s": "s",
    "algebra.power.self_s": "s",
    "algebra.fingerprint.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def install(tracer):
    """Wrap the relkit functions the per-layer metrics need."""
    import relkit.algebra as algebra
    import relkit.cli as cli
    import relkit.freeclone as freeclone
    import relkit.identities as identities
    import relkit.maltsev as maltsev
    import relkit.parser as parser
    import relkit.relations as relations
    import relkit.uadmissible as uadmissible

    fingerprint = algebra.FiniteAlgebra.fingerprint

    def algebra_key(alg):
        # fingerprints are cached per query; the entry keeps alg alive, so
        # its id cannot be reused while the cache holds it
        memo = tracer.memo.setdefault("fingerprint", {})
        hit = memo.get(id(alg))
        if hit is None:
            hit = memo[id(alg)] = (alg, fingerprint(alg))
        return hit[1]

    def enum_before(args, kwargs):
        method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        tracer.note_key(ENUM, (algebra_key(args[0]), kind, method))

    def enum_after(args, kwargs, result):
        tracer.counters["relations_returned"] += len(result.relations)

    def closure_before(fname):
        def before(args, kwargs):
            alg = args[0]
            seed = args[1] if len(args) > 1 else kwargs["seed"]
            if isinstance(seed, relations.BinRel):
                mask = seed.mask
            elif isinstance(seed, (list, tuple)):
                mask = 0
                for a, b in seed:
                    mask |= 1 << (a * alg.size + b)
            else:
                return  # an iterator: reading it here would consume it
            tracer.note_key("relations.closure", (algebra_key(alg), fname, mask))
            if tracer.inside(ENUM):
                tracer.counters["closures_under_enum"] += 1

        return before

    def pool_after(args, kwargs, result):
        tracer.counters["pool_size"] += len(result[0])

    def clone_after(args, kwargs, result):
        tracer.counters["clone_elements"] += len(result)

    def cells_after(args, kwargs, result):
        tracer.counters["algebra_cells"] += sum(result.size**op.arity for op in result.ops)

    fn = tracer.patch_function
    fn(relations, "enumerate_relations", ENUM, before=enum_before, after=enum_after)
    for c in CLOSURES:
        fn(relations, c, f"relations.{c}", before=closure_before(c))
    fn(relations, "compose", "relations.compose", hot=True)
    fn(relations, "is_admissible", "relations.is_admissible", hot=True)
    tracer.patch_method(relations.BinRel, "pairs", "relations.BinRel.pairs", hot=True)
    tracer.patch_method(uadmissible.UAdmRel, "__init__", "uadmissible.UAdmRel", hot=True)
    for op in FAMILY_OPS:
        fn(uadmissible, op, f"uadmissible.{op}", hot=True)
    fn(uadmissible, "enumerate_u", "uadmissible.enumerate_u")
    fn(uadmissible, "pair_families", "uadmissible.pair_families")
    fn(identities, "candidate_pool", "identities.candidate_pool", after=pool_after)
    fn(identities, "evaluate", "identities.evaluate", hot=True)
    fn(identities, "check_for_all", "identities.check_for_all")
    fn(identities, "free_seed_verdict", "identities.free_seed_verdict")
    fn(freeclone, "generate_clone", "freeclone.generate_clone", after=clone_after)
    fn(freeclone, "clone_as_algebra", "freeclone.clone_as_algebra", after=cells_after)
    fn(freeclone, "free_relations", "freeclone.free_relations")
    fn(freeclone, "slot_identifications", "freeclone.slot_identifications")
    for f in FINDERS:
        fn(maltsev, f, f"maltsev.{f}")
    fn(cli, "main", "cli.main")
    fn(parser, "parse_spec", "parser.parse_spec")
    fn(algebra, "power", "algebra.power")
    tracer.patch_method(algebra.FiniteAlgebra, "fingerprint", "algebra.fingerprint")


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer, report_bytes: int) -> dict:
    """Per-layer metric name -> value, in the order of METRICS, except
    trace.overhead_frac, which needs the untraced run."""
    calls, self_s, total_s, counters = (
        tracer.calls, tracer.self_s, tracer.total_s, tracer.counters
    )
    out = {
        ENUM + ".repeat_frac": tracer.repeat_frac(ENUM),
        ENUM + ".closures_per_relation": _ratio(
            counters["closures_under_enum"], counters["relations_returned"]
        ),
        "relations.closure.repeat_frac": tracer.repeat_frac("relations.closure"),
        "uadmissible.family_ops.calls": sum(calls[f"uadmissible.{op}"] for op in FAMILY_OPS),
        "uadmissible.family_ops.self_s": sum(self_s[f"uadmissible.{op}"] for op in FAMILY_OPS),
        "identities.candidate_pool.pool_size": counters["pool_size"],
        "freeclone.generate_clone.elements": counters["clone_elements"],
        "freeclone.generate_clone.elements_per_s": _ratio(
            counters["clone_elements"], total_s["freeclone.generate_clone"]
        ),
        "freeclone.clone_as_algebra.cells_per_s": _ratio(
            counters["algebra_cells"], total_s["freeclone.clone_as_algebra"]
        ),
        "maltsev.find.calls": sum(calls[f"maltsev.{f}"] for f in FINDERS),
        "maltsev.find.self_s": sum(self_s[f"maltsev.{f}"] for f in FINDERS),
        "cli.report_bytes": report_bytes,
    }
    for name in METRICS:
        if name in out or name == "trace.overhead_frac":
            continue
        span, _, what = name.rpartition(".")
        out[name] = calls[span] if what == "calls" else self_s[span]
    return {name: out[name] for name in METRICS if name in out}
