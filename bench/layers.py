"""Per-layer metrics from the spans of one traced pass.

Layer self time (``<layer>.self_s``) sums, over the layer's spans, each
span's duration minus the durations of its direct children; spans of one
command nest and never overlap.  A function metric ending in ``_s`` is the
time spent in the function's own module while it runs: its self time plus
that of the helpers of the same module it calls, stopping at calls into
other modules or into another measured function.  ``_incl_s`` metrics sum
the outermost span of a function, so recursion is not counted twice.
Counts come from the ``attrs`` recorded at the boundary and repeat exactly.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "core", "identities", "heyting", "skew_heyting", "properties", "models")
KERNEL = "heyting._arrow_by_candidates"
DERIVE = "skew_heyting.derive_arrow"
RUN_CHECK = "identities.run_check"
CLASSIFY = "properties.classify"
SUB_SUITES = {
    "skew_heyting.sh_axioms_incl_s": "skew_heyting.check_sh_axioms",
    "skew_heyting.sha_incl_s": "skew_heyting.check_sha",
    "skew_heyting.imp_or_incl_s": "skew_heyting.check_imp_or",
    "skew_heyting.lifting_incl_s": "skew_heyting.check_lifting",
    "skew_heyting.arrow_congruences_incl_s": "skew_heyting.check_arrow_congruences",
    "skew_heyting.special_cases_incl_s": "skew_heyting.special_case_arrows",
    "core.pullback_incl_s": "core.pullback_check",
}
BUILDERS = (
    "models.partial_function_algebra",
    "models.sections_algebra",
    "models.poset_sections_algebra",
    "models.upset_heyting",
)
PARSE = ("cli.parse_algebra_file", "cli.parse_poset_file")
EMIT = ("cli.emit_report", "cli.emit_algebra_file", "cli._arrow_payload")
CORE_TIMED = ("make_algebra", "subalgebra", "greens", "quotient", "find_isomorphism")
MEASURED = frozenset(
    (KERNEL, DERIVE, RUN_CHECK, "heyting.dual_gb_diff", "models.enumerate_skew_lattices")
    + tuple(f"core.{f}" for f in CORE_TIMED)
    + BUILDERS
    + PARSE
    + EMIT
)

# Functions the metrics below read spans of.  The tracer wraps these and
# every function that one module imports from another; a helper used only
# inside its own module needs no span, since its time belongs to the same
# layer as its caller.
FUNCTIONS = MEASURED | frozenset(SUB_SUITES.values()) | {
    "cli.main",
    "heyting.generalized_heyting_arrow",
    "skew_heyting.upset_at",
    "core.leq_matrix",
    "core.preceq_matrix",
    "models.search_family",
    CLASSIFY,
    "properties.check_costrong_equivalence",
}

# counts and ratios of counts: these repeat exactly for one seed
COUNTS = (
    "heyting.kernel_calls",
    "heyting.kernel_pairs",
    "identities.run_check_calls",
    "identities.tuples",
    "identities.arity3_tuples",
    "identities.arity4_tuples",
    "skew_heyting.derive_calls",
    "skew_heyting.upsets_built",
    "core.make_algebra_calls",
    "core.subalgebra_calls",
    "core.orders_calls",
    "core.greens_calls",
    "core.quotient_calls",
    "core.find_isomorphism_calls",
    "models.enumerate_calls",
    "models.build_calls",
    "models.elements_built",
    "properties.classify_calls",
)
RATIOS = (
    "skew_heyting.derive_redundancy",
    "models.dedup_hit_ratio",
    "cli.search_useful_tuple_ratio",
)
RATES = (
    "heyting.kernel_pairs_per_s",
    "identities.tuples_per_s",
    "identities.arity3_tuples_per_s",
    "identities.arity4_tuples_per_s",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _rate(num, den) -> float:
    return num / den if den else 0.0


class Pass:
    """Spans of every command of one traced pass."""

    def __init__(self, traces: list[dict]):
        self.traces = traces
        self.layer_s: dict[str, float] = defaultdict(float)
        self.owned_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.attrs: dict[str, list] = defaultdict(list)
        # (tuples, owned seconds) of run_check, by arity
        self.by_arity: dict[int, list] = defaultdict(lambda: [0, 0.0])
        for trace in traces:
            self._add(trace["spans"])

    def _add(self, spans: list) -> None:
        child = [0.0] * len(spans)
        for _, _, parent, _, t0, t1, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        owner = [-1] * len(spans)
        owned = defaultdict(float)
        for _, sid, parent, name, t0, t1, outer, attrs in spans:
            if name in MEASURED:
                owner[sid] = sid
            elif parent >= 0 and _layer(spans[parent][3]) == _layer(name):
                owner[sid] = owner[parent]
            own = t1 - t0 - child[sid]
            self.layer_s[_layer(name)] += own
            if owner[sid] >= 0:
                owned[owner[sid]] += own
            self.calls[name] += 1
            if outer:
                self.incl_s[name] += t1 - t0
            if attrs:
                self.attrs[name].append(attrs)
        for sid, secs in owned.items():
            span = spans[sid]
            self.owned_s[span[3]] += secs
            if span[3] == RUN_CHECK:
                acc = self.by_arity[span[7]["arity"]]
                acc[0] += span[7].get("tuples", 0)
                acc[1] += secs

    def attr_sum(self, name: str, key: str) -> int:
        return sum(a.get(key, 0) for a in self.attrs[name])

    def _derive_distinct(self) -> int:
        return sum(
            len({s[7]["key"] for s in t["spans"] if s[3] == DERIVE}) for t in self.traces
        )

    def _search_tuples(self) -> tuple[int, int]:
        """Tuples of the searched property, and all tuples ``classify``
        scanned, over the search commands of the pass."""
        useful = total = 0
        for trace in self.traces:
            argv = trace["argv"]
            if "search" not in argv or "--property" not in argv:
                continue
            target = argv[argv.index("--property") + 1]
            spans = trace["spans"]
            under = [False] * len(spans)
            for _, sid, parent, name, _, _, _, attrs in spans:
                if parent >= 0:
                    under[sid] = under[parent] or spans[parent][3] == CLASSIFY
                if name == CLASSIFY and attrs:
                    useful += attrs["checked"].get(target, 0)
                elif name == RUN_CHECK and under[sid] and attrs:
                    total += attrs.get("tuples", 0)
        return useful, total

    def metrics(self, wall_s: float) -> dict[str, float]:
        S, I, C = self.owned_s, self.incl_s, self.calls
        out: dict[str, float] = {f"{layer}.self_s": self.layer_s[layer] for layer in LAYERS}

        out["heyting.kernel_calls"] = C[KERNEL]
        out["heyting.kernel_s"] = S[KERNEL]
        out["heyting.kernel_pairs"] = self.attr_sum(KERNEL, "pairs")
        out["heyting.kernel_pairs_per_s"] = _rate(out["heyting.kernel_pairs"], S[KERNEL])
        out["heyting.generalized_arrow_incl_s"] = I["heyting.generalized_heyting_arrow"]
        out["heyting.dual_diff_s"] = S["heyting.dual_gb_diff"]

        out["identities.run_check_calls"] = C[RUN_CHECK]
        out["identities.run_check_s"] = S[RUN_CHECK]
        out["identities.tuples"] = sum(v[0] for v in self.by_arity.values())
        out["identities.tuples_per_s"] = _rate(out["identities.tuples"], S[RUN_CHECK])
        for k in (3, 4):
            tuples, secs = self.by_arity.get(k, (0, 0.0))
            out[f"identities.arity{k}_tuples"] = tuples
            out[f"identities.arity{k}_tuples_per_s"] = _rate(tuples, secs)

        out["skew_heyting.derive_calls"] = C[DERIVE]
        out["skew_heyting.derive_redundancy"] = _rate(C[DERIVE], self._derive_distinct())
        out["skew_heyting.upsets_built"] = C["skew_heyting.upset_at"]
        out["skew_heyting.derive_s"] = S[DERIVE]
        for metric, fn in SUB_SUITES.items():
            out[metric] = I[fn]

        for fn in CORE_TIMED:
            out[f"core.{fn}_calls"] = C[f"core.{fn}"]
            out[f"core.{fn}_s"] = S[f"core.{fn}"]
        out["core.orders_calls"] = C["core.leq_matrix"] + C["core.preceq_matrix"]

        out["models.search_family_incl_s"] = I["models.search_family"]
        out["models.dedup_hit_ratio"] = _rate(
            self.attr_sum("core.find_isomorphism", "hit"), C["core.find_isomorphism"]
        )
        out["models.enumerate_calls"] = self.attr_sum("models.enumerate_skew_lattices", "first")
        out["models.enumerate_s"] = S["models.enumerate_skew_lattices"]
        out["models.build_calls"] = sum(C[b] for b in BUILDERS)
        out["models.build_s"] = sum(S[b] for b in BUILDERS)
        out["models.elements_built"] = sum(self.attr_sum(b, "elements") for b in BUILDERS)

        out["properties.classify_calls"] = C[CLASSIFY]
        out["properties.classify_incl_s"] = I[CLASSIFY]
        out["properties.costrong_equivalence_incl_s"] = I["properties.check_costrong_equivalence"]
        out["cli.search_useful_tuple_ratio"] = _rate(*self._search_tuples())
        out["cli.parse_s"] = sum(S[f] for f in PARSE)
        out["cli.emit_s"] = sum(S[f] for f in EMIT)
        out["bench.unattributed_s"] = wall_s - sum(self.layer_s.values())
        return out


def subsuites(trace: dict) -> set[str]:
    """The verify sub-suites that appear in one command's span tree."""
    names = {s[3] for s in trace["spans"]}
    return {fn for fn in SUB_SUITES.values() if fn in names}


def unit_of(name: str) -> str:
    if name in RATES:
        return "1/s"
    if name in RATIOS or name == "bench.trace_overhead":
        return "ratio"
    if name in COUNTS:
        return "count"
    return "s"
