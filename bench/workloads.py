"""The benchmark's workloads.

Each workload is exhaustive: its inputs are a fixed finite family, built by
``build()`` (the set-up), and the seed only permutes the order in which a
single closed-loop client checks them.  ``check(item, tally)`` returns
whether each verdict was right; ``gate(tally)`` compares the pass's totals
with the known answers, which hold for every seed.

The library is called through module attributes (``du.spatiality_check``,
not a name imported here) so that the traced run sees every call.
"""

import contextlib
import io
import json
from time import perf_counter

from bistone import bitop as bt
from bistone import cli
from bistone import corpus
from bistone import dlattice as dl
from bistone import duality as du
from bistone import lattice as lat
from bistone import suites


class Workload:
    def check(self, item, tally):
        """Check one unit of work.  Returns (interval, verdict_ok) per item
        checked: the item's (start, end) in perf_counter time, or None when
        the item is the whole call, which the caller times."""
        return [(None, self.verdict(item, tally))]

    def layer_metrics(self, tally):
        """Per-layer metrics that come from the workload's own counts."""
        return {}


class DualityCorpus(Workload):
    """Unit and counit round trips, spatiality, dSpec = dpt idl and the
    completeness biconditional on every poset with at most 5 elements."""

    name = "duality-corpus"
    why = "acceptance corpus: 87 posets, dual structures built via ideals, spectrum, dclop and the completeness scan"
    items_per_pass = 87

    def build(self):
        return [
            (dl.lambda_of_dislat(lat.birkhoff(p)), bt.stone_space_from_poset(p))
            for p in corpus.unlabeled_posets(5)
        ]

    def new_tally(self):
        return {"structures": 0, "wrong": 0}

    def verdict(self, item, tally):
        A, X = item
        verdicts = (
            du.unit_roundtrip(A).is_iso,
            du.counit_roundtrip(X).is_iso,
            du.spatiality_check(A)[0],
            du.dspec_equals_dpt_idl(A),
            du.complete_extremally_disconnected_check(X),
        )
        ok = all(v is True for v in verdicts)
        tally["structures"] += 1
        tally["wrong"] += not ok
        return ok

    def gate(self, tally):
        want = {"structures": 87, "wrong": 0}
        return _compare(tally, want)


class Q2Census(Workload):
    """Every (con, tot) candidate on coordinate lattices of size 2..5, each
    validated, the valid ones checked for spatiality, and every non-spatial
    one re-verified on a freshly built structure, as ``_search_q2`` does."""

    name = "q2-census"
    why = "full Q2 census at bound 5: validation rejects 94% of candidates and spatiality takes the brute prime path"
    items_per_pass = 39444
    bound = 5

    def build(self):
        out = []
        lattices = du._distributive_lattices_upto(self.bound)
        for plus in lattices:
            for minus in lattices:
                shell = dl.DLattice(plus, minus, 0, 0)
                seed = (1 << shell.tt) | (1 << shell.ff)
                cons, _ = du._down_sets_of_product(shell, seed)
                cons = [c for c in cons if du._logic_closed(shell, c)]
                tots = [t for t in du._up_sets_containing(shell, seed) if du._logic_closed(shell, t)]
                out.extend((plus, minus, con, tot) for con in cons for tot in tots)
        return out

    def new_tally(self):
        return {"candidates": 0, "valid": 0, "non_spatial": 0, "reverify_mismatch": 0}

    def verdict(self, item, tally):
        plus, minus, con, tot = item
        tally["candidates"] += 1
        cand = dl.DLattice(plus, minus, con, tot)
        if not dl.validate_dlattice(cand).ok:
            return True
        tally["valid"] += 1
        spatial, detail = du.spatiality_check(cand)
        if spatial:
            return True
        tally["non_spatial"] += 1
        fresh = dl.DLattice(plus, minus, con, tot)
        ok = dl.validate_dlattice(fresh).ok and du.spatiality_check(fresh) == (False, detail)
        tally["reverify_mismatch"] += not ok
        return ok

    def layer_metrics(self, tally):
        return {"q2.valid_ratio": tally["valid"] / tally["candidates"]}

    def gate(self, tally):
        want = {"candidates": 39444, "valid": 2269, "non_spatial": 248, "reverify_mismatch": 0}
        return _compare(tally, want)


class Q1Census(Workload):
    """Every labeled pair of topologies on 1..3 points, deduplicated by the
    space canonical form; each class is tested for being T0, compact, with
    singleton connected subsets and not Stone, and every hit is re-verified
    on a freshly built space, as ``_search_q1`` does."""

    name = "q1-census-3pt"
    why = "full Q1 census over 1-3 points: dominated by space canonical forms and the Q1 bitop predicates"
    items_per_pass = 858  # 1 + 4**2 + 29**2 labeled pairs
    max_points = 3

    def build(self):
        out = []
        for n in range(1, self.max_points + 1):
            tops = du.enumerate_topologies(n)
            labels = tuple(f"x{i}" for i in range(n))
            out.extend((labels, tp, tm) for tp in tops for tm in tops)
        return out

    def new_tally(self):
        return {"seen": set(), "classes": 0, "counterexamples": 0, "reverify_mismatch": 0}

    def verdict(self, item, tally):
        labels, tp, tm = item
        spc = bt.BiTopSpace(labels, tp, tm)
        sig = du._space_signature(spc)
        if sig in tally["seen"]:
            return True
        tally["seen"].add(sig)
        tally["classes"] += 1
        hit = (
            bt.is_T0(spc)
            and bt.is_compact(spc)
            and bt.connected_subsets_are_singletons(spc)
            and not bt.is_stone(spc)
        )
        if not hit:
            return True
        tally["counterexamples"] += 1
        fresh = bt.BiTopSpace(labels, tp, tm)
        ok = (
            bt.is_T0(fresh)
            and bt.is_compact(fresh)
            and bt.connected_subsets_are_singletons(fresh)
            and not bt.is_stone(fresh)
        )
        tally["reverify_mismatch"] += not ok
        return ok

    def gate(self, tally):
        want = {"classes": 177, "counterexamples": 34, "reverify_mismatch": 0}
        return _compare({k: tally[k] for k in want}, want)


class Props(Workload):
    """All five invariant suites through ``bistone props --suite S`` in this
    process, stdout captured and the exit code checked.  An item is one row
    of a props table; its latency is the time of the check that produced it,
    recorded by wrapping the suite's check functions for the call."""

    name = "props"
    why = "user-facing CLI path: suites, logic-order lattices, build_lattice and serialize over the default corpus"
    items_per_pass = 38

    def build(self):
        suites.default_bundle()
        return sorted(suites.SUITES)

    def new_tally(self):
        return {"rows": 0, "rows_ok": 0, "nonzero_exits": 0}

    def check(self, suite, tally):
        timings = []
        original = suites.SUITES[suite]
        suites.SUITES[suite] = [(name, _timed(fn, timings)) for name, fn in original]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["props", "--suite", suite])
        finally:
            suites.SUITES[suite] = original
        rows = json.loads(out.getvalue())["rows"] if code in (0, 1) else []
        tally["rows"] += len(rows)
        tally["rows_ok"] += sum(r["ok"] for r in rows)
        tally["nonzero_exits"] += code != 0
        if len(rows) != len(timings) or not rows:
            return [(None, False)]
        return [(t, code == 0 and r["ok"]) for t, r in zip(timings, rows)]

    def gate(self, tally):
        want = {"rows": 38, "rows_ok": 38, "nonzero_exits": 0}
        return _compare(tally, want)


def _timed(fn, timings):
    def run(bundle):
        start = perf_counter()
        try:
            return fn(bundle)
        finally:
            timings.append((start, perf_counter()))

    return run


def _compare(got, want):
    return [f"{k}: got {got.get(k)}, want {v}" for k, v in want.items() if got.get(k) != v]


WORKLOADS = {w.name: w for w in (DualityCorpus(), Q2Census(), Props(), Q1Census())}
