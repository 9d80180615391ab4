"""The benchmark's workloads: input generation, one operation, output checks.

Every workload drives the public arborsim API in this process with
``threads=1``. Op ``i`` of a run uses input ``i mod pool``, so a run that
outlasts one pass over the pool repeats inputs; inputs depend only on the
benchmark seed and the pool size, never on how fast the program is.

Input ``i`` belongs to the master seed ``seed * 10**6 + i``:

- ``theorem-n200`` op ``i`` is ``arborsim experiment theorem --n 200
  --trials 1 --seed <seed * 10**6 + i>``;
- ``exact-n200`` input ``i`` is the prefix at M = max(m_C, m_Z) of that same
  trace, written as an edge list, and op ``i`` is what ``arborsim decide
  --mode exact`` does with it: load the edge list, then decide;
- ``stream-n2000`` op ``i`` is ``arborsim experiment poisson --n 2000 --c 0
  --trials 1 --seed <seed * 10**6 + i>``.
"""

from __future__ import annotations

import io

from arborsim import edgelist, experiments, rainbow
from arborsim.process import ProcessConfig, ProcessTrace
from arborsim.rng import derive_trial_seed

# Bound here, outside the package, so a traced run does not count the
# benchmark's own certificate checks as program work.
from arborsim.rainbow import verify_certificate

SEED_STRIDE = 10**6


def op_seed(seed: int, i: int) -> int:
    return seed * SEED_STRIDE + i


def _row(report: experiments.ExperimentReport) -> dict:
    """The single data row of a one-trial report, keyed by column name."""
    (row,) = report.rows
    return dict(zip(report.columns, row))


class Workload:
    """Sizes shared by the workloads; inputs are master seeds by default.

    A workload also defines ``fields`` (the outputs stored as reference),
    ``run`` (one op), ``record`` (its outputs as a dict) and ``problems``
    (invariants that need no reference).
    """

    def __init__(self, n: int, pool: int, trace_ops: int):
        self.n, self.pool, self.trace_ops = n, pool, trace_ops

    def setup(self, seed: int) -> list:
        return [op_seed(seed, i) for i in range(self.pool)]

    def unknown(self, rec: dict) -> bool:
        """Whether the op gave no answer because a time budget ran out."""
        return False


class Theorem(Workload):
    """One theorem trial per op: trace, hitting times, rainbow decisions."""

    fields = ("m_C", "m_Z", "m_A", "m_R", "r_decision_mode")

    def run(self, master_seed: int):
        return experiments.run_theorem_experiment(
            n=self.n, trials=1, seed=master_seed, r_mode="auto", threads=1)

    def record(self, master_seed: int, report) -> dict:
        row = _row(report)
        return {k: row[k] for k in self.fields}

    def problems(self, master_seed: int, rec: dict) -> list[str]:
        out = []
        if not rec["m_Z"] <= rec["m_A"]:
            out.append(f"m_Z {rec['m_Z']} > m_A {rec['m_A']}")
        if rec["m_R"] is not None:
            if rec["m_C"] is None or max(rec["m_C"], rec["m_Z"]) > rec["m_R"]:
                out.append(f"m_R {rec['m_R']} < max(m_C {rec['m_C']}, m_Z {rec['m_Z']})")
        return out

    def unknown(self, rec: dict) -> bool:
        return rec["r_decision_mode"] == "unknown"


class Exact(Workload):
    """One exact rainbow decision per op on the prefix graph at M."""

    fields = ("outcome",)

    def setup(self, seed: int) -> list:
        return [self._prefix_at_m(derive_trial_seed(op_seed(seed, i), 0))
                for i in range(self.pool)]

    def _prefix_at_m(self, trace_seed: int) -> tuple[str, int]:
        """Edge-list text of the prefix at M = max(m_C, m_Z), and M."""
        trace = ProcessTrace(ProcessConfig(self.n, "auto", trace_seed))
        need = self.n - 1
        colours: set[int] = set()
        heads: set[int] = set()
        edges = []
        for e in trace.prefix(trace.total_edges):
            edges.append(e)
            colours.add(e.colour)
            heads.add(e.head)
            if len(colours) >= need and len(heads) >= need:
                break
        fh = io.StringIO()
        edgelist.dump(self.n, trace.colour_count, edges, fh)
        return fh.getvalue(), len(edges)

    def run(self, inp):
        g = edgelist.load(io.StringIO(inp[0]))
        # About 0.5% of these graphs exhaust any budget up to 10 s in exact
        # mode, although the heuristic finds a certificate in milliseconds;
        # the search's memo grows by about 6 MB per second meanwhile. Half a
        # second is twice the slowest decision that completed in a scan of
        # 960 such graphs (Python 3.11, 2-CPU x86 machine), so such an op
        # reports unknown after costing the run half a second, without
        # taking over the run's time or its peak memory.
        return g, rainbow.decide(g, mode="exact", budget_s=0.5)

    def record(self, inp, out) -> dict:
        g, result = out
        cert = result.certificate
        return {
            "outcome": result.outcome,
            "edges": len(g),
            "certificate_ok": cert is not None and verify_certificate(g, cert),
        }

    def problems(self, inp, rec: dict) -> list[str]:
        out = []
        if rec["edges"] != inp[1]:
            out.append(f"loaded {rec['edges']} edges, wrote {inp[1]}")
        if (rec["outcome"] == "found") != rec["certificate_ok"]:
            out.append(f"outcome {rec['outcome']} but certificate_ok {rec['certificate_ok']}")
        return out

    def unknown(self, rec: dict) -> bool:
        return rec["outcome"] == "unknown"


class Stream(Workload):
    """One poisson trial per op: stream the prefix at n(log n + c), count heads."""

    fields = ("zero_in_count",)

    def run(self, master_seed: int):
        return experiments.run_poisson_experiment(
            n=self.n, c=0.0, trials=1, seed=master_seed, threads=1)

    def record(self, master_seed: int, report) -> dict:
        row = _row(report)
        return {"zero_in_count": row["zero_in_count"], "z_holds": row["z_holds"]}

    def problems(self, master_seed: int, rec: dict) -> list[str]:
        zero = rec["zero_in_count"]
        if not 0 <= zero <= self.n or rec["z_holds"] != (1 if zero <= 1 else 0):
            return [f"zero_in_count {zero} with z_holds {rec['z_holds']}"]
        return []


# A run of BENCHMARK.json's run_seconds passes each pool at least once, so
# the percentiles rank the same inputs in every run: about 1-2 passes for
# theorem, 3-4 for exact and 6-8 for stream. The exact pool is small
# because an input that exhausts the budget (see Exact.run) raises peak
# RSS; a pool of 48 holds one for about one seed in four. trace_ops is the
# fixed op count of a traced run.
WORKLOADS = {
    "theorem-n200": Theorem(n=200, pool=96, trace_ops=12),
    "exact-n200": Exact(n=200, pool=48, trace_ops=8),
    "stream-n2000": Stream(n=2000, pool=128, trace_ops=32),
}
