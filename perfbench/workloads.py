"""The three benchmark workloads: seeded inputs, one op, and its checks.

Every workload is a closed loop with one caller.  An op goes through the
library's public surface only, looked up on the ``graphspace`` package at call
time so that the traced run sees the same calls.  Inputs come from the seed
alone; ``digest`` hashes their serialized form so two runs can show they used
the same data.  Checks run outside the timed region and return a list of
problems; an empty list means the op's outputs are correct.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

import oracle

# Relative tolerance of floating-point identities whose two sides sum the
# same cells in a different order.
TOL = 1e-9


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(scale), abs(a), abs(b))


def _sq_norm(gs, g) -> float:
    return float(np.sum(gs.to_matrix(g).cells ** 2))


class Workload:
    name = ""

    def __init__(self, gs, seed: int, workdir: Path):
        self.gs = gs
        self.rng = np.random.default_rng(seed)

    def input_graphs(self) -> list:
        raise NotImplementedError

    def digest(self) -> str:
        h = hashlib.sha256()
        for g in self.input_graphs():
            h.update(self.gs.serialize_graph(g).encode())
            h.update(b"\n")
        return h.hexdigest()

    def oracle_ops(self, done: int) -> list[int]:
        """Op indices whose answers are compared with the independent enumeration."""
        picks = {0, int(self.rng.integers(done))}
        return sorted(picks)


# ---------------------------------------------------------------- pair-n9

PAIR_ORDER = 9
PAIR_FAMILIES = ("gauss", "int", "unit", "padded", "relabelled")
PAIR_CALLS = ("induced_metric", "kernel_all", "kernel_compact", "mcs_kernel")


class PairN9(Workload):
    """One op sends one pair through all four single-pair calls, in a seeded
    order.  The four calls differ in cost by up to 2x, so timing each call as
    its own op would put the median on the edge between two clusters."""

    name = "pair-n9"
    POOL = 40

    def __init__(self, gs, seed, workdir):
        super().__init__(gs, seed, workdir)
        sampling, rng = gs.sampling, self.rng
        units = (sampling.unit_cycle, sampling.unit_path, sampling.unit_star)
        self.pairs = []
        for k in range(self.POOL):
            family = PAIR_FAMILIES[k % len(PAIR_FAMILIES)]
            if family in ("gauss", "int"):
                x = sampling.random_graph(rng, PAIR_ORDER, 1, attrs=family)
                y = sampling.random_graph(rng, int(rng.integers(PAIR_ORDER - 1, PAIR_ORDER + 1)), 1,
                                          attrs=family)
            elif family == "unit":
                x = units[int(rng.integers(3))](PAIR_ORDER)
                y = units[int(rng.integers(3))](int(rng.integers(PAIR_ORDER - 1, PAIR_ORDER + 1)))
            elif family == "padded":
                x = sampling.random_graph(rng, int(rng.integers(5, 8)), 1)
                y = sampling.random_graph(rng, int(rng.integers(5, 8)), 1)
            else:
                x = sampling.random_graph(rng, PAIR_ORDER, 1, attrs=("gauss", "int")[k % 2])
                y = sampling.relabeled(rng, x)
            order = tuple(PAIR_CALLS[i] for i in rng.permutation(len(PAIR_CALLS)))
            self.pairs.append((family, x, y, order))

    def input_graphs(self):
        return [g for _, x, y, _ in self.pairs for g in (x, y)]

    def _call(self, call, x, y):
        gs = self.gs
        if call == "induced_metric":
            return gs.induced_metric(x, y, order=PAIR_ORDER)
        if call == "kernel_all":
            return gs.edit_kernel(x, y, order=PAIR_ORDER)
        if call == "kernel_compact":
            return gs.edit_kernel(x, y, morphisms="compact", order=PAIR_ORDER)
        return gs.mcs_kernel(x, y)

    def warmup(self):
        _, x, y, order = self.pairs[0]
        return self._call(order[0], x, y)

    def op(self, i):
        _, x, y, order = self.pairs[i % self.POOL]
        return {call: self._call(call, x, y) for call in order}

    def fingerprint(self, result):
        return repr(sorted(result.items()))

    def check(self, i, r):
        gs = self.gs
        family, x, y, _ = self.pairs[i % self.POOL]
        problems = []
        xm = gs.to_matrix(gs.pad_to_order(x, PAIR_ORDER))
        ym = gs.to_matrix(gs.pad_to_order(y, PAIR_ORDER))
        for call in ("kernel_all", "kernel_compact"):
            value, witness = r[call]
            again = gs.transformation_score(xm, ym, witness, gs.DOT)
            if not _close(again, value):
                problems.append(f"{call} witness scores {again!r}, value {value!r}")
        if r["kernel_compact"].value > r["kernel_all"].value + TOL * max(1.0, abs(r["kernel_all"].value)):
            problems.append("compact kernel exceeds the kernel over all maps")
        trick = _sq_norm(gs, x) + _sq_norm(gs, y) - 2.0 * r["kernel_all"].value
        if not _close(r["induced_metric"] ** 2, trick, _sq_norm(gs, x) + _sq_norm(gs, y)):
            problems.append(f"induced_metric^2 {r['induced_metric'] ** 2!r} vs kernel trick {trick!r}")
        if family == "relabelled" and r["induced_metric"] != 0.0:
            problems.append(f"relabelled copy at distance {r['induced_metric']!r}, not 0.0")
        mcs = r["mcs_kernel"]
        if mcs.value != mcs.nodes + 2 * mcs.edges:
            problems.append(f"mcs value {mcs.value} != nodes {mcs.nodes} + 2 * edges {mcs.edges}")
        return problems

    def oracle_check(self, i, r):
        _, x, y, _ = self.pairs[i % self.POOL]
        ref = oracle.exhaustive(x, y, PAIR_ORDER)
        mcs_order = max(x.order, y.order)
        if mcs_order != PAIR_ORDER:
            ref["mcs"] = oracle.exhaustive(x, y, mcs_order)["mcs"]
        got = {
            "kernel_all": r["kernel_all"].value,
            "sq_metric": r["induced_metric"] ** 2,
            "kernel_compact": r["kernel_compact"].value,
            "mcs": float(r["mcs_kernel"].value),
        }
        return [f"oracle {k}: expected {ref[k]!r}, got {got[k]!r}"
                for k in ref if not _close(got[k], ref[k], ref["sq_metric"])]


# ---------------------------------------------------------------- gram-n8

GRAM_K = 8
GRAM_DIM = 3


class GramN8(Workload):
    """One op runs ``graphspace gram`` twice over the same directory, kernel
    then distance, through ``graphspace.cli.main``.  The kinds differ in cost
    by about 40%; pairing them keeps every op's latency in one cluster."""

    name = "gram-n8"

    def __init__(self, gs, seed, workdir):
        super().__init__(gs, seed, workdir)
        sampling, rng = gs.sampling, self.rng
        # The first graph has order 8, so every scan runs at order 8; the last
        # is a relabelled copy of it, so one off-diagonal distance is exactly 0.
        self.graphs = [sampling.random_graph(rng, 8, GRAM_DIM)]
        self.graphs += [sampling.random_graph(rng, int(rng.integers(7, 9)), GRAM_DIM)
                        for _ in range(GRAM_K - 2)]
        self.graphs.append(sampling.relabeled(rng, self.graphs[0]))
        self.input_dir = self._write(workdir / "inputs", self.graphs)
        self.warm_dir = self._write(workdir / "warmup", self.graphs[:2])
        self.out = workdir / "out.csv"
        self.first = {}

    def _write(self, directory: Path, graphs) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        for k, g in enumerate(graphs):
            (directory / f"g{k}.json").write_text(self.gs.serialize_graph(g), encoding="utf-8")
        return directory

    def input_graphs(self):
        return self.graphs

    def _gram(self, directory: Path, kind: str):
        rc = self.gs.cli.main(["gram", str(directory), "--kind", kind, "-o", str(self.out)])
        return rc, self.out.read_bytes()

    def warmup(self):
        return [self._gram(self.warm_dir, kind) for kind in ("kernel", "distance")]

    def op(self, i):
        return {kind: self._gram(self.input_dir, kind) for kind in ("kernel", "distance")}

    def fingerprint(self, result):
        return repr(sorted(result.items()))

    @staticmethod
    def _parse(csv: bytes) -> list[list[float]]:
        rows = csv.decode().splitlines()[1:]
        return [[float(v) for v in row.split(",")] for row in rows]

    def check(self, i, r):
        problems = [f"gram --kind {kind} exited {rc}" for kind, (rc, _) in r.items() if rc != 0]
        if problems:
            return problems
        for kind, (_, csv) in r.items():
            first = self.first.setdefault(kind, csv)
            if csv != first:
                problems.append(f"gram --kind {kind} output differs from the first run's")
        if problems or i > 0:
            return problems
        # The first op's matrices are checked in full; later ops are byte-identical.
        kern, dist = self._parse(r["kernel"][1]), self._parse(r["distance"][1])
        k = len(self.graphs)
        for a in range(k):
            if dist[a][a] != 0.0:
                problems.append(f"distance diagonal ({a},{a}) is {dist[a][a]!r}")
            if not _close(kern[a][a], _sq_norm(self.gs, self.graphs[a])):
                problems.append(f"kernel diagonal ({a},{a}) is not ||g||^2")
            for b in range(k):
                trick = kern[a][a] + kern[b][b] - 2.0 * kern[a][b]
                if not _close(dist[a][b] ** 2, trick, kern[a][a] + kern[b][b]):
                    problems.append(f"distance^2 ({a},{b}) differs from the kernel trick")
        if dist[0][k - 1] != 0.0:
            problems.append(f"relabelled copy at distance {dist[0][k - 1]!r}, not 0.0")
        return problems

    def oracle_ops(self, done):
        return [0]

    def oracle_check(self, i, r):
        kern, dist = self._parse(r["kernel"][1]), self._parse(r["distance"][1])
        a, b = (int(v) for v in self.rng.choice(GRAM_K - 1, size=2, replace=False))
        order = max(g.order for g in self.graphs)
        ref = oracle.exhaustive(self.graphs[a], self.graphs[b], order)
        problems = []
        if not _close(kern[a][b], ref["kernel_all"]):
            problems.append(f"oracle kernel ({a},{b}): expected {ref['kernel_all']!r}, got {kern[a][b]!r}")
        if not _close(dist[a][b], math.sqrt(ref["sq_metric"])):
            problems.append(f"oracle distance ({a},{b}): expected {math.sqrt(ref['sq_metric'])!r}, "
                            f"got {dist[a][b]!r}")
        return problems


# ---------------------------------------------------------------- geometry-n7

GEOMETRY_ORDER = 7
GEOMETRY_K = 8
GEOMETRY_DIM = 2


class GeometryN7(Workload):
    """One op is one analysis job on K graphs: Frechet mean, an alignment
    along an ordinary center, four expansion checks and one midpoint."""

    name = "geometry-n7"
    POOL = 24

    def __init__(self, gs, seed, workdir):
        super().__init__(gs, seed, workdir)
        sampling, rng = gs.sampling, self.rng
        self.jobs = []
        for _ in range(self.POOL):
            graphs = [sampling.random_graph(rng, GEOMETRY_ORDER, GEOMETRY_DIM)]
            graphs += [sampling.random_graph(rng, int(rng.integers(6, 8)), GEOMETRY_DIM)
                       for _ in range(GEOMETRY_K - 1)]
            center = sampling.random_ordinary_graph(rng, GEOMETRY_ORDER, GEOMETRY_DIM)
            self.jobs.append((graphs, center))

    def input_graphs(self):
        return [g for graphs, center in self.jobs for g in (*graphs, center)]

    def _job(self, graphs, center, pairs: int):
        gs = self.gs
        mean = gs.sample_mean(graphs)
        aligner = gs.Alignment(center, order=GEOMETRY_ORDER)
        rho = aligner.rho_star
        aligned = [aligner.align(g) for g in graphs]
        expansion = [aligner.expansion_check(graphs[k], graphs[k + pairs]) for k in range(pairs)]
        mid = gs.midpoint(graphs[0], graphs[1])
        return {"mean": mean, "rho": rho, "aligned": aligned, "expansion": expansion, "midpoint": mid}

    def warmup(self):
        graphs, center = self.jobs[0]
        return self._job(graphs[:2], center, 1)

    def op(self, i):
        graphs, center = self.jobs[i % self.POOL]
        return self._job(graphs, center, GEOMETRY_K // 2)

    def fingerprint(self, r):
        gs = self.gs
        return repr((gs.serialize_graph(r["mean"].mean), r["mean"].trace, r["mean"].converged, r["rho"],
                     [m.to_bytes() for m in r["aligned"]], [tuple(e) for e in r["expansion"]],
                     gs.serialize_graph(r["midpoint"])))

    def check(self, i, r):
        gs = self.gs
        graphs, center = self.jobs[i % self.POOL]
        problems = []
        trace = r["mean"].trace
        if any(b > a for a, b in zip(trace, trace[1:])):
            problems.append(f"sample_mean trace increases: {trace}")
        if not (0.0 < r["rho"] < math.inf):
            problems.append(f"rho_star is {r['rho']!r}")
        z = gs.to_matrix(center).cells
        for k, (g, m) in enumerate(zip(graphs, r["aligned"])):
            dist = gs.metric(center, g)
            got = float(np.linalg.norm(m.cells - z))
            if not _close(got, dist):
                problems.append(f"aligned graph {k} at {got!r} from the center, metric {dist!r}")
        for k, (delta, aligned) in enumerate(r["expansion"]):
            if aligned < delta - TOL * max(1.0, delta):
                problems.append(f"expansion pair {k}: aligned {aligned!r} < graph distance {delta!r}")
        half = gs.metric(graphs[0], graphs[1]) / 2.0
        for k in (0, 1):
            got = gs.metric(graphs[k], r["midpoint"])
            if not _close(got, half):
                problems.append(f"midpoint at {got!r} from graph {k}, expected {half!r}")
        return problems

    def oracle_check(self, i, r):
        graphs, center = self.jobs[i % self.POOL]
        z = oracle.dense(center, GEOMETRY_ORDER)
        problems = []
        for k, (g, m) in enumerate(zip(graphs, r["aligned"])):
            ref = oracle.exhaustive(center, g, GEOMETRY_ORDER)["sq_metric"]
            got = float(np.sum((m.cells - z) ** 2))
            if not _close(got, ref):
                problems.append(f"oracle: aligned graph {k} at squared distance {got!r}, expected {ref!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (PairN9, GramN8, GeometryN7)}
