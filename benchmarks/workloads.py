"""The four benchmark workloads: inputs built from a seed, one timed library call
per instance, and the output checks that run outside the timed region.

Every workload is an object with the same four methods:

- ``build(sa, seed)`` makes the instances (this is the timed set-up);
- ``run(sa, args)`` is the one library call timed per instance;
- ``summary(out)`` reduces an output to the values kept as golden reference;
- ``check(sa, inst, out)`` runs the independent checks and returns problems.

``sa`` is the imported ``strongarc`` package.  Library functions are looked
up on it at call time, so the tracer's rebinding is seen.

The two random workloads draw from a fixed pool so that a golden value exists
for every seed: a fixed design of cells fixes each instance's factor orders
and arc probabilities, every cell has ``REPLICAS`` random variants, and the
seed picks one variant per cell.  The program sees only the generated
digraphs.  ``CONFIRMATION_SEED`` alone draws the last replica of each cell.
The fixed workloads use the seed to shuffle the instance order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

REPLICAS = 10
# Seed whose random-workload inputs no other seed draws: it alone takes the last
# replica of every cell, so a claimed gain can be confirmed on unseen inputs.
CONFIRMATION_SEED = 1009


@dataclass(frozen=True)
class Instance:
    """One timed call: its reference key and the inputs the workload's ``run`` takes."""

    key: str
    args: tuple


def fresh_args(sa, args: tuple) -> tuple:
    """Copies of the digraph arguments without their cached adjacency lists.

    Every pass then pays for the same work a fresh command-line call would.
    """
    return tuple(sa.Digraph(a.n, a.arcs) if isinstance(a, sa.Digraph) else a for a in args)


def _shuffled(instances: list[Instance], seed: int) -> list[Instance]:
    random.Random(seed).shuffle(instances)
    return instances


# ---------------------------------------------------------------------------
# class-table: lambda_2 on the 144 products of `check table1 --max 4`
# ---------------------------------------------------------------------------


def _table_sides(sa, max_order: int) -> list[tuple[str, str, int, object]]:
    """Factor list of `strongarc check table1`: (label, class, order, digraph)."""
    sides = []
    for cls, low in (("cn", 3), ("bcm", 3), ("btm", 2), ("bkm", 2)):
        for order in range(low, max_order + 1):
            if cls != "btm":
                sides.append((f"{cls}:{order}", cls, order, sa.class_digraph(cls, order)))
                continue
            for kind in ["path"] if order == 2 else ["path", "star"]:
                tree = sa.class_digraph("btm", order, sa.TreeShape(kind, order))
                sides.append((f"btm:{kind}:{order}", cls, order, tree))
    return sides


class ClassTable:
    name = "class-table"

    def build(self, sa, seed: int) -> list[Instance]:
        sides = _table_sides(sa, 4)
        instances = [
            Instance(f"{lg} x {lh}", (sa.cartesian_product(g, h).digraph, cg, n, ch, m))
            for lg, cg, n, g in sides
            for lh, ch, m, h in sides
        ]
        return _shuffled(instances, seed)

    def reference_instances(self, sa) -> list[Instance]:
        return self.build(sa, 0)

    def run(self, sa, args):
        return sa.lambda_2(args[0])

    def summary(self, out) -> list:
        return [out.value, list(out.pair)]

    def check(self, sa, inst: Instance, out) -> list[str]:
        d, cg, n, ch, m = inst.args
        problems = []
        if out.value != sa.class_table_value(cg, ch, n, m):
            problems.append("value differs from class_table_value")
        if not out.exact or len(out.witness.members) != out.value:
            problems.append("witness size differs from value")
        if tuple(out.witness.seed) != tuple(out.pair):
            problems.append("witness seed differs from the reported pair")
        if not sa.verify_certificate(d, out.witness).valid:
            problems.append("witness does not verify")
        return problems


# ---------------------------------------------------------------------------
# random-products: check_bounds on small random factor pairs
# ---------------------------------------------------------------------------


def _factor(sa, cell: int, replica: int, tag: str, order: int, prob: float, name: str):
    rng = random.Random(f"{name}/{cell}/{replica}/{tag}")
    return sa.random_strong_digraph(order, prob, rng.getrandbits(32))


class _PoolWorkload:
    """Instances ``cell/replica`` of a fixed design; the seed picks replicas."""

    name = ""
    cells = 0

    def design(self) -> list[tuple[int, float, int, float]]:
        """(order of g, arc probability of g, order of h, arc probability of h) per cell."""
        raise NotImplementedError

    def _instance(self, sa, cell: int, replica: int, params) -> Instance:
        n_g, p_g, n_h, p_h = params
        g = _factor(sa, cell, replica, "g", n_g, p_g, self.name)
        h = _factor(sa, cell, replica, "h", n_h, p_h, self.name)
        return Instance(f"{cell}/{replica}", (g, h))

    def build(self, sa, seed: int) -> list[Instance]:
        rng = random.Random(seed)
        return [
            self._instance(sa, cell, self._replica(rng, seed), params)
            for cell, params in enumerate(self.design())
        ]

    @staticmethod
    def _replica(rng: random.Random, seed: int) -> int:
        return REPLICAS - 1 if seed == CONFIRMATION_SEED else rng.randrange(REPLICAS - 1)

    def reference_instances(self, sa) -> list[Instance]:
        return [
            self._instance(sa, cell, replica, params)
            for cell, params in enumerate(self.design())
            for replica in range(REPLICAS)
        ]


class RandomProducts(_PoolWorkload):
    """Factor orders 2-4 cycle through all nine order pairs; arc probability in [0, 0.5)."""

    name = "random-products"
    cells = 300

    def design(self):
        rng = random.Random(f"{self.name}/design")
        return [
            (2 + cell % 3, rng.random() * 0.5, 2 + (cell // 3) % 3, rng.random() * 0.5)
            for cell in range(self.cells)
        ]

    def run(self, sa, args):
        return sa.check_bounds(*args)

    def summary(self, out) -> list:
        return [out.lower, out.observed, out.upper]

    def check(self, sa, inst: Instance, out) -> list[str]:
        problems = []
        if not out.sandwich_ok or not out.lower <= out.observed <= out.upper:
            problems.append("sandwich bounds do not hold")
        if out.lower != out.lambda2_g + out.lambda2_h - 1:
            problems.append("lower bound is not lambda2(g) + lambda2(h) - 1")
        prod = sa.cartesian_product(*inst.args).digraph
        report = sa.arc_connectivity(prod)
        if out.upper != report.value:
            problems.append("upper bound differs from the product's arc connectivity")
        if not sa.verify_cut(prod, report.min_cut):
            problems.append("product min cut does not verify")
        return problems


class FlowProducts(_PoolWorkload):
    """Factor orders 5-10 cycle through all 36 order pairs; arc probability in [0.1, 0.4]."""

    name = "flow-products"
    cells = 120

    def design(self):
        rng = random.Random(f"{self.name}/design")
        return [
            (5 + cell % 6, rng.uniform(0.1, 0.4), 5 + (cell // 6) % 6, rng.uniform(0.1, 0.4))
            for cell in range(self.cells)
        ]

    def run(self, sa, args):
        return sa.check_product_formula(*args)

    def summary(self, out) -> list:
        # cut_ok means the returned min cut has exactly ``computed`` arcs and verifies
        cut_size = out.computed if out.cut_ok else None
        return [out.formula.value, out.computed, cut_size]

    def check(self, sa, inst: Instance, out) -> list[str]:
        problems = []
        if not out.holds or not out.cut_ok:
            problems.append("check_product_formula reports a failure")
        prod = sa.cartesian_product(*inst.args).digraph
        report = sa.arc_connectivity(prod)
        if report.value != out.computed or report.value != out.formula.value:
            problems.append("formula, computed value and independent flow disagree")
        if len(report.min_cut) != report.value or not sa.verify_cut(prod, report.min_cut):
            problems.append("independent min cut does not verify")
        return problems


# ---------------------------------------------------------------------------
# certify: certificate families at every seed pair
# ---------------------------------------------------------------------------

# (class, order, tree shape) of the factors of the lifted products
_LIFT_PRODUCTS = (
    (("cn", 5, None), ("btm", 6, "star")),
    (("bkm", 3, None), ("bcm", 6, None)),
    (("bcm", 4, None), ("bkm", 4, None)),
    (("cn", 4, None), ("cn", 6, None)),
)

# (function name, n, m, guaranteed member count)
_FAMILIES = (
    ("cycle_cycle_family", 6, 6, 2),
    ("cycle_bicycle_family", 5, 6, 3),
    ("cycle_complete_family", 4, 5, 5),
)


def _seed_pairs(n: int, m: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    cells = [divmod(v, m) for v in range(n * m)]
    return [(cells[a], cells[b]) for a in range(len(cells)) for b in range(a + 1, len(cells))]


def _token(cls: str, order: int, shape: str | None) -> str:
    return f"{cls}:{shape}:{order}" if shape else f"{cls}:{order}"


class Certify:
    name = "certify"

    def __init__(self) -> None:
        self._lift_lower: dict = {}  # (g, h) -> lambda2(g) + lambda2(h) - 1

    def build(self, sa, seed: int) -> list[Instance]:
        instances = []
        for factors in _LIFT_PRODUCTS:
            (cg, n, sg), (ch, m, sh) = factors
            g = sa.class_digraph(cg, n, sa.TreeShape(sg, n) if sg else None)
            h = sa.class_digraph(ch, m, sa.TreeShape(sh, m) if sh else None)
            spec = f"lift {_token(cg, n, sg)} x {_token(ch, m, sh)}"
            for k, (x, y) in enumerate(_seed_pairs(n, m)):
                instances.append(Instance(f"{spec} #{k}", ("lift_certificates", g, h, x, y)))
        for func, n, m, _ in _FAMILIES:
            for k, (x, y) in enumerate(_seed_pairs(n, m)):
                instances.append(Instance(f"{func} {n}x{m} #{k}", (func, n, m, x, y)))
        return _shuffled(instances, seed)

    def reference_instances(self, sa) -> list[Instance]:
        return self.build(sa, 0)

    def run(self, sa, args):
        return getattr(sa, args[0])(*args[1:])

    def summary(self, out) -> int:
        return len(out[1].members)

    def check(self, sa, inst: Instance, out) -> list[str]:
        prod, fam = out
        func, a, b, x, y = inst.args
        problems = []
        if func == "lift_certificates":
            if (a, b) not in self._lift_lower:
                self._lift_lower[a, b] = sa.lambda_2(a).value + sa.lambda_2(b).value - 1
            need = self._lift_lower[a, b]
        else:
            need = next(size for name, n, m, size in _FAMILIES if (name, n, m) == (func, a, b))
        if len(fam.members) < need:
            problems.append(f"family has {len(fam.members)} members, needs {need}")
        if tuple(fam.seed) != tuple(sorted((prod.encode(*x), prod.encode(*y)))):
            problems.append("family seed is not the requested seed pair")
        if not sa.verify_certificate(prod.digraph, fam).valid:
            problems.append("family does not verify")
        return problems


WORKLOADS = {w.name: w for w in (ClassTable(), RandomProducts(), FlowProducts(), Certify())}
