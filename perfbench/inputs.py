"""Seeded benchmark inputs, built with NumPy alone.

Nothing here imports ``repro``: the program under test receives only the
arrays and expression strings made here, and a change to the program can
never change what the benchmark feeds it.  Every input function takes
the run's ``--seed``; the same seed gives bit-identical inputs.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["BENCH_GRID", "explore_programs", "field_set", "mesh",
           "structure_key", "velocity"]

# The repo's bench grid (cells per axis) for serve and explore.
BENCH_GRID = (16, 16, 32)
VELOCITY_MODES = 5     # Fourier modes per velocity component

def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), int(stream)])


def mesh(dims, rng: np.random.Generator):
    """Point coordinates of a stretched rectilinear mesh over [0, 1]^3.

    Spacing varies smoothly along each axis, so gradients exercise the
    non-uniform stencil rather than one constant step."""
    coords = []
    for n in dims:
        t = np.linspace(0.0, 1.0, n + 1)
        amp = rng.uniform(0.02, 0.08)
        coords.append(t + amp * np.sin(np.pi * t) / np.pi)
    return tuple(coords)


def velocity(dims, x, y, z, rng: np.random.Generator):
    """A smooth multi-mode velocity field shaped like a mixing layer.

    Each component is a sum of separable Fourier modes with seeded
    wavenumbers, phases and amplitudes, damped away from the mid-plane
    in ``z``.  Returns flat C-order float64 arrays of ``prod(dims)``."""
    centres = [0.5 * (c[:-1] + c[1:]) for c in (x, y, z)]
    X = centres[0][:, None, None]
    Y = centres[1][None, :, None]
    Z = centres[2][None, None, :]
    envelope = np.exp(-((Z - 0.5) / 0.25) ** 2)
    out = []
    for _component in range(3):
        field = np.zeros(tuple(dims))
        for _ in range(VELOCITY_MODES):
            kx, ky, kz = rng.integers(1, 5, size=3)
            px, py, pz = rng.uniform(0.0, 2.0 * np.pi, size=3)
            amp = rng.uniform(0.3, 1.0) / np.sqrt(kx * kx + ky * ky + kz * kz)
            field += amp * (np.sin(2.0 * np.pi * kx * X + px)
                            * np.cos(2.0 * np.pi * ky * Y + py)
                            * np.sin(2.0 * np.pi * kz * Z + pz))
        out.append(np.ascontiguousarray((field * envelope).ravel()))
    return tuple(out)


def field_set(dims, seed: int, index: int) -> dict:
    """One host binding set ``{u, v, w, dims, x, y, z}``."""
    rng = _rng(seed, 1000 + index)
    x, y, z = mesh(dims, rng)
    u, v, w = velocity(dims, x, y, z, rng)
    return {"u": u, "v": v, "w": w,
            "dims": np.asarray(dims, dtype=np.int32),
            "x": x, "y": y, "z": z}


# -- explore: grammar-directed expression generator --------------------------

_CONSTANTS = ("0.5", "2.0", "1.5", "0.25", "3.0")


class _Program:
    """One expression program under construction.

    Scalar values are kept as trees (nested tuples) next to their text,
    so the program's structure can be keyed independently of the names
    it happens to use.  Every primitive is applied where it is finite
    (sqrt and log of a non-negative argument, exp of a non-positive one,
    division by ``1 + b*b``), so no program produces NaN or overflows."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.lines: list[str] = []
        # name -> tree, for assigned scalars and gradients
        self.scalars: dict[str, tuple] = {n: ("src", n) for n in "uvw"}
        self.vectors: dict[str, tuple] = {}
        self.unused: list[str] = []

    def pick(self, options):
        return options[int(self.rng.integers(len(options)))]

    def use(self, name: str) -> None:
        if name in self.unused:
            self.unused.remove(name)

    def leaf(self) -> tuple[str, tuple]:
        roll = self.rng.random()
        if self.vectors and roll < 0.45:
            name = self.pick(sorted(self.vectors))
            k = int(self.rng.integers(3))
            self.use(name)
            return f"{name}[{k}]", ("idx", self.vectors[name], k)
        if roll < 0.85:
            name = self.pick(sorted(self.scalars))
            self.use(name)
            return name, self.scalars[name]
        c = self.pick(_CONSTANTS)
        return c, ("const", c)

    def expr(self, depth: int) -> tuple[str, tuple]:
        if depth <= 0 or self.rng.random() < 0.25:
            return self.leaf()
        kind = self.pick(("bin", "bin", "bin", "unary", "minmax",
                          "vector", "if"))
        if kind == "bin":
            op = self.pick(("+", "-", "*", "/"))
            (a, ta), (b, tb) = self.expr(depth - 1), self.expr(depth - 1)
            if op == "/":     # keep the denominator >= 1
                return (f"({a}) / (1.0 + ({b}) * ({b}))",
                        ("div", ta, tb))
            return f"({a}) {op} ({b})", (op, ta, tb)
        if kind == "unary":
            fn = self.pick(("sqrt", "exp", "log", "abs", "neg"))
            a, ta = self.expr(depth - 1)
            text = {"sqrt": f"sqrt(abs({a}))",
                    "exp": f"exp(-abs({a}))",
                    "log": f"log(1.0 + abs({a}))",
                    "abs": f"abs({a})",
                    "neg": f"-({a})"}[fn]
            return text, (fn, ta)
        if kind == "minmax":
            fn = self.pick(("min", "max"))
            (a, ta), (b, tb) = self.expr(depth - 1), self.expr(depth - 1)
            return f"{fn}({a}, {b})", (fn, ta, tb)
        if kind == "vector" and self.vectors:
            names = sorted(self.vectors)
            g1 = self.pick(names)
            self.use(g1)
            if self.rng.random() < 0.5:
                return f"vmag({g1})", ("vmag", self.vectors[g1])
            g2 = self.pick(names)
            self.use(g2)
            return (f"dot({g1}, {g2})",
                    ("dot", self.vectors[g1], self.vectors[g2]))
        if kind == "if":
            (a, ta), (b, tb) = self.leaf(), self.leaf()
            (c, tc), (d, td) = self.expr(depth - 1), self.expr(depth - 1)
            return (f"if ({a} > {b}) then ({c}) else ({d})",
                    ("if", ta, tb, tc, td))
        return self.leaf()

    def gradient(self, name: str) -> None:
        # The gradient's argument: a velocity component or an earlier
        # scalar statement (a derived field differentiated again).
        # Stencils need a field: constant-valued statements are skipped.
        arg = self.pick(sorted(n for n, t in self.scalars.items()
                               if _varying(t)))
        self.use(arg)
        self.lines.append(f"{name} = grad3d({arg}, dims, x, y, z)")
        self.vectors[name] = ("grad", self.scalars[arg])
        self.unused.append(name)

    def scalar(self, name: str) -> None:
        text, tree = self.expr(int(self.rng.integers(1, 4)))
        self.lines.append(f"{name} = {text}")
        self.scalars[name] = tree
        self.unused.append(name)

    def finish(self) -> tuple[str, tuple]:
        """The result statement: the sum of every value nothing else
        used (at least the last statement), so every statement is live
        in the network."""
        terms, trees = [], []
        for name in list(self.unused):
            if name in self.vectors:
                terms.append(f"vmag({name})")
                trees.append(("vmag", self.vectors[name]))
            else:
                terms.append(name)
                trees.append(self.scalars[name])
        self.lines.append("result = " + " + ".join(terms))
        tree = trees[0]
        for t in trees[1:]:
            tree = ("+", tree, t)
        return "\n".join(self.lines), tree


def _varying(tree: tuple) -> bool:
    """Whether a value depends on a field (not only on constants)."""
    if tree[0] in ("src", "grad"):
        return True
    if tree[0] == "const":
        return False
    return any(_varying(c) for c in tree[1:] if isinstance(c, tuple))


def structure_key(tree: tuple) -> str:
    """The plan structure of a program, with source names erased.

    The engine keys executable plans by network structure with source
    names replaced by their positions, so ``r = u*v`` and ``r = v*w``
    share one plan.  Renaming sources by first appearance reproduces
    that identity, so two programs with distinct keys need distinct
    plans."""
    names: dict[str, str] = {}

    def walk(node) -> str:
        if node[0] == "src":
            names.setdefault(node[1], f"s{len(names)}")
            return names[node[1]]
        if node[0] == "const":
            return node[1]
        if node[0] == "idx":
            return f"{walk(node[1])}[{node[2]}]"
        return node[0] + "(" + ",".join(walk(c) for c in node[1:]) + ")"

    return walk(tree)


def explore_programs(seed: int) -> Iterator[str]:
    """An endless stream of expression programs with pairwise distinct
    structure.

    Each has 1-3 gradients and 4-15 statements in all, like the paper's
    Fig 3 programs; programs whose structure repeats an earlier one are
    dropped, so on a long-lived engine nearly every one misses the plan
    cache."""
    rng = _rng(seed, 2000)
    seen: set[str] = set()
    while True:
        program = _Program(rng)
        n_grad = int(rng.integers(1, 4))
        n_statements = int(rng.integers(max(4, n_grad + 2), 16))
        grad_slots = set(rng.choice(n_statements - 1, size=n_grad,
                                    replace=False).tolist())
        for i in range(n_statements - 1):
            if i in grad_slots:
                program.gradient(f"g{i}")
            else:
                program.scalar(f"t{i}")
        text, tree = program.finish()
        key = structure_key(tree)
        if key in seen:
            continue
        seen.add(key)
        yield text
