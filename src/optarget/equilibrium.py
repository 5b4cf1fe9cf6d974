"""Steady-state opinions and the targeting objective.

An :class:`Instance` fixes the regular-agent graph, the opponent's attachment
set (opinion -1), any pre-placed own attachments (opinion +1), and the link
budget. Evaluating a candidate target set yields the steady-state opinion
vector of the regular agents and the objective: the mean steady-state opinion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .engine import OpinionSolver, SolverConvergenceError, _as_index, _as_int
from .graphs import Graph, is_connected

__all__ = [
    "Instance",
    "EquilibriumProfile",
    "SolverConvergenceError",
    "solve_equilibrium",
    "verify_electrical",
]

ELECTRICAL_ATOL = 1e-8


@dataclass(frozen=True)
class Instance:
    """A targeting problem: graph, opponent links, own pre-placed links, budget.

    ``minus_set`` may be empty for degenerate configurations (e.g. measuring a
    one-sided consensus); in that case at least one plus-side attachment must
    exist whenever an equilibrium is requested.
    """

    graph: Graph
    minus_set: frozenset[int]
    plus_base: frozenset[int] = frozenset()
    budget: int = 1

    def __post_init__(self):
        n = self.graph.node_count
        for name in ("minus_set", "plus_base"):
            ids = _as_index(frozenset(getattr(self, name)), n)
            object.__setattr__(self, name, frozenset(ids.tolist()))
        object.__setattr__(self, "budget", _as_int(self.budget, "budget"))
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.budget > n - len(self.plus_base):
            raise ValueError(
                f"budget {self.budget} exceeds the {n - len(self.plus_base)} "
                "untargeted regular nodes"
            )
        if not is_connected(self.graph):
            raise ValueError("regular graph must be connected")

    @cached_property
    def solver(self) -> OpinionSolver:
        """Factorized evaluation engine for this base (built once, reused)."""
        return OpinionSolver(self.graph, sorted(self.minus_set), sorted(self.plus_base))

    @cached_property
    def candidates(self) -> tuple[int, ...]:
        """Nodes available for new plus links, ascending (built once)."""
        return tuple(
            v for v in range(self.graph.node_count) if v not in self.plus_base
        )


@dataclass(frozen=True)
class EquilibriumProfile:
    """Steady-state opinions of the regular agents for one target set."""

    opinions: np.ndarray = field(repr=False)
    objective: float
    target_set: frozenset[int]

    def __post_init__(self):
        self.opinions.setflags(write=False)


def solve_equilibrium(inst: Instance, extra: Iterable[int] = ()) -> EquilibriumProfile:
    """Compute the steady-state opinion profile with extra plus targets.

    The returned opinions satisfy the balance equations to a residual
    infinity-norm of ``1e-10 * max(1, d_max)``; a worse residual raises
    :class:`SolverConvergenceError` rather than returning a truncated answer.
    The engine rejects target ids that are fractional, out of range, repeated
    or already hold a plus link.
    """
    extra = tuple(extra)
    x, f = inst.solver._evaluate(extra)
    return EquilibriumProfile(opinions=x, objective=f, target_set=frozenset(map(int, extra)))


def _augmented_laplacian(inst: Instance, targets: np.ndarray) -> sp.csc_matrix:
    """Laplacian of the graph augmented with the plus source (node n) and the
    minus source (node n + 1).

    Assembled as COO from the edge arrays, independently of the evaluation
    engine, so it serves as a genuine cross-check of the solver output.
    """
    n = inst.graph.node_count
    graph_edges = sp.triu(inst.graph.adjacency_csr(), k=1).tocoo()
    plus = sorted(inst.plus_base.union(targets.tolist()))
    minus = sorted(inst.minus_set)
    u = np.concatenate((graph_edges.row, plus, minus)).astype(np.int64)
    v = np.concatenate(
        (graph_edges.col, [n] * len(plus), [n + 1] * len(minus))).astype(np.int64)
    ones = np.ones(len(u))
    lap = sp.coo_matrix(
        (np.concatenate((ones, ones, -ones, -ones)),
         (np.concatenate((u, v, u, v)), np.concatenate((u, v, v, u)))),
        shape=(n + 2, n + 2),
    )
    return lap.tocsc()


def verify_electrical(inst: Instance, extra: Iterable[int],
                      profile: EquilibriumProfile) -> bool:
    """Check opinions against node voltages of the equivalent resistor network.

    The two strategic agents become fixed potential sources at +1 and -1, every
    link a unit conductance. Voltages of the regular nodes are the solution of
    the fixed-potential problem (zero net current at every regular node); the
    check passes iff they match the profile entrywise within ``ELECTRICAL_ATOL``.
    """
    lap = _augmented_laplacian(inst, inst.solver._extra_index(extra))
    n = inst.graph.node_count
    # The sources' fixed potentials (+1, -1) move to the right-hand side.
    rhs = -(lap[:n, n:] @ np.array([1.0, -1.0]))
    # SuperLU at every n, with a symmetric order and diagonal pivots (M is SPD).
    voltages = spla.splu(lap[:n, :n], permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True}).solve(rhs)
    return bool(np.abs(voltages - profile.opinions).max() <= ELECTRICAL_ATOL)
