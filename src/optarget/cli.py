"""Command-line front end: graph generation, single solves, batch experiments.

Exit codes: 0 success, 1 usage error or out of memory, 2 solver failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import experiments, heuristics
from .engine import SolverConvergenceError
from .equilibrium import Instance
from .graphs import (
    EdgeListError,
    generate_complete,
    generate_erdos_renyi,
    generate_line,
    generate_poisson_tree,
    load_edge_list,
    write_edge_list,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3

ALGORITHMS = {label: getattr(heuristics, solver)
              for label, solver in experiments.SOLVERS.items()}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="optarget",
                     description="Targeting solvers for competing-agent opinion networks")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph as an edge-list file")
    gen.add_argument("--kind", required=True, choices=("er", "complete", "line", "tree"))
    gen.add_argument("--n", type=int, required=True,
                     help="node count (for trees: the node cap)")
    gen.add_argument("--a", type=float, default=None,
                     help="ER connectivity parameter; edge probability min(1, a*log(n)/n)")
    gen.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="mean offspring count for branching trees")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="run one solver on one instance")
    solve.add_argument("--graph", required=True, help="edge-list file")
    solve.add_argument("--minus", type=_int_list, required=True,
                       help="comma-separated opponent attachment nodes")
    solve.add_argument("--plus-base", type=_int_list, default=[],
                       help="comma-separated pre-placed own attachments")
    solve.add_argument("--k-plus", type=int, default=1)
    solve.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))

    exp = sub.add_parser("experiment", help="run a batch experiment, emit CSV")
    exp.add_argument("--experiment", required=True, choices=experiments.EXPERIMENTS)
    exp.add_argument("--n", type=_int_list, default=None)
    exp.add_argument("--a", type=_float_list, default=None)
    exp.add_argument("--lambda", dest="lam", type=_float_list, default=None)
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--k-plus", type=int, default=None)
    exp.add_argument("--minus-count", type=int, default=None)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--edge-p", type=float, default=None,
                     help="fixed edge probability (treelike-otp)")
    exp.add_argument("--graph", default=None, help="edge-list path (facebook)")
    exp.add_argument("--out", default=None, help="CSV output path; stdout if omitted")
    return parser


def _cmd_generate(args) -> int:
    if args.kind == "er":
        if args.a is None:
            raise ValueError("--kind er needs --a")
        p = experiments.er_edge_probability(args.n, args.a)
        g = generate_erdos_renyi(args.n, p, args.seed)
    elif args.kind == "complete":
        g = generate_complete(args.n)
    elif args.kind == "line":
        g = generate_line(args.n)
    else:
        if args.lam is None:
            raise ValueError("--kind tree needs --lambda")
        g = generate_poisson_tree(args.lam, max_nodes=args.n, seed=args.seed)
    write_edge_list(g, args.out)
    print(f"wrote {g.node_count} nodes, {g.edge_count} edges to {args.out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = load_edge_list(args.graph)
    inst = Instance(g, frozenset(args.minus), frozenset(args.plus_base), args.k_plus)
    out = ALGORITHMS[args.algorithm](inst)
    chosen = ",".join(str(v) for v in sorted(out.chosen_set))
    print("algorithm,chosen_set,f_plus,evaluations,visited_nodes")
    print(f"{args.algorithm},\"{chosen}\",{out.objective:.12g},"
          f"{out.equilibrium_evaluations},{out.visited_nodes}")
    print(f"# chose {{{chosen}}} with mean opinion {out.objective:.6g} "
          f"({out.equilibrium_evaluations} equilibrium evaluations, "
          f"{out.visited_nodes} candidates visited)")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    overrides = {name: value for name, value in (
        ("n", args.n), ("a", args.a), ("lam", args.lam), ("trials", args.trials),
        ("k_plus", args.k_plus), ("minus_count", args.minus_count),
        ("edge_p", args.edge_p), ("graph_path", args.graph)) if value is not None}
    cfg = experiments.default_config(args.experiment, seed=args.seed, **overrides)
    if cfg.graph_path:
        g = load_edge_list(cfg.graph_path)
        density = g.edge_count / g.node_count**2
        print(f"# graph: {g.node_count} nodes, {g.edge_count} edges, "
              f"density {density:.3g}", file=sys.stderr)
        cfg = dataclasses.replace(cfg, graph=g)
    rows = experiments.run_experiment(cfg)
    if args.out:
        experiments.write_csv(rows, args.out)
        print(f"# wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(experiments.rows_to_csv(rows))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_experiment(args)
    except SolverConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (EdgeListError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, experiments.ResampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
