"""Command-line front end: validation, solving, generation, rendering.

Exit codes: 0 success, 1 invalid or unreadable instance, 2 internal solver
assertion, 3 oracle mismatch under --oracle-check.
"""

from __future__ import annotations

import argparse
import glob as globlib
import os
import sys
import time
from fractions import Fraction

from .exact import build_model, export_lp, solve_branch_and_bound
from .flow import (
    FlowInfeasibleError,
    SolverInternalError,
    build_network,
    dump_network,
    minimize_area,
    minimize_bounding_box,
    solve_min_cost_flow,
)
from .generate import gen_random_instance
from .io import Instance, load_instance, load_representation, save_instance, save_representation
from .model import (
    InvalidInstanceError,
    LayeredGraph,
    Representation,
    StripInfeasibleError,
    contact_report,
    validate_graph,
)
from .oracle import (
    GridSearchConfig,
    OracleCapError,
    brute_force_max_contacts,
    brute_force_min_gap,
)
from .svg import render_svg
from .twolayer import maximize_contacts_2layer

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2
EXIT_ORACLE_MISMATCH = 3


class OracleMismatch(RuntimeError):
    pass


def _oracle_config(instance: Instance) -> GridSearchConfig:
    if instance.epsilon.denominator != 1:
        raise OracleCapError(
            f"oracle requires an integer epsilon, instance has {instance.epsilon}"
        )
    return GridSearchConfig(epsilon=int(instance.epsilon))


def _print_summary(path: str, g: LayeredGraph) -> None:
    sizes = [g.layer_size(i) for i in range(g.num_layers)]
    strip = g.max_width * g.max_layer_size
    print(
        f"instance: {path}  L={g.num_layers} sizes={sizes} "
        f"W_max={g.max_row_width} strip={strip}"
    )


def _validated(path: str) -> Instance:
    instance = load_instance(path)
    violations = validate_graph(instance.graph)
    if violations:
        raise InvalidInstanceError(
            f"{path}: invalid instance:\n  " + "\n  ".join(violations)
        )
    return instance


def _emit_outputs(args, g: LayeredGraph, representation: Representation) -> None:
    if getattr(args, "json", None):
        save_representation(args.json, representation)
        print(f"representation written to {args.json}")
    if getattr(args, "svg", None):
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_svg(g, representation))
        print(f"svg written to {args.svg}")


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path in _expand(args):
        try:
            instance = load_instance(path)
        except InvalidInstanceError as exc:
            print(exc)
            status = max(status, EXIT_INVALID)
            continue
        violations = validate_graph(instance.graph)
        if violations:
            print(f"{path}: invalid")
            for violation in violations:
                print(f"  {violation}")
            status = max(status, EXIT_INVALID)
        else:
            print(f"{path}: valid")
    return status


def _solve_area_min(args, path: str, instance: Instance) -> None:
    g = instance.graph
    if args.dump_network:
        with open(args.dump_network, "w", encoding="utf-8") as handle:
            handle.write(dump_network(build_network(g)))
        print(f"network written to {args.dump_network}")
    started = time.perf_counter()
    outcome = minimize_area(g, instance.epsilon)
    elapsed = (time.perf_counter() - started) * 1000
    report = contact_report(g, outcome.representation)
    if report.gap_total != outcome.gap_total or report.false_adjacencies:
        raise SolverInternalError("report does not match the emitted layout")
    print("solver: min-cost flow (area)")
    print(f"objective: gap_total {outcome.gap_total}")
    print(f"time: {elapsed:.1f} ms")
    if args.oracle_check:
        oracle_gap, _ = brute_force_min_gap(g, _oracle_config(instance))
        if oracle_gap != outcome.gap_total:
            raise OracleMismatch(
                f"oracle min gap {oracle_gap} != solver {outcome.gap_total}"
            )
        print("oracle-check: ok")
    _emit_outputs(args, g, outcome.representation)


def _solve_bbox_min(args, path: str, instance: Instance) -> None:
    g = instance.graph
    if args.dump_network:
        with open(args.dump_network, "w", encoding="utf-8") as handle:
            handle.write(dump_network(build_network(g)))
        print(f"network written to {args.dump_network}")
    started = time.perf_counter()
    outcome = minimize_bounding_box(g, instance.epsilon)
    elapsed = (time.perf_counter() - started) * 1000
    report = contact_report(g, outcome.representation)
    if report.bbox_width > outcome.width or report.false_adjacencies:
        raise SolverInternalError("report does not match the emitted layout")
    print("solver: longest-path width + one min-cost flow (bounding box)")
    print(f"objective: width {outcome.width} ({outcome.flow_solves} flow solves)")
    print(f"time: {elapsed:.1f} ms")
    if args.oracle_check:
        # Minimality certificate: one narrower column must be infeasible.
        if outcome.width > g.max_row_width:
            try:
                solve_min_cost_flow(build_network(g, supply=outcome.width - 1))
            except FlowInfeasibleError:
                pass
            else:
                raise OracleMismatch(f"width {outcome.width - 1} is also feasible")
        print("oracle-check: ok")
    _emit_outputs(args, g, outcome.representation)


def _solve_max_contacts(args, path: str, instance: Instance) -> None:
    g = instance.graph
    num_edges = len(g.edges())
    if args.emit_lp:
        with open(args.emit_lp, "w", encoding="utf-8") as handle:
            handle.write(export_lp(build_model(g, instance.epsilon)))
        print(f"lp model written to {args.emit_lp}")
    use_sweep = g.num_layers == 2 and not args.exact
    started = time.perf_counter()
    if use_sweep:
        outcome = maximize_contacts_2layer(g, instance.epsilon)
        representation = outcome.representation
        realized = outcome.realized_count
        solver = "two-layer sweep"
    else:
        outcome = solve_branch_and_bound(build_model(g, instance.epsilon))
        representation = outcome.representation
        realized = num_edges - outcome.lost_count
        solver = "branch and bound"
    elapsed = (time.perf_counter() - started) * 1000
    report = contact_report(g, representation)
    if len(report.realized) != realized or report.false_adjacencies:
        raise SolverInternalError("report does not match the emitted layout")
    print(f"solver: {solver}")
    print(f"objective: realized {realized}/{num_edges} (lost {num_edges - realized})")
    print(f"time: {elapsed:.1f} ms")
    if args.oracle_check:
        oracle_count, _ = brute_force_max_contacts(g, _oracle_config(instance))
        if oracle_count != realized:
            raise OracleMismatch(f"oracle realizes {oracle_count}, solver {realized}")
        print("oracle-check: ok")
    _emit_outputs(args, g, representation)


def cmd_solve(args) -> int:
    handlers = {
        "area-min": _solve_area_min,
        "bbox-min": _solve_bbox_min,
        "max-contacts": _solve_max_contacts,
    }
    status = EXIT_OK
    for path in _expand(args):
        try:
            instance = _validated(path)
            _print_summary(path, instance.graph)
            handlers[args.command](args, path, instance)
        except (InvalidInstanceError, OracleCapError) as exc:
            print(exc)
            status = max(status, EXIT_INVALID)
        except OracleMismatch as exc:
            print(f"oracle mismatch: {exc}")
            status = max(status, EXIT_ORACLE_MISMATCH)
        except StripInfeasibleError as exc:
            print(f"infeasible: {exc}")
            status = max(status, EXIT_INTERNAL)
        except (SolverInternalError, AssertionError, RuntimeError) as exc:
            print(f"internal error: {exc}")
            status = max(status, EXIT_INTERNAL)
    return status


def cmd_oracle(args) -> int:
    status = EXIT_OK
    for path in _expand(args):
        try:
            instance = _validated(path)
            _print_summary(path, instance.graph)
            g = instance.graph
            cfg = _oracle_config(instance)
            if args.mode == "area-min":
                gap, witness = brute_force_min_gap(g, cfg)
                print(f"oracle: min gap_total {gap}")
            else:
                count, witness = brute_force_max_contacts(g, cfg)
                print(f"oracle: realized {count}/{len(g.edges())}")
            _emit_outputs(args, g, witness)
        except (InvalidInstanceError, OracleCapError) as exc:
            print(exc)
            status = max(status, EXIT_INVALID)
        except StripInfeasibleError as exc:
            print(f"infeasible: {exc}")
            status = max(status, EXIT_INTERNAL)
    return status


def cmd_gen(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("LAYERCLOUD_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    sizes = [int(part) for part in args.sizes.split(",")]
    lo, hi = (int(part) for part in args.width_range.split(":"))
    try:
        g = gen_random_instance(len(sizes), sizes, (lo, hi), seed=seed)
    except ValueError as exc:
        print(exc)
        return EXIT_INVALID
    instance = Instance(graph=g, epsilon=Fraction(args.epsilon))
    save_instance(args.out, instance)
    print(f"instance written to {args.out} (seed {seed})")
    return EXIT_OK


def cmd_render(args) -> int:
    try:
        instance = _validated(args.instance)
        representation = load_representation(args.rep)
    except InvalidInstanceError as exc:
        print(exc)
        return EXIT_INVALID
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_svg(instance.graph, representation))
    print(f"svg written to {args.out}")
    return EXIT_OK


def _expand(args) -> list[str]:
    if getattr(args, "glob", False):
        matches: list[str] = []
        for pattern in args.paths:
            matches.extend(sorted(globlib.glob(pattern)))
        return matches
    return list(args.paths)


def _add_common_solve_options(parser: argparse.ArgumentParser, network: bool) -> None:
    parser.add_argument("paths", nargs="+", metavar="PATH", help="instance file(s)")
    parser.add_argument("--glob", action="store_true", help="treat PATH as glob pattern")
    parser.add_argument("--json", help="write the representation to this file")
    parser.add_argument("--svg", help="render the layout to this SVG file")
    parser.add_argument(
        "--oracle-check",
        action="store_true",
        help="re-solve with the brute-force oracle and fail on mismatch",
    )
    if network:
        parser.add_argument(
            "--dump-network", help="write the flow network arc list to this file"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layercloud",
        description="Layered rectangle contact layouts: gap-minimal or contact-maximal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check instance files")
    validate.add_argument("paths", nargs="+", metavar="PATH")
    validate.add_argument("--glob", action="store_true")
    validate.set_defaults(handler=cmd_validate)

    area = sub.add_parser("area-min", help="minimize total gap length")
    _add_common_solve_options(area, network=True)
    area.set_defaults(handler=cmd_solve)

    bbox = sub.add_parser("bbox-min", help="minimize the bounding-box width")
    _add_common_solve_options(bbox, network=True)
    bbox.set_defaults(handler=cmd_solve)

    contacts = sub.add_parser("max-contacts", help="maximize realized contacts")
    _add_common_solve_options(contacts, network=False)
    contacts.add_argument(
        "--exact",
        action="store_true",
        help="force the exact solver even on two-layer instances",
    )
    contacts.add_argument("--emit-lp", help="write the model in LP format to this file")
    contacts.set_defaults(handler=cmd_solve)

    oracle = sub.add_parser("oracle", help="brute-force reference solver")
    oracle.add_argument("mode", choices=["area-min", "max-contacts"])
    oracle.add_argument("paths", nargs="+", metavar="PATH")
    oracle.add_argument("--glob", action="store_true")
    oracle.add_argument("--json", help="write the witness to this file")
    oracle.add_argument("--svg", help="render the witness to this SVG file")
    oracle.set_defaults(handler=cmd_oracle)

    gen = sub.add_parser("gen", help="generate a random valid instance")
    gen.add_argument("--sizes", required=True, help="comma-separated layer sizes")
    gen.add_argument("--width-range", default="1:5", help="lo:hi integer widths")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (LAYERCLOUD_SEED overrides)")
    gen.add_argument("--epsilon", default="1", help="contact threshold for the instance")
    gen.add_argument("--out", required=True, help="output instance file")
    gen.set_defaults(handler=cmd_gen)

    render = sub.add_parser("render", help="render a stored representation")
    render.add_argument("instance", help="instance file")
    render.add_argument("--rep", required=True, help="representation file")
    render.add_argument("--out", required=True, help="output SVG file")
    render.set_defaults(handler=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
