"""Command-line interface: solve instances and regenerate experiments.

Eight subcommands::

    python -m repro.cli solve --dataset rand-mc-c2 --algorithm bsm-saturate \
        --k 5 --tau 0.8
    python -m repro.cli figure fig3 --scale small
    python -m repro.cli chart fig3 --metric fairness    # ASCII line plot
    python -m repro.cli pareto --dataset rand-mc-c2 --k 5
    python -m repro.cli datasets            # list the catalogue
    python -m repro.cli serve               # JSON-lines daemon on stdio
    python -m repro.cli serve --tcp 127.0.0.1:7077      # asyncio TCP front-end
    python -m repro.cli request '{"op": "solve", "dataset": "rand-mc-c2"}'
    python -m repro.cli loadgen --tcp 127.0.0.1:7077 --connections 8

The CLI is a thin veneer over :class:`repro.core.problem.BSMProblem`,
:mod:`repro.experiments.figures` and the persistent service layer
(:mod:`repro.service`); anything it prints can be produced
programmatically too. ``serve`` keeps solver sessions warm across
requests (sampled RR collections, benefit matrices, evaluation bundles
survive between lines), which is what makes repeated requests against
one dataset cheap; ``request`` is the matching one-shot runner. The
``update`` op additionally takes ``edge_events`` — arc-level graph
mutations (``[["set_probability", u, v, p], ...]``) that warm influence
sessions absorb by repairing their sampled state in place rather than
resampling (see DESIGN.md §9).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.problem import BSMProblem
from repro.datasets.registry import DATASETS, load_dataset
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.reporting import render_series
from repro.utils.parallel import set_default_backend


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker-pool width for RR sampling and Monte-Carlo "
            "evaluation (default: serial; -1 = one per *available* CPU, "
            "i.e. the scheduling affinity mask, not the machine core "
            "count; results are identical for every positive worker "
            "count)"
        ),
    )


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help=(
            "worker-pool flavour for --workers: 'thread' (default) "
            "shares CSR arrays zero-copy and releases the GIL inside "
            "the numpy/compiled kernels, 'process' forks a "
            "shared-memory pool, 'serial' runs the decomposition "
            "inline; results are bitwise-identical across backends"
        ),
    )


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        choices=["ram", "mmap"],
        default="ram",
        help=(
            "storage tier for sampled RR sets: 'ram' keeps flat "
            "in-memory arrays, 'mmap' streams them into memory-mapped "
            "segments so graphs far larger than RAM stay solvable"
        ),
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=0,
        help=(
            "resident-byte budget for --store mmap (sets the segment "
            "size; 0 = default 32 MiB segments)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Balancing Utility and Fairness in Submodular Maximization "
            "(EDBT 2024) — reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one BSM instance")
    solve.add_argument("--dataset", required=True, choices=sorted(DATASETS))
    solve.add_argument(
        "--algorithm",
        default="bsm-saturate",
        help="solver name (see BSMProblem.available_algorithms)",
    )
    solve.add_argument("--k", type=int, default=5)
    solve.add_argument("--tau", type=float, default=0.8)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--im-samples", type=int, default=2_000,
        help="RR samples for influence datasets",
    )
    _add_workers_flag(solve)
    _add_backend_flag(solve)
    _add_store_flags(solve)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("figure_id", choices=sorted(FIGURES))
    figure.add_argument("--scale", default="small", choices=["small", "paper"])
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument(
        "--metric",
        default="utility",
        choices=["utility", "fairness", "runtime"],
    )
    _add_workers_flag(figure)

    chart = sub.add_parser(
        "chart", help="regenerate one figure as an ASCII line chart"
    )
    chart.add_argument("figure_id", choices=sorted(FIGURES))
    chart.add_argument("--scale", default="small", choices=["small", "paper"])
    chart.add_argument("--seed", type=int, default=0)
    chart.add_argument(
        "--metric",
        default="utility",
        choices=["utility", "fairness", "runtime"],
    )
    chart.add_argument("--width", type=int, default=60)
    chart.add_argument("--height", type=int, default=16)
    _add_workers_flag(chart)

    pareto = sub.add_parser(
        "pareto", help="print the utility-fairness frontier of a tau sweep"
    )
    pareto.add_argument("--dataset", required=True, choices=sorted(DATASETS))
    pareto.add_argument("--k", type=int, default=5)
    pareto.add_argument("--seed", type=int, default=0)
    pareto.add_argument(
        "--algorithms",
        nargs="+",
        default=["BSM-TSGreedy", "BSM-Saturate"],
    )
    pareto.add_argument(
        "--taus",
        nargs="+",
        type=float,
        default=[0.1, 0.3, 0.5, 0.7, 0.9],
    )
    _add_workers_flag(pareto)

    sub.add_parser("datasets", help="list the dataset catalogue")

    serve = sub.add_parser(
        "serve",
        help=(
            "run the persistent solver service (JSON lines on stdio, "
            "or TCP with --tcp)"
        ),
    )
    serve.add_argument(
        "--max-sessions", type=int, default=8,
        help="warm dataset sessions kept live (LRU beyond this)",
    )
    serve.add_argument(
        "--tcp", metavar="HOST:PORT", default=None,
        help=(
            "listen on TCP instead of stdio (same JSON-lines wire "
            "format; port 0 binds an ephemeral port, announced on "
            "stdout)"
        ),
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=256,
        help=(
            "TCP admission control: requests admitted but unanswered "
            "beyond this are rejected immediately with ok:false, "
            "error:'overloaded' and a retry_after_ms hint"
        ),
    )
    serve.add_argument(
        "--max-inflight", type=int, default=2,
        help="TCP: engine batches in flight per shard",
    )
    serve.add_argument(
        "--batch-window-ms", type=float, default=5.0,
        help=(
            "TCP micro-batching: the longest a greedy solve alone in "
            "its shard's queue waits for a same-key partner (capped "
            "further by the last measured run of that key), so "
            "compatible solves coalesce across connections; any request "
            "queued behind it ends the wait, and other requests never wait"
        ),
    )
    serve.add_argument(
        "--max-line-bytes", type=int, default=1 << 20,
        help="TCP: longest accepted request line",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help=(
            "TCP: engine worker processes; requests route by dataset "
            "(crc32(dataset) %% shards) so warm sessions stay affine. "
            "1 (default) keeps the engine in-process"
        ),
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help=(
            "TCP: also serve Prometheus text metrics over HTTP on this "
            "port (0 binds an ephemeral port, announced on stdout)"
        ),
    )
    _add_workers_flag(serve)
    _add_backend_flag(serve)
    _add_store_flags(serve)

    request = sub.add_parser(
        "request",
        help="run one service request in-process and print the response",
    )
    request.add_argument(
        "request_json",
        help=(
            "JSON request object, e.g. "
            "'{\"op\": \"solve\", \"dataset\": \"rand-mc-c2\", \"k\": 5}'"
        ),
    )
    request.add_argument(
        "--tcp", metavar="HOST:PORT", default=None,
        help=(
            "send the request to a running `repro serve --tcp` server "
            "instead of solving in-process"
        ),
    )
    request.add_argument(
        "--timeout", type=float, default=60.0,
        help=(
            "TCP connect/read timeout in seconds (0 waits forever); "
            "a timeout exits with status 3 and a one-line error"
        ),
    )
    _add_workers_flag(request)
    _add_backend_flag(request)

    loadgen = sub.add_parser(
        "loadgen",
        help=(
            "open-loop load generator against a running "
            "`repro serve --tcp` endpoint; prints a JSON report"
        ),
    )
    loadgen.add_argument(
        "--tcp", metavar="HOST:PORT", required=True,
        help="server address to drive",
    )
    loadgen.add_argument("--connections", type=int, default=8)
    loadgen.add_argument(
        "--rate", type=float, default=100.0,
        help="aggregate arrival rate, requests/second (open loop)",
    )
    loadgen.add_argument("--duration", type=float, default=2.0)
    loadgen.add_argument(
        "--requests", type=int, default=None,
        help="total request count (overrides --duration)",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--datasets", nargs="+", default=["rand-mc-c2"],
        choices=sorted(DATASETS),
    )
    loadgen.add_argument(
        "--mix", default="solve=0.55,evaluate=0.2,update=0.15,stats=0.1",
        help="op weights, e.g. 'solve=0.8,stats=0.2'",
    )
    loadgen.add_argument("--im-samples", type=int, default=300)
    loadgen.add_argument(
        "--schema", type=int, default=2, choices=[1, 2],
        help="wire version to emit (2 = typed envelope, 1 = flat)",
    )
    return parser


def cmd_solve(args: argparse.Namespace) -> int:
    set_default_backend(args.backend)
    data = load_dataset(args.dataset, seed=args.seed)
    if data.kind == "influence":
        from repro.problems.influence import InfluenceObjective

        store = getattr(args, "store", "ram")
        budget = getattr(args, "memory_budget", 0) or None
        objective = InfluenceObjective.from_graph(
            data.graph, args.im_samples, seed=args.seed,
            workers=args.workers,
            store=store, memory_budget=budget,
        )
    else:
        objective = data.objective
    problem = BSMProblem(objective, k=args.k, tau=args.tau)
    result = problem.solve(args.algorithm)
    print(result.summary())
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    results = run_figure(
        args.figure_id, scale=args.scale, seed=args.seed, workers=args.workers
    )
    for panel, sweep in results.items():
        print(f"\n[{args.figure_id} {panel}]")
        print(render_series(sweep, args.metric))
    return 0


def cmd_chart(args: argparse.Namespace) -> int:
    from repro.experiments.plotting import sweep_chart

    results = run_figure(
        args.figure_id, scale=args.scale, seed=args.seed, workers=args.workers
    )
    for panel, sweep in results.items():
        print(f"\n[{args.figure_id} {panel}]")
        print(
            sweep_chart(
                sweep, args.metric, width=args.width, height=args.height
            )
        )
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    from repro.experiments.harness import sweep_tau
    from repro.experiments.pareto import hypervolume, pareto_frontier

    data = load_dataset(args.dataset, seed=args.seed)
    sweep = sweep_tau(
        data,
        args.k,
        args.taus,
        algorithms=args.algorithms,
        seed=args.seed,
        workers=args.workers,
    )
    for algorithm in args.algorithms:
        frontier = pareto_frontier(sweep, algorithm)
        print(f"\n{algorithm}: hypervolume={hypervolume(frontier):.4f}")
        for point in frontier:
            print(
                f"  tau={point.tau:.2f}  g(S)={point.fairness:.4f}  "
                f"f(S)={point.utility:.4f}"
            )
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    for name in sorted(DATASETS):
        print(name)
    return 0


def _parse_hostport(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--tcp expects HOST:PORT, got {spec!r}")
    return host, int(port)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceEngine, serve_forever

    engine_config = dict(
        workers=args.workers, exec_backend=args.backend,
        max_sessions=args.max_sessions,
        store=args.store, memory_budget=args.memory_budget or None,
    )
    if args.tcp:
        from repro.service.server import run_tcp_server

        if args.shards < 1:
            raise SystemExit(f"--shards must be >= 1, got {args.shards}")
        host, port = _parse_hostport(args.tcp)
        # Engines are built from the config, not passed in: with
        # --shards > 1 each worker process constructs its own.
        return run_tcp_server(
            host=host, port=port,
            max_queue_depth=args.max_queue_depth,
            max_inflight=args.max_inflight,
            batch_window=args.batch_window_ms / 1000.0,
            max_line_bytes=args.max_line_bytes,
            shards=args.shards,
            engine_config=engine_config,
            metrics_port=args.metrics_port,
        )
    return serve_forever(
        sys.stdin, sys.stdout, engine=ServiceEngine(**engine_config)
    )


def cmd_request(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceEngine, encode_response
    from repro.service.protocol import (
        ProtocolError,
        decode_request,
        decode_response,
    )

    try:
        request = decode_request(args.request_json)
    except ProtocolError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    if args.tcp:
        import socket

        host, port = _parse_hostport(args.tcp)
        if args.timeout < 0:
            print(f"--timeout must be >= 0, got {args.timeout}", file=sys.stderr)
            return 2
        timeout = args.timeout or None  # 0 = wait forever
        # Send the validated payload as given, compact-encoded: the
        # decoder lifts v1 to the typed shape, and re-encoding that would
        # turn a v1 request into a v2 envelope with v2's stricter checks.
        outgoing = json.dumps(json.loads(args.request_json), separators=(",", ":"))
        try:
            with socket.create_connection((host, port), timeout=timeout) as sock:
                sock.sendall((outgoing + "\n").encode("utf-8"))
                with sock.makefile("r", encoding="utf-8") as stream:
                    line = stream.readline().strip()
        except socket.timeout:
            # Long cold solves can outlive any finite timeout; fail with
            # one line, not a traceback (use --timeout 0 to wait).
            print(
                f"request timed out after {args.timeout:g}s "
                f"(raise --timeout, or 0 to wait forever)",
                file=sys.stderr,
            )
            return 3
        except OSError as exc:
            print(f"connection to {host}:{port} failed: {exc}", file=sys.stderr)
            return 3
        if not line:
            print("connection closed without a response", file=sys.stderr)
            return 2
        print(line)
        try:
            response = decode_response(line)
        except ProtocolError as exc:
            print(f"invalid response: {exc}", file=sys.stderr)
            return 2
        return 0 if response.ok else 1
    engine = ServiceEngine(workers=args.workers, exec_backend=args.backend)
    response = engine.handle(request)
    print(encode_response(response))
    return 0 if response.ok else 1


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service.loadgen import LoadScript, parse_mix, run_load

    host, port = _parse_hostport(args.tcp)
    script = LoadScript(
        datasets=tuple(args.datasets),
        mix=parse_mix(args.mix),
        im_samples=args.im_samples,
        seed=args.seed,
        schema=args.schema,
    )
    report = asyncio.run(
        run_load(
            host, port,
            connections=args.connections,
            rate=args.rate,
            duration=args.duration,
            total=args.requests,
            script=script,
        )
    )
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0 if report.completed > 0 and report.lost == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "figure":
        return cmd_figure(args)
    if args.command == "chart":
        return cmd_chart(args)
    if args.command == "pareto":
        return cmd_pareto(args)
    if args.command == "datasets":
        return cmd_datasets(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "request":
        return cmd_request(args)
    if args.command == "loadgen":
        return cmd_loadgen(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
