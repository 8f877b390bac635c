"""Command-line entry point: ``credo run graph.nodes [graph.edges]``.

A thin operational wrapper over :class:`repro.credo.runner.Credo` so the
system is usable the way the paper's artifact would be: point it at an
input file, get posteriors and the chosen implementation.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credo",
        description="Belief propagation with automatic implementation selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run BP on a graph file")
    run.add_argument("path", help="BIF / XML-BIF file, or MTX node file")
    run.add_argument("edge_path", nargs="?", default=None, help="MTX edge file")
    run.add_argument(
        "--backend", default=None,
        help="force a backend (skip selection); may be schedule-qualified, "
             "e.g. c-node:residual",
    )
    run.add_argument("--device", default="gtx1070", help="simulated GPU (gtx1070/v100/a100)")
    run.add_argument("--threshold", type=float, default=1e-3)
    run.add_argument("--max-iterations", type=int, default=200)
    run.add_argument(
        "--schedule", default=None,
        choices=("sync", "work_queue", "residual", "relaxed"),
        help="scheduling policy (default: work_queue)",
    )
    run.add_argument("--top", type=int, default=10, help="print the first N posteriors")
    run.add_argument(
        "--train", action="store_true",
        help="fit the selector on the smoke-profile suite before selecting",
    )
    run.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="record a Chrome trace of the run (open in Perfetto / "
             "chrome://tracing)",
    )

    prof = sub.add_parser(
        "profile",
        help="run BP once with tracing on and export a Chrome trace + summary",
    )
    prof.add_argument("path", help="BIF / XML-BIF file, or MTX node file")
    prof.add_argument("edge_path", nargs="?", default=None, help="MTX edge file")
    prof.add_argument("--backend", default=None,
                      help="force a backend; may be schedule-qualified")
    prof.add_argument("--device", default="gtx1070",
                      help="simulated GPU (gtx1070/v100/a100)")
    prof.add_argument("--schedule", default=None,
                      choices=("sync", "work_queue", "residual", "relaxed"))
    prof.add_argument("--threshold", type=float, default=1e-3)
    prof.add_argument("--max-iterations", type=int, default=200)
    prof.add_argument("--trace", default="trace.json", metavar="OUT.json",
                      help="Chrome trace output path (default trace.json)")
    prof.add_argument("--no-summary", action="store_true",
                      help="skip the per-span aggregate table")
    prof.add_argument("--verify-parity", action="store_true",
                      help="also run the same plan untraced and fail unless "
                           "posteriors are identical")

    feats = sub.add_parser("features", help="print a graph's metadata features")
    feats.add_argument("path")
    feats.add_argument("edge_path", nargs="?", default=None)

    conv = sub.add_parser(
        "convert", help="convert BIF / XML-BIF to the MTX dual-file format (§3.2)"
    )
    conv.add_argument("path", help="input BIF or XML-BIF file")
    conv.add_argument("out_prefix", help="output prefix: writes <prefix>.nodes/.edges")

    sub.add_parser("backends", help="list available backends")

    # "lint" is intercepted in main() before parsing (its options are
    # owned by repro.analysis); registered here only for --help listing
    sub.add_parser(
        "lint",
        help="run the project-aware static checker (python -m repro.analysis)",
        add_help=False,
    )

    serve = sub.add_parser(
        "serve", help="serve posterior queries over JSON-lines (stdin or TCP)"
    )
    serve.add_argument(
        "models", nargs="*", metavar="NAME=PATH",
        help="graphs to pre-register, e.g. alarm=models/alarm.bif "
             "(bare PATH registers under its stem)",
    )
    serve.add_argument(
        "--socket", default=None, metavar="HOST:PORT",
        help="listen on TCP instead of stdin (PORT 0 picks a free port; "
             "the bound address is printed as 'listening on HOST:PORT')",
    )
    serve.add_argument("--device", default="gtx1070")
    serve.add_argument("--backend", default=None,
                       help="pin every model to one backend (skip selection)")
    serve.add_argument("--schedule", default=None,
                       choices=("sync", "work_queue", "residual", "relaxed"))
    serve.add_argument("--threshold", type=float, default=1e-3)
    serve.add_argument("--max-iterations", type=int, default=200)
    serve.add_argument("--queue-capacity", type=int, default=64)
    serve.add_argument("--max-batch", type=int, default=16,
                       help="micro-batch width (1 disables batching)")
    serve.add_argument("--cache-capacity", type=int, default=256,
                       help="result-cache entries (0 disables caching)")
    serve.add_argument("--deadline-s", type=float, default=None,
                       help="default per-request deadline")
    serve.add_argument("--stats", action="store_true",
                       help="print a metrics snapshot on exit")
    serve.add_argument("--trace", default=None, metavar="OUT.json",
                       help="record a Chrome trace of the serving session")

    query = sub.add_parser("query", help="query a running 'credo serve' instance")
    query.add_argument("model", help="registered model name")
    query.add_argument("--connect", required=True, metavar="HOST:PORT",
                       help="address printed by 'credo serve --socket'")
    query.add_argument("--evidence", default="",
                       help="comma-separated node=state clamps, e.g. 'alarm=1,smoke=0'")
    query.add_argument("--nodes", default=None,
                       help="comma-separated node names to return (default all)")
    query.add_argument("--no-cache", action="store_true")
    query.add_argument("--op", default="query",
                       choices=("query", "stats", "models", "shutdown"),
                       help="non-query ops need only --connect")
    query.add_argument("--expect-posterior", action="store_true",
                       help="exit non-zero unless the response carries "
                            "well-formed, normalized posteriors")
    query.add_argument("--timeout", type=float, default=30.0)

    update = sub.add_parser(
        "update", help="apply a structural graph delta to a served model"
    )
    update.add_argument("model", help="registered model name")
    update.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="address printed by 'credo serve --socket'")
    update.add_argument("--add-node", action="append", default=[],
                        metavar="NAME[=p0,p1,...]",
                        help="add a node, optionally with an explicit prior "
                             "(default uniform); repeatable")
    update.add_argument("--add-edge", action="append", default=[],
                        metavar="U,V",
                        help="add an undirected edge between two nodes "
                             "(shared potential); repeatable")
    update.add_argument("--remove-edge", action="append", default=[],
                        metavar="U,V",
                        help="remove an undirected edge; repeatable")
    update.add_argument("--detach-node", action="append", default=[],
                        metavar="NAME",
                        help="drop every edge incident to a node and reset "
                             "its prior (ids are never reused); repeatable")
    update.add_argument("--journal", default=None, metavar="FILE.jsonl",
                        help="apply a saved DeltaJournal (one delta payload "
                             "per line) instead of building one from flags")
    update.add_argument("--timeout", type=float, default=30.0)
    return parser


def _parse_hostport(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    return host or "127.0.0.1", int(port)


def _write_trace(tracer, path: str) -> None:
    import json

    from repro.telemetry import chrome_trace, trace_lanes

    trace = chrome_trace(tracer.events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    lanes = trace_lanes(trace)
    n_lanes = sum(len(ts) for ts in lanes.values())
    print(
        f"trace: {path} ({len(tracer.events)} events, "
        f"{len(lanes)} processes, {n_lanes} lanes)",
        file=sys.stderr,
    )


def _backend_error(credo, name: str | None) -> bool:
    """Print a one-line usage error when ``--backend name`` cannot run;
    True if it did."""
    if name is None:
        return False
    try:
        credo.check_backend(name)
    except (KeyError, ValueError) as exc:
        print(f"error: --backend {name!r}: {exc.args[0]}", file=sys.stderr)
        return True
    return False


def _cmd_profile(args) -> int:
    from repro.core.convergence import ConvergenceCriterion
    from repro.credo.runner import Credo
    from repro.io.detect import load_graph
    from repro.telemetry import Tracer, get_metrics, summary_table, use_tracer

    credo = Credo(
        device=args.device,
        criterion=ConvergenceCriterion(
            threshold=args.threshold, max_iterations=args.max_iterations
        ),
        schedule=args.schedule,
    )
    if _backend_error(credo, args.backend):
        return 2
    graph = load_graph(args.path, args.edge_path)

    tracer = Tracer()
    with use_tracer(tracer):
        plan = credo.plan(graph, backend=args.backend)
        result = credo.run(graph.copy(), plan=plan)

    print(f"backend       {result.backend}")
    print(f"schedule      {result.detail.get('schedule', '-')}")
    print(f"iterations    {result.iterations}")
    print(f"converged     {result.converged}")
    print(f"wall time     {result.wall_time:.4f}s")
    print(f"modeled time  {result.modeled_time:.4f}s")
    build = get_metrics().histogram("kernel.build_s").snapshot()
    if build.get("count"):
        build_s = build["mean_s"] * build["count"]
        print(f"kernel build  {build_s:.6f}s across {int(build['count'])} "
              f"lowering(s); sweeps {max(result.wall_time - build_s, 0.0):.4f}s")
    if not args.no_summary:
        print()
        print(summary_table(tracer.events))
    _write_trace(tracer, args.trace)

    if args.verify_parity:
        # the same frozen plan, run again with tracing off
        baseline = credo.run(graph.copy(), plan=plan)
        drift = float(
            np.max(np.abs(np.asarray(result.beliefs) - np.asarray(baseline.beliefs)))
        )
        if drift > 1e-12 or result.iterations != baseline.iterations:
            print(
                f"error: traced run diverged from untraced baseline "
                f"(max |Δbelief| {drift:.3e}, iterations "
                f"{result.iterations} vs {baseline.iterations})",
                file=sys.stderr,
            )
            return 1
        print(f"parity: traced == untraced (plan {plan.qualified})",
              file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import json

    from repro.serve import InferenceServer, ServerConfig
    from repro.serve.transport import serve_socket, serve_stdin

    config = ServerConfig(
        device=args.device,
        backend=args.backend,
        schedule=args.schedule,
        threshold=args.threshold,
        max_iterations=args.max_iterations,
        queue_capacity=args.queue_capacity,
        max_batch=args.max_batch,
        cache_capacity=args.cache_capacity,
        default_deadline_s=args.deadline_s,
    )
    tracer = None
    if args.trace is not None:
        from repro.telemetry import Tracer, set_tracer

        tracer = Tracer()
        set_tracer(tracer)
    server = InferenceServer(config)
    try:
        for spec in args.models:
            name, _, path = spec.rpartition("=")
            if not name:
                from pathlib import Path

                path = spec
                name = Path(spec).stem
            model = server.load_model(name, path)
            print(
                f"registered {name}: {model.graph.n_nodes} nodes, "
                f"plan {model.plan.qualified}",
                file=sys.stderr,
            )
        if args.socket is not None:
            host, port = _parse_hostport(args.socket)
            serve_socket(server, host, port)
        else:
            serve_stdin(server)
        if args.stats:
            print(json.dumps(server.stats(), indent=2, sort_keys=True))
    finally:
        server.stop()
        if tracer is not None:
            from repro.telemetry import set_tracer

            set_tracer(None)
            _write_trace(tracer, args.trace)
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.serve.transport import request_over_socket

    host, port = _parse_hostport(args.connect)
    if args.op != "query":
        payload = {"op": args.op}
    else:
        evidence = {}
        for clamp in filter(None, args.evidence.split(",")):
            node, _, state = clamp.partition("=")
            if not _ or not node:
                print(f"error: bad --evidence clamp {clamp!r} "
                      "(expected node=state)", file=sys.stderr)
                return 2
            evidence[node.strip()] = int(state)
        payload = {"op": "query", "model": args.model, "evidence": evidence,
                   "use_cache": not args.no_cache}
        if args.nodes:
            payload["nodes"] = [n.strip() for n in args.nodes.split(",")]
    try:
        response = request_over_socket(host, port, payload, timeout=args.timeout)
    except (ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    response.pop("op", None)  # parse_line defaults it in; not part of the answer
    print(json.dumps(response, indent=2, sort_keys=True))
    if not response.get("ok"):
        return 1
    if args.expect_posterior:
        posteriors = response.get("posteriors")
        if not isinstance(posteriors, dict) or not posteriors:
            print("error: response carries no posteriors", file=sys.stderr)
            return 1
        for name, probs in posteriors.items():
            if (
                not isinstance(probs, list)
                or not probs
                or any((not isinstance(p, (int, float)) or p < -1e-9) for p in probs)
                or abs(sum(probs) - 1.0) > 1e-4
            ):
                print(f"error: malformed posterior for {name!r}: {probs}",
                      file=sys.stderr)
                return 1
        print(f"posteriors OK ({len(posteriors)} nodes)", file=sys.stderr)
    return 0


def _cmd_update(args) -> int:
    import json

    from repro.serve.transport import request_over_socket

    host, port = _parse_hostport(args.connect)
    payloads: list[dict] = []
    if args.journal is not None:
        if args.add_node or args.add_edge or args.remove_edge or args.detach_node:
            print("error: --journal replaces the delta flags; use one or the other",
                  file=sys.stderr)
            return 2
        from repro.stream.delta import DeltaJournal, JournalDecodeError

        try:
            journal = DeltaJournal.load(args.journal)
        except JournalDecodeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not len(journal):
            print(f"error: journal {args.journal!r} is empty", file=sys.stderr)
            return 2
        payloads = [delta.to_payload() for delta in journal]
    else:
        delta: dict = {}
        add_nodes = []
        for spec in args.add_node:
            name, eq, prior = spec.partition("=")
            if not name:
                print(f"error: bad --add-node {spec!r} (expected NAME[=p0,p1,...])",
                      file=sys.stderr)
                return 2
            entry: dict = {"name": name.strip()}
            if eq:
                try:
                    entry["prior"] = [float(p) for p in prior.split(",")]
                except ValueError:
                    print(f"error: bad prior in --add-node {spec!r}", file=sys.stderr)
                    return 2
            add_nodes.append(entry)
        if add_nodes:
            delta["add_nodes"] = add_nodes
        for flag, key in (("add_edge", "add_edges"), ("remove_edge", "remove_edges")):
            pairs = []
            for spec in getattr(args, flag):
                u, sep, v = spec.partition(",")
                if not sep or not u.strip() or not v.strip():
                    print(f"error: bad --{flag.replace('_', '-')} {spec!r} "
                          "(expected U,V)", file=sys.stderr)
                    return 2
                pairs.append([u.strip(), v.strip()])
            if pairs:
                delta[key] = pairs
        if args.detach_node:
            delta["detach_nodes"] = [n.strip() for n in args.detach_node]
        if not delta:
            print("error: nothing to apply; pass delta flags or --journal",
                  file=sys.stderr)
            return 2
        payloads = [delta]

    for delta in payloads:
        payload = {"op": "update", "model": args.model, **delta}
        try:
            response = request_over_socket(host, port, payload, timeout=args.timeout)
        except (ConnectionError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        response.pop("op", None)  # parse_line defaults it in; not part of the answer
        print(json.dumps(response, indent=2, sort_keys=True))
        if not response.get("ok"):
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from repro.analysis.__main__ import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "profile":
        return _cmd_profile(args)

    if args.command == "query":
        return _cmd_query(args)

    if args.command == "update":
        return _cmd_update(args)

    if args.command == "backends":
        from repro.backends.registry import available_backends

        for name in available_backends():
            print(name)
        return 0


    if args.command == "features":
        from repro.credo.features import FEATURE_NAMES, extract_features
        from repro.io.detect import load_graph

        graph = load_graph(args.path, args.edge_path)
        for name, value in zip(FEATURE_NAMES, extract_features(graph)):
            print(f"{name:18s} {value:.6g}")
        return 0

    if args.command == "convert":
        from repro.io.detect import load_graph
        from repro.io.mtx import write_mtx_graph

        graph = load_graph(args.path)
        if not graph.uniform:
            print(
                "error: the MTX dual-file format needs constant-width "
                "beliefs (see §2.2); this network is heterogeneous",
                file=sys.stderr,
            )
            return 1
        nodes = f"{args.out_prefix}.nodes"
        edges = f"{args.out_prefix}.edges"
        write_mtx_graph(graph, nodes, edges)
        print(f"wrote {nodes} and {edges} "
              f"({graph.n_nodes} nodes, {graph.n_edges // 2} undirected edges)")
        return 0

    # run
    from repro.core.convergence import ConvergenceCriterion
    from repro.credo.runner import Credo

    credo = Credo(
        device=args.device,
        criterion=ConvergenceCriterion(
            threshold=args.threshold, max_iterations=args.max_iterations
        ),
        schedule=args.schedule,
    )
    if _backend_error(credo, args.backend):
        return 2
    if args.train:
        credo.train(profile="smoke", use_cases=("binary",))
    if args.trace is not None:
        from repro.telemetry import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            result = credo.run_file(args.path, args.edge_path, backend=args.backend)
        _write_trace(tracer, args.trace)
    else:
        result = credo.run_file(args.path, args.edge_path, backend=args.backend)
    print(f"backend       {result.backend}")
    print(f"schedule      {result.detail.get('schedule', '-')}")
    print(f"iterations    {result.iterations}")
    print(f"converged     {result.converged}")
    print(f"wall time     {result.wall_time:.4f}s")
    print(f"modeled time  {result.modeled_time:.4f}s")
    with np.printoptions(precision=4, suppress=True):
        for i in range(min(args.top, len(result.beliefs))):
            print(f"node {i}: {result.beliefs[i]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
