"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``translate``
    Parse a textual IR file, (optionally) build SSA and run the CSSA-breaking
    optimizations, translate out of SSA with a chosen engine/strategy, and
    print the resulting code plus statistics.  The whole run is one
    :class:`~repro.pipeline.Pipeline`.
``run``
    Interpret a textual IR file on the given integer arguments and print its
    observable behaviour.
``bench``
    Regenerate one of the paper's figures (5, 6 or 7) on the synthetic suite
    (batched through :class:`~repro.pipeline.Session`).
``stress``
    Translate the deterministic random-CFG stress corpus in checked mode and
    report diagnostic counts plus checker overhead (``--verify {fast,full}``).
``serve``
    Run the translation daemon: a sharded scheduler with content-addressed
    warm caches behind a newline-delimited-JSON socket (see docs/SERVICE.md).
``request``
    Drive a running daemon: ``translate`` one or more IR files, or issue the
    ``stats`` / ``flush`` / ``ping`` / ``shutdown`` maintenance verbs.
``bench-serve``
    The service throughput experiment: cold vs warm vs sharded requests/sec
    over a repeat-heavy stream from the stress corpus.
``list``
    List the available engine configurations, coalescing strategies,
    liveness backends and interference backends (``--json`` emits the same
    catalogue machine-readably, with engine fingerprints for cache-key
    negotiation).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.bench.corpus import STANDARD_SIZES, scaled_specs
from repro.bench.harness import (
    run_figure5,
    run_figure6,
    run_figure7,
    run_service_concurrency,
    run_service_throughput,
    run_verify_stress,
)
from repro.bench.metrics import copy_counts
from repro.bench.reporting import (
    format_figure5,
    format_figure6,
    format_figure7,
    format_service_concurrency,
    format_service_throughput,
    format_verify_stress,
)
from repro.bench.suite import SUITE, build_suite
from repro.coalescing.variants import VARIANTS
from repro.interp import run_function
from repro.ir import ValidationError, format_function, parse_function, validate_function
from repro.outofssa.config import (
    CORE_BACKENDS,
    ENGINE_CONFIGURATIONS,
    INTERFERENCE_BACKENDS,
    LIVENESS_BACKENDS,
    EngineConfig,
    engine_by_name,
)
from repro.pipeline import Pipeline


def _load_function(path: str, validate: bool = True):
    """Parse a textual IR file, structurally validating by default.

    Validation-before-use means malformed text fails at the ingest boundary
    with a located diagnostic instead of deep inside a pass; ``--no-validate``
    is the escape hatch for deliberately broken inputs.
    """
    with open(path) as handle:
        function = parse_function(handle.read())
    if validate:
        try:
            validate_function(function)
        except ValidationError as error:
            raise SystemExit(
                f"repro: {path}: {error} (use --no-validate to skip this check)"
            ) from None
    return function


def _parse_args_list(text: str) -> List[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _resolve_engine_config(args: argparse.Namespace) -> EngineConfig:
    """Resolve ``--engine`` / ``--variant`` / ``--liveness`` / ``--interference``
    into one config.

    Unknown names raise :class:`SystemExit` with the lookup error's message,
    so the user sees "unknown engine 'x'; known engines: ..." instead of a
    traceback.
    """
    try:
        if args.variant:
            builder = (
                EngineConfig.builder()
                .name(f"cli_{args.variant}")
                .label(args.variant)
                .coalescing(args.variant)
                .liveness("check")
                .interference("query")
                .linear_class_check(False)
            )
        else:
            builder = EngineConfig.builder(engine_by_name(args.engine))
        if args.liveness:
            builder.liveness(args.liveness)
        if getattr(args, "interference", None):
            builder.interference(args.interference)
        if getattr(args, "verify", None):
            builder.verify(args.verify)
        if getattr(args, "core", None):
            builder.core(args.core)
        return builder.build()
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"repro translate: {message}") from None


# --------------------------------------------------------------------------- commands
def command_translate(args: argparse.Namespace) -> int:
    config = _resolve_engine_config(args)
    function = _load_function(args.file, validate=not args.no_validate)

    pipeline = Pipeline.for_engine(
        config,
        construct_ssa=args.construct_ssa,
        optimize=args.construct_ssa and args.optimize,
        abi=args.abi,
    )
    result = pipeline.run(function)
    print(format_function(function), end="")

    report = result.verify_report
    if report is not None and report.diagnostics:
        print(report.render(), file=sys.stderr)

    if args.stats:
        counts = copy_counts(function)
        print(f"# engine               : {result.config.label}", file=sys.stderr)
        print(f"# pipeline             : {pipeline.describe()}", file=sys.stderr)
        print(f"# phi copies inserted  : {result.stats.inserted_phi_copies}", file=sys.stderr)
        print(f"# copies coalesced     : {result.stats.coalesced}", file=sys.stderr)
        print(f"# copies remaining     : {counts.static_copies}", file=sys.stderr)
        print(f"# constant moves       : {counts.constant_moves}", file=sys.stderr)
        print(f"# translation time (ms): {result.stats.elapsed_seconds * 1e3:.3f}", file=sys.stderr)
        print(f"# ir core              : {result.stats.core}", file=sys.stderr)
        if result.stats.core == "flat":
            print(f"# arena lowering (ms)  : {result.stats.lowering_ms:.3f}", file=sys.stderr)
            print(f"# arena tables (bytes) : {result.stats.flat_bytes}", file=sys.stderr)
        if report is not None:
            print(f"# verify time (ms)     : {result.stats.verify_ms:.3f}", file=sys.stderr)
    if report is not None and report.errors:
        return 1
    return 0


def command_run(args: argparse.Namespace) -> int:
    function = _load_function(args.file, validate=not args.no_validate)
    result = run_function(function, _parse_args_list(args.args))
    print("return:", result.return_value)
    print("trace :", " ".join(str(value) for value in result.trace))
    print("steps :", result.steps)
    return 0


def _gallery_programs():
    from repro.gallery import (
        figure1_branch_use,
        figure2_branch_with_decrement,
        figure3_swap_problem,
        figure4_lost_copy_problem,
    )

    return [
        figure1_branch_use(),
        figure2_branch_with_decrement(),
        figure3_swap_problem(),
        figure4_lost_copy_problem(),
    ]


def command_verify(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.verify.checks import check_structure
    from repro.verify.diagnostics import VerifyReport

    config = _resolve_engine_config(args)
    targets = []
    for path in args.files:
        with open(path) as handle:
            try:
                targets.append((path, parse_function(handle.read())))
            except ValueError as error:
                raise SystemExit(f"repro verify: {path}: {error}") from None
    if args.gallery:
        targets.extend((f"gallery:{fn.name}", fn) for fn in _gallery_programs())
    if not targets:
        raise SystemExit("repro verify: no targets (give IR files and/or --gallery)")

    reports = []
    for name, function in targets:
        structural = check_structure(function)
        if any(diag.is_error for diag in structural):
            # Translation would crash on a structurally broken function;
            # report what the input checks found and stop there.
            report = VerifyReport(function=function.name, level=args.level)
            report.stages_run.append("input")
            report.extend(structural)
        else:
            checked = dataclasses.replace(config, verify_level=args.level)
            report = Pipeline.for_engine(checked).run(function).verify_report
        reports.append((name, report))

    failed = sum(1 for _name, report in reports if not report.ok)
    if args.json:
        payload = {
            "level": args.level,
            "engine": config.name,
            "ok": failed == 0,
            "targets": [
                {"target": name, **report.to_payload()} for name, report in reports
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, report in reports:
            print(f"== {name}")
            print(report.render())
    return 1 if failed else 0


def command_bench(args: argparse.Namespace) -> int:
    names = None
    if args.benchmarks != "all":
        names = [name.strip() for name in args.benchmarks.split(",") if name.strip()]
    try:
        suite = build_suite(scale=args.scale, benchmarks=names)
    except KeyError as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"repro bench: {message}") from None
    if args.figure == 5:
        print(format_figure5(run_figure5(suite)))
    elif args.figure == 6:
        print(format_figure6(run_figure6(suite)))
    elif args.figure == 7:
        print(format_figure7(run_figure7(suite)))
    else:
        raise SystemExit(f"unknown figure {args.figure}; expected 5, 6 or 7")
    return 0


def command_stress(args: argparse.Namespace) -> int:
    try:
        sizes = [int(part) for part in str(args.blocks).split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"repro stress: invalid --blocks {args.blocks!r}") from None
    if not sizes:
        sizes = list(STANDARD_SIZES)
    specs = scaled_specs(
        sizes,
        scale=args.scale,
        seed=args.seed,
        loop_depth=args.loop_depth,
        variables=args.variables,
        irreducible=args.irreducible,
    )
    profiler = None
    if args.profile:
        # Profile exactly the experiment loop (corpus generation included —
        # it is part of what a cold run pays), not the argument parsing or
        # the report formatting; see docs/ARCHITECTURE.md ("Profiling").
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        table = format_verify_stress(
            run_verify_stress(specs, level=args.verify, engine=args.engine)
        )
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(
                f"# profile written to {args.profile} "
                f"(inspect: python -m pstats {args.profile})",
                file=sys.stderr,
            )
    print(table)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(table + "\n")
        print(f"# written to {args.output}", file=sys.stderr)
    return 0


def command_serve(args: argparse.Namespace) -> int:
    from repro.service.server import TranslationServer

    try:
        config = engine_by_name(args.engine)
    except KeyError as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"repro serve: {message}") from None
    try:
        server = TranslationServer(
            (args.host, args.port),
            engine=config,
            shards=args.shards,
            mode=args.mode,
            capacity=args.capacity,
            parallel_coalescing=args.parallel_coalescing,
            workers=args.workers,
            max_pending=args.max_pending,
            max_pipeline=args.max_pipeline,
            metrics_interval=args.metrics_interval,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro serve: {error}") from None
    # Scripts (the CI lane) parse this exact line to learn the bound port.
    print(f"repro serve: listening on {server.host}:{server.port} "
          f"(engine {config.name}, {args.shards} shards, {args.mode} mode)",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    print("repro serve: stopped", flush=True)
    return 0


def command_request(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    verb = args.verb
    if verb in ("translate", "translate_batch", "verify") and not args.files:
        raise SystemExit(f"repro request: {verb} needs at least one IR file")
    try:
        with ServiceClient(port=args.port, host=args.host, timeout=args.timeout) as client:
            if verb in ("translate", "translate_batch"):
                texts = []
                for path in args.files:
                    with open(path) as handle:
                        texts.append(handle.read())
                responses = client.translate_batch(texts, engine=args.engine)
                for path, response in zip(args.files, responses):
                    print(response["ir"], end="")
                    print(
                        f"# {path}: engine {response['engine']}, "
                        f"{'cache hit' if response['cached'] else response['kind']}, "
                        f"digest {str(response['digest'])[:12]}",
                        file=sys.stderr,
                    )
            elif verb == "verify":
                exit_code = 0
                for path in args.files:
                    with open(path) as handle:
                        response = client.verify(
                            handle.read(), engine=args.engine, level=args.level
                        )
                    print(json.dumps({"target": path, **response},
                                     indent=2, sort_keys=True))
                    if response.get("errors"):
                        exit_code = 1
                return exit_code
            elif verb == "stats":
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
            elif verb == "metrics":
                print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            elif verb == "flush":
                print(f"flushed {client.flush()} cache entries")
            elif verb == "ping":
                print(json.dumps(client.ping(), indent=2, sort_keys=True))
            elif verb == "shutdown":
                client.shutdown()
                print("daemon stopping")
    except (ServiceError, OSError) as error:
        raise SystemExit(f"repro request: {error}") from None
    return 0


def command_bench_serve(args: argparse.Namespace) -> int:
    try:
        rows = run_service_throughput(
            blocks=args.blocks,
            functions=args.functions,
            repeat=args.repeat,
            shards=args.shards,
            engine=args.engine,
            scale=args.scale,
            mode=args.mode,
            parallel_coalescing=args.parallel_coalescing,
            seed=args.seed,
        )
    except KeyError as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"repro bench-serve: {message}") from None
    table = format_service_throughput(rows)
    if args.clients:
        concurrency_rows = run_service_concurrency(
            clients=args.clients,
            blocks=args.blocks,
            functions=args.functions,
            engine=args.engine,
            shards=args.shards,
            scale=args.scale,
            seed=args.seed,
        )
        table += "\n\n" + format_service_concurrency(concurrency_rows)
    print(table)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(table + "\n")
        print(f"# written to {args.output}", file=sys.stderr)
    return 0


def _list_catalogue() -> dict:
    """The machine-readable ``repro list --json`` document."""
    return {
        "engines": [
            {
                "name": config.name,
                "label": config.label,
                "coalescing": config.coalescing,
                "liveness": config.liveness,
                "interference": config.interference,
                "linear_class_check": config.linear_class_check,
                "on_branch_def": config.on_branch_def,
                "core": config.core,
                "fingerprint": config.fingerprint(),
                "describe": config.describe(),
            }
            for config in ENGINE_CONFIGURATIONS
        ],
        "coalescing_strategies": [
            {"name": variant.name, "label": variant.label} for variant in VARIANTS
        ],
        "liveness_backends": dict(LIVENESS_BACKENDS),
        "interference_backends": dict(INTERFERENCE_BACKENDS),
        "cores": dict(CORE_BACKENDS),
        "benchmarks": [
            {"name": spec.name, "functions": spec.functions, "size": spec.size}
            for spec in SUITE
        ],
    }


def command_list(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        print(json.dumps(_list_catalogue(), indent=2, sort_keys=True))
        return 0
    print("engine configurations (Figures 6/7):")
    for config in ENGINE_CONFIGURATIONS:
        print(f"  {config.name:40s} {config.describe()}")
    print()
    print("coalescing strategies (Figure 5):")
    for variant in VARIANTS:
        print(f"  {variant.name:14s} {variant.label}")
    print()
    print("liveness backends (--liveness):")
    for kind, description in LIVENESS_BACKENDS.items():
        print(f"  {kind:14s} {description}")
    print()
    print("interference backends (--interference):")
    for kind, description in INTERFERENCE_BACKENDS.items():
        print(f"  {kind:14s} {description}")
    print()
    print("IR cores (--core):")
    for kind, description in CORE_BACKENDS.items():
        print(f"  {kind:14s} {description}")
    print()
    print("synthetic benchmarks:")
    for spec in SUITE:
        print(f"  {spec.name:14s} {spec.functions} functions, size {spec.size}")
    return 0


# --------------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Out-of-SSA translation (Boissinot et al., CGO 2009) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    translate = sub.add_parser("translate", help="translate a textual IR file out of SSA")
    translate.add_argument("file", help="path to a textual IR file")
    translate.add_argument("--engine", default="us_i_linear_intercheck_livecheck",
                           help="engine configuration name (see 'repro list')")
    translate.add_argument("--variant", default=None,
                           help="coalescing strategy name (overrides --engine's strategy)")
    translate.add_argument("--liveness", default=None,
                           help="liveness backend (see 'repro list'): ordered sets, bit-set "
                                "worklist, or liveness checking (overrides the engine's backend)")
    translate.add_argument("--interference", default=None,
                           choices=sorted(INTERFERENCE_BACKENDS),
                           help="interference backend (see 'repro list'): eager bit-matrix, "
                                "or on-the-fly queries (overrides the engine's backend)")
    translate.add_argument("--core", default=None, choices=sorted(CORE_BACKENDS),
                           help="IR core driving the hot sweeps (see 'repro list'): the "
                                "flat int-array arena (default) or the object-graph "
                                "reference walks (differential baseline)")
    translate.add_argument("--construct-ssa", action="store_true",
                           help="build SSA first (for non-SSA input files)")
    translate.add_argument("--optimize", action="store_true",
                           help="run copy folding / value numbering after SSA construction")
    translate.add_argument("--abi", action="store_true",
                           help="apply calling-convention pinning around calls")
    translate.add_argument("--stats", action="store_true", help="print statistics to stderr")
    translate.add_argument("--verify", default="off", choices=("off", "fast", "full"),
                           help="run the staged invariant checkers during translation; "
                                "findings print to stderr and errors fail the command")
    translate.add_argument("--no-validate", action="store_true",
                           help="skip the structural validation of the input file")
    translate.set_defaults(handler=command_translate)

    run = sub.add_parser("run", help="interpret a textual IR file")
    run.add_argument("file", help="path to a textual IR file")
    run.add_argument("--args", default="", help="comma-separated integer arguments")
    run.add_argument("--no-validate", action="store_true",
                     help="skip the structural validation of the input file")
    run.set_defaults(handler=command_run)

    verify = sub.add_parser(
        "verify",
        help="run the staged invariant checkers over IR files (see docs/VERIFY.md)",
    )
    verify.add_argument("files", nargs="*", help="textual IR files to check")
    verify.add_argument("--gallery", action="store_true",
                        help="also check the paper's gallery programs")
    verify.add_argument("--engine", default="us_i_linear_intercheck_livecheck",
                        help="engine configuration to translate under (see 'repro list')")
    verify.add_argument("--variant", default=None,
                        help="coalescing strategy name (overrides --engine's strategy)")
    verify.add_argument("--liveness", default=None,
                        help="liveness backend override (see 'repro list')")
    verify.add_argument("--interference", default=None,
                        choices=sorted(INTERFERENCE_BACKENDS),
                        help="interference backend override (see 'repro list')")
    verify.add_argument("--core", default=None, choices=sorted(CORE_BACKENDS),
                        help="IR core override (see 'repro list')")
    verify.add_argument("--level", default="full", choices=("fast", "full"),
                        help="checker depth (fast: structural in/out; full: every stage)")
    verify.add_argument("--json", action="store_true",
                        help="emit the diagnostics as JSON")
    verify.set_defaults(handler=command_verify)

    bench = sub.add_parser("bench", help="regenerate one of the paper's figures")
    bench.add_argument("--figure", type=int, default=5, choices=(5, 6, 7))
    bench.add_argument("--scale", type=float, default=0.4)
    bench.add_argument("--benchmarks", default="164.gzip,176.gcc,254.gap")
    bench.set_defaults(handler=command_bench)

    stress = sub.add_parser(
        "stress",
        help="checked-translation stress lane on the random-CFG corpus",
    )
    stress.add_argument("--blocks", default=",".join(str(s) for s in STANDARD_SIZES),
                        help="comma-separated corpus sizes in basic blocks")
    stress.add_argument("--scale", type=float, default=1.0,
                        help="multiply every corpus size (quick runs: 0.1)")
    stress.add_argument("--seed", type=int, default=0, help="corpus base seed")
    stress.add_argument("--loop-depth", type=int, default=5, help="maximum loop nesting")
    stress.add_argument("--variables", type=int, default=12,
                        help="per-region working-set size (variable pressure)")
    stress.add_argument("--irreducible", type=float, default=0.0,
                        help="probability of a second (irreducible) loop entry")
    stress.add_argument("--verify", default="fast", choices=("fast", "full"),
                        help="verification level of the checked translations "
                             "(reports diagnostic counts plus checker overhead)")
    stress.add_argument("--engine", default="us_i_linear_intercheck_livecheck",
                        help="engine configuration to translate the corpus with")
    stress.add_argument("--output", default=None,
                        help="also write the table to this file")
    stress.add_argument("--profile", default=None, metavar="OUT.prof",
                        help="dump a cProfile of the experiment loops to this "
                             "file (inspect with python -m pstats, or snakeviz "
                             "where available)")
    stress.set_defaults(handler=command_stress)

    serve = sub.add_parser(
        "serve",
        help="run the translation daemon (newline-delimited JSON over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one; the bound port is printed)")
    serve.add_argument("--engine", default="us_i",
                       help="default engine configuration (see 'repro list')")
    serve.add_argument("--shards", type=int, default=2,
                       help="digest-affine translation shards")
    serve.add_argument("--mode", default="thread", choices=("serial", "thread", "process"),
                       help="how batch requests fan out across shards")
    serve.add_argument("--capacity", type=int, default=256,
                       help="cache entries per shard (0 disables caching)")
    serve.add_argument("--parallel-coalescing", type=int, default=0,
                       help="worker threads for the in-shard class-row merge prefilter "
                            "(0/1 = serial coalescing)")
    serve.add_argument("--workers", type=int, default=None,
                       help="translation worker threads (default: max(2, shards))")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="admission limit: queued+running items before requests "
                            "are shed with an 'overloaded' response")
    serve.add_argument("--max-pipeline", type=int, default=32,
                       help="in-flight requests per connection before reads pause")
    serve.add_argument("--metrics-interval", type=float, default=0.0,
                       help="seconds between metrics log lines (0 disables)")
    serve.set_defaults(handler=command_serve)

    request = sub.add_parser("request", help="drive a running translation daemon")
    request.add_argument("verb",
                         choices=("translate", "translate_batch", "verify", "stats",
                                  "metrics", "flush", "ping", "shutdown"),
                         help="protocol verb to issue")
    request.add_argument("files", nargs="*",
                         help="textual IR files (translate/translate_batch/verify)")
    request.add_argument("--level", default="full", choices=("fast", "full"),
                         help="checker depth for the verify verb")
    request.add_argument("--host", default="127.0.0.1")
    request.add_argument("--port", type=int, required=True,
                         help="port the daemon printed at startup")
    request.add_argument("--engine", default=None,
                         help="engine configuration override for this request")
    request.add_argument("--timeout", type=float, default=60.0,
                         help="socket timeout in seconds")
    request.set_defaults(handler=command_request)

    bench_serve = sub.add_parser(
        "bench-serve",
        help="service throughput experiment: cold vs warm vs sharded req/s",
    )
    bench_serve.add_argument("--blocks", type=int, default=5000,
                             help="stress-CFG size per request function")
    bench_serve.add_argument("--functions", type=int, default=3,
                             help="distinct hot functions in the stream")
    bench_serve.add_argument("--repeat", type=int, default=6,
                             help="times the stream revisits each function")
    bench_serve.add_argument("--shards", type=int, default=4,
                             help="shards for the sharded mode row")
    bench_serve.add_argument("--engine", default="us_i",
                             help="engine configuration (see 'repro list')")
    bench_serve.add_argument("--scale", type=float, default=1.0,
                             help="multiply the corpus size (quick runs: 0.1)")
    bench_serve.add_argument("--mode", default="thread",
                             choices=("serial", "thread", "process"),
                             help="scheduler mode for the sharded row")
    bench_serve.add_argument("--parallel-coalescing", type=int, default=0,
                             help="in-shard parallel coalescing workers")
    bench_serve.add_argument("--clients", type=int, default=0,
                             help="also run the pipelined concurrent-clients "
                                  "experiment with this many connections (0 skips)")
    bench_serve.add_argument("--seed", type=int, default=0, help="corpus base seed")
    bench_serve.add_argument("--output", default=None,
                             help="also write the table to this file")
    bench_serve.set_defaults(handler=command_bench_serve)

    listing = sub.add_parser("list", help="list engines, strategies, liveness backends, benchmarks")
    listing.add_argument("--json", action="store_true",
                         help="emit the catalogue as JSON (includes per-engine "
                              "liveness/interference backends and cache fingerprints)")
    listing.set_defaults(handler=command_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
