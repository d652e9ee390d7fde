"""Command-line interface.

::

    repro-covert list                    # list experiments
    repro-covert run E3 [--seed 7]       # run one experiment
    repro-covert run E4 --budget 30      # cap Monte-Carlo wall-clock
    repro-covert run all                 # run every experiment
    repro-covert estimate --pd 0.1 --pi 0.05 --bits 4
    repro-covert estimate --sampler bsc --pd 0.1 --samples 4096
    repro-covert bounds --pd 0.1 --pi 0.05 --bits 4
    repro-covert faults list             # named fault scenarios
    repro-covert faults run bursty_loss  # stress one scenario
    repro-covert lint                    # invariant linter (repro.analysis)
    repro-covert lint --rule PROB001 --format json
    repro-covert lint --graph            # + whole-program effect analysis
    repro-covert graph calls <function>  # resolved call edges
    repro-covert graph effects <function>  # transitive effect set
    repro-covert graph why <function> clock  # call-chain witness
    repro-covert store ls                # content-addressed result store
    repro-covert store gc --max-age-days 30 --max-bytes 100000000
    repro-covert service run --scenario chaos   # fault-injected load test
    repro-covert service stats           # breaker/shed/retry counters
    repro-covert service replay --n 500  # determinism check (two passes)

Also runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.estimation import CapacityEstimator
from .core.events import ChannelParameters
from .core.theorems import THEOREMS, capacity_bracket
from .experiments.registry import EXPERIMENTS, run_all, run_experiment
from .experiments.registry import runner_kwargs as _runner_kwargs
from .service.query import SAMPLER_NAMES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-covert",
        description=(
            "Reproduction of 'Capacity Estimation of Non-Synchronous "
            "Covert Channels' (Wang & Lee, ICDCS 2005)"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run an experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id (E1..E9) or 'all'")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for Monte-Carlo replications (experiments "
        "that accept it; results are bit-identical to --workers 1)",
    )
    run_p.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for Monte-Carlo replication phases; an "
        "exhausted budget checkpoints completed work and stops early "
        "(experiments that accept it)",
    )
    run_p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="output_format",
        help="result output format (default: text tables)",
    )

    est_p = sub.add_parser(
        "estimate",
        help="capacity estimate: paper recipe, or kNN sampling "
        "with --sampler",
    )
    est_p.add_argument(
        "--pd",
        type=float,
        required=True,
        help="deletion prob (with --sampler: the channel's noise knob)",
    )
    est_p.add_argument("--pi", type=float, default=0.0, help="insertion prob")
    est_p.add_argument("--bits", type=int, default=1, help="bits per symbol")
    est_p.add_argument(
        "--physical",
        type=float,
        default=None,
        help="traditional physical capacity to correct (optional)",
    )
    est_p.add_argument(
        "--sampler",
        choices=list(SAMPLER_NAMES),
        default=None,
        help="estimate from samples via the Kraskov kNN pipeline "
        "(repro.estimation) instead of the closed-form recipe",
    )
    est_p.add_argument(
        "--samples",
        type=int,
        default=4096,
        help="channel uses per kNN estimator evaluation",
    )
    est_p.add_argument(
        "--seed", type=int, default=0, help="kNN estimation RNG seed"
    )

    bounds_p = sub.add_parser("bounds", help="Theorem 4/5 capacity bracket")
    bounds_p.add_argument("--pd", type=float, required=True)
    bounds_p.add_argument("--pi", type=float, default=0.0)
    bounds_p.add_argument("--bits", type=int, default=1)

    sub.add_parser("theorems", help="print the paper's theorem statements")

    faults_p = sub.add_parser(
        "faults", help="fault-injection scenarios (repro.faults)"
    )
    faults_sub = faults_p.add_subparsers(dest="faults_command")
    faults_sub.add_parser("list", help="list registered fault scenarios")
    faults_run_p = faults_sub.add_parser(
        "run", help="run the hardened counter protocol under one scenario"
    )
    faults_run_p.add_argument("scenario", help="scenario name (see 'faults list')")
    faults_run_p.add_argument("--pd", type=float, default=0.1)
    faults_run_p.add_argument("--pi", type=float, default=0.05)
    faults_run_p.add_argument("--bits", type=int, default=3)
    faults_run_p.add_argument("--symbols", type=int, default=25_000)
    faults_run_p.add_argument("--seed", type=int, default=0)

    lint_p = sub.add_parser(
        "lint", help="run the repro.analysis invariant linter"
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the whole project, "
        "including registry/API completeness checks)",
    )
    lint_p.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        help="run only this rule id (repeatable; e.g. --rule PROB001)",
    )
    lint_p.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        dest="output_format",
        help="findings output format (default: text)",
    )
    lint_p.add_argument(
        "--graph",
        action="store_true",
        help="also run the whole-program GRAPH rules (cache purity, "
        "pool picklability, transitive clock reachability); project "
        "mode only",
    )

    graph_p = sub.add_parser(
        "graph",
        help="whole-program call-graph and effect analysis "
        "(repro.analysis.graph)",
    )
    graph_sub = graph_p.add_subparsers(dest="graph_command")
    graph_calls_p = graph_sub.add_parser(
        "calls", help="resolved call edges of one function"
    )
    graph_calls_p.add_argument(
        "function",
        help="fully qualified name, or an unambiguous suffix "
        "(e.g. ExperimentRunner.run)",
    )
    graph_effects_p = graph_sub.add_parser(
        "effects", help="direct and transitive effect set of a function"
    )
    graph_effects_p.add_argument("function")
    graph_why_p = graph_sub.add_parser(
        "why",
        help="call-chain witness: how a function reaches an effect",
    )
    graph_why_p.add_argument("function")
    graph_why_p.add_argument(
        "effect",
        help="effect to explain: rng, clock, filesystem, env, network, "
        "global_mutation, stdout, unknown",
    )

    store_p = sub.add_parser(
        "store", help="content-addressed result store (repro.store)"
    )
    store_sub = store_p.add_subparsers(dest="store_command")
    store_ls_p = store_sub.add_parser("ls", help="list stored entries")
    store_inspect_p = store_sub.add_parser(
        "inspect", help="print one entry's provenance manifest"
    )
    store_inspect_p.add_argument(
        "key", help="entry key (a unique prefix suffices)"
    )
    store_gc_p = store_sub.add_parser(
        "gc", help="evict entries by age and/or size budget"
    )
    store_gc_p.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="evict entries created more than this many days ago",
    )
    store_gc_p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="evict least-recently-used entries until the store fits",
    )
    store_gc_p.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    store_verify_p = store_sub.add_parser(
        "verify", help="re-hash every payload against its manifest"
    )
    store_stats_p = store_sub.add_parser(
        "stats", help="entry counts, bytes, and recorded solve time"
    )
    for p in (
        store_ls_p, store_inspect_p, store_gc_p, store_verify_p, store_stats_p
    ):
        p.add_argument(
            "--dir",
            default=None,
            dest="store_dir",
            help="store directory (default: the REPRO_STORE_DIR store)",
        )

    service_p = sub.add_parser(
        "service", help="resilient capacity-query service (repro.service)"
    )
    service_sub = service_p.add_subparsers(dest="service_command")

    def _add_service_knobs(p: argparse.ArgumentParser, n_default: int) -> None:
        p.add_argument(
            "--n", type=int, default=n_default, dest="n_queries",
            help=f"trace length (default: {n_default})",
        )
        p.add_argument(
            "--scenario", default="none",
            help="fault scenario (see 'service scenarios'; default: none)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--workers", type=int, default=2,
            help="worker processes in the supervised pool",
        )
        p.add_argument(
            "--concurrency", type=int, default=256,
            help="concurrent client submissions",
        )
        p.add_argument(
            "--queue-limit", type=int, default=128,
            help="admission-control queue bound (shed ladder engages "
            "as the queue fills)",
        )
        p.add_argument("--batch-size", type=int, default=32)
        p.add_argument(
            "--deadline", type=float, default=5.0,
            help="per-query deadline in seconds (default: 5.0)",
        )

    service_run_p = service_sub.add_parser(
        "run",
        help="fault-injected load test: every query must terminate in "
        "exactly one status",
    )
    _add_service_knobs(service_run_p, 10_000)
    service_run_p.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format",
    )
    service_run_p.add_argument(
        "--output", default=None,
        help="also write the JSON report to this file",
    )
    service_stats_p = service_sub.add_parser(
        "stats",
        help="serve a short trace and print the observability snapshot "
        "(breaker, shed, retry, store counters)",
    )
    _add_service_knobs(service_stats_p, 500)
    service_stats_p.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format",
    )
    service_replay_p = service_sub.add_parser(
        "replay",
        help="serve the same deterministic trace twice and verify the "
        "answers are identical",
    )
    _add_service_knobs(service_replay_p, 500)
    service_sub.add_parser(
        "scenarios", help="list the named service fault scenarios"
    )

    report_p = sub.add_parser(
        "report", help="run all experiments and write a results file"
    )
    report_p.add_argument("--output", default="experiment_results.txt")
    report_p.add_argument("--seed", type=int, default=0)

    fig_p = sub.add_parser(
        "figures", help="render the paper's figures and curves as text"
    )
    fig_p.add_argument(
        "number", nargs="?", type=int, default=None,
        help="figure number 1-5 (default: all, plus the curves)",
    )
    return parser


def _cmd_list() -> int:
    for key in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[key].__module__ or "").rsplit(".", 1)[-1]
        print(f"{key}: {doc}")
    return 0


def _cmd_run(
    experiment: str,
    seed: int,
    workers: int = 1,
    output_format: str = "text",
    budget: Optional[float] = None,
) -> int:
    if experiment.lower() == "all":
        results = run_all(seed=seed, workers=workers)
    else:
        try:
            kwargs = _runner_kwargs(
                experiment, seed=seed, workers=workers, budget=budget
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        results = [run_experiment(experiment, **kwargs)]
    failures = sum(0 if result.passed else 1 for result in results)
    if output_format == "json":
        import json

        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        for result in results:
            print(result.summary())
            print()
    return 1 if failures else 0


def _cmd_estimate(pd: float, pi: float, bits: int, physical: Optional[float]) -> int:
    params = ChannelParameters.from_rates(deletion=pd, insertion=pi)
    estimator = CapacityEstimator(bits, physical_capacity=physical)
    print(estimator.estimate(params).summary())
    return 0


def _cmd_estimate_sample(
    sampler: str, noise: float, bits: int, samples: int, seed: int
) -> int:
    """Sample-based estimate through the same front door the service
    uses: normalize (reject bad input with the service's reasons),
    build the named reference sampler, run the kNN pipeline."""
    from .estimation import estimate_sample_capacity
    from .service.query import MalformedQueryError, normalize_query
    from .service.workers import SAMPLE_CAPACITY_K, reference_sampler

    try:
        query = normalize_query(
            {
                "kind": "sample_capacity",
                "sampler": sampler,
                "deletion": noise,
                "insertion": 0.0,
                "bits_per_symbol": bits,
                "n_samples": samples,
            }
        )
    except MalformedQueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = estimate_sample_capacity(
        reference_sampler(query),
        n_samples=query.n_samples,
        seed=seed,
        k=SAMPLE_CAPACITY_K,
    )
    print("Sample-based capacity estimate (Kraskov kNN)")
    print(f"  sampler                : {sampler} (noise {noise})")
    print(f"  samples / neighbours   : {result.n_samples} / k={result.k}")
    print(f"  capacity               : {result.capacity:.6f} bits/time-unit")
    print(f"  MI at optimum          : {result.bits_per_symbol:.6f} bits/symbol")
    print(f"  mean symbol time       : {result.mean_time:.6f}")
    dist = ", ".join(f"{p:.4f}" for p in result.input_distribution)
    print(f"  input distribution     : [{dist}]")
    print(
        f"  optimizer              : {result.status.value} "
        f"after {result.iterations} iterations"
    )
    if result.diagnostics is not None:
        for note in result.diagnostics.notes:
            print(f"  note                   : {note}")
    return 0


def _cmd_bounds(pd: float, pi: float, bits: int) -> int:
    lower, upper = capacity_bracket(bits, pd, pi)
    print(f"Theorem 5 lower bound : {lower:.6f} bits/sender-slot")
    print(f"Theorem 4 upper bound : {upper:.6f} bits/use")
    print(f"bracket width         : {upper - lower:.6f}")
    return 0


def _cmd_report(output: str, seed: int) -> int:
    """Run every experiment and write the tables to *output*."""
    results = run_all(seed=seed)
    lines = [
        "Experiment results — 'Capacity Estimation of Non-Synchronous "
        "Covert Channels' reproduction",
        f"(seed {seed}; regenerate with: repro-covert report --seed {seed})",
        "",
    ]
    failures = 0
    for result in results:
        lines.append(result.summary())
        lines.append("")
        failures += 0 if result.passed else 1
    lines.append(
        f"{len(results) - failures}/{len(results)} experiments passed."
    )
    with open(output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {output} ({len(results)} experiments, "
          f"{failures} failures)")
    return 1 if failures else 0


def _cmd_figures(number: Optional[int]) -> int:
    from .experiments.figures import (
        FIGURES,
        convergence_figure,
        rate_figure,
        render_figure,
    )

    if number is not None:
        print(render_figure(number))
        return 0
    for k in sorted(FIGURES):
        print(render_figure(k))
        print()
    print(convergence_figure())
    print()
    print(rate_figure())
    return 0


def _cmd_faults_list() -> int:
    from .faults.scenarios import list_scenarios

    for scenario in list_scenarios():
        print(f"{scenario.name}: {scenario.description}")
    return 0


def _cmd_faults_run(
    scenario: str, pd: float, pi: float, bits: int, symbols: int, seed: int
) -> int:
    from .faults.injector import run_under_faults
    from .faults.scenarios import get_scenario
    from .simulation.rng import make_rng

    try:
        fault_scenario = get_scenario(scenario)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    rng = make_rng(seed)
    message = rng.integers(0, 2**bits, symbols)
    try:
        params = ChannelParameters.from_rates(deletion=pd, insertion=pi)
        injector = fault_scenario.build(params, seed=seed)
        fm = run_under_faults(params, message, rng, injector, bits_per_symbol=bits)
    except ValueError as exc:
        # Bad rates, or a channel no run can finish on (P_d = 1), are
        # usage errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"scenario           : {scenario}")
    print(f"completed          : {fm.completed}")
    print(f"degraded           : {fm.run.degraded}")
    print(f"empirical P_d      : {fm.empirical_params.deletion:.4f}")
    print(f"empirical P_i      : {fm.empirical_params.insertion:.4f}")
    print(f"rate (bits/use)    : {fm.information_rate_per_use:.4f}")
    print(f"bound N(1-P̂_d)     : {fm.empirical_erasure_bound:.4f}")
    print(f"within bound       : {fm.within_bound}")
    if fm.fault_counts:
        print("fault counts       :")
        for name in sorted(fm.fault_counts):
            print(f"  {name}: {fm.fault_counts[name]}")
    return 0 if (fm.completed and fm.within_bound) else 1


def _cmd_lint(
    paths: List[str],
    rules: Optional[List[str]],
    output_format: str,
    graph: bool = False,
) -> int:
    from .analysis import (
        UnknownRuleError,
        format_json,
        format_sarif,
        format_text,
        get_rules,
        lint_paths,
        lint_project,
    )

    if graph and paths:
        print(
            "error: --graph analyzes the whole project; do not pass paths",
            file=sys.stderr,
        )
        return 2
    try:
        if paths:
            findings = lint_paths(paths, rule_ids=rules)
        else:
            findings = lint_project(rule_ids=rules, graph=graph)
    except UnknownRuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output_format == "json":
        print(format_json(findings))
    elif output_format == "sarif":
        print(format_sarif(findings, rules=get_rules(rules)))
    else:
        print(format_text(findings))
    return 1 if findings else 0


def _graph_analysis():
    """Analyze the current project for the ``graph`` subcommands, or
    ``None`` after printing an error (no project root found)."""
    from .analysis import find_project_root
    from .analysis.graph import analyze_source_root

    root = find_project_root()
    if root is None:
        print(
            "error: cannot locate the project root (a directory "
            "containing src/repro)",
            file=sys.stderr,
        )
        return None
    return analyze_source_root(root / "src")


def _graph_resolve_function(analysis, name: str) -> Optional[str]:
    """Resolve *name* (qname or unambiguous suffix) or print why not."""
    functions = analysis.graph.functions
    if name in functions:
        return name
    matches = sorted(q for q in functions if q.endswith("." + name))
    if len(matches) == 1:
        return matches[0]
    if not matches:
        print(f"error: no function named {name!r}", file=sys.stderr)
    else:
        print(
            f"error: {name!r} is ambiguous; candidates:", file=sys.stderr
        )
        for q in matches[:10]:
            print(f"  {q}", file=sys.stderr)
    return None


def _cmd_graph_calls(name: str) -> int:
    analysis = _graph_analysis()
    if analysis is None:
        return 2
    qname = _graph_resolve_function(analysis, name)
    if qname is None:
        return 2
    graph = analysis.graph
    node = graph.functions[qname]
    path = graph.modules[node.info.module].path
    print(f"{qname} ({path}:{node.info.line})")
    if node.callees:
        print("  calls:")
        for callee, line in sorted(set(node.callees)):
            print(f"    {callee} (line {line})")
    if node.external_calls:
        print("  external:")
        for target, line in sorted(set(node.external_calls)):
            print(f"    {target} (line {line})")
    if node.unresolved:
        print("  unresolved:")
        for call in node.unresolved:
            print(f"    {'.'.join(call.parts)}(...) (line {call.line})")
    callers = graph.callers_of(qname)
    if callers:
        print("  called by:")
        for caller in callers:
            print(f"    {caller}")
    return 0


def _cmd_graph_effects(name: str) -> int:
    analysis = _graph_analysis()
    if analysis is None:
        return 2
    qname = _graph_resolve_function(analysis, name)
    if qname is None:
        return 2
    graph = analysis.graph
    node = graph.functions[qname]
    transitive = analysis.closure.get(qname, frozenset())
    rendered = (
        ", ".join(sorted(e.value for e in transitive))
        if transitive
        else "none (transitively pure)"
    )
    print(f"{qname}: {rendered}")
    if node.info.effects:
        print("  direct origins:")
        for origin in node.info.effects:
            waived = " [waived]" if origin.waived else ""
            print(
                f"    line {origin.line}: {origin.effect.value} — "
                f"{origin.detail}{waived}"
            )
    if node.cached_fn_id is not None:
        print(f"  cached_solve target (fn_id={node.cached_fn_id!r})")
    return 0


def _cmd_graph_why(name: str, effect_tag: str) -> int:
    from .analysis.graph import Effect, format_witness, witness_chain
    from .analysis.graph.lattice import effect_from_tag

    analysis = _graph_analysis()
    if analysis is None:
        return 2
    qname = _graph_resolve_function(analysis, name)
    if qname is None:
        return 2
    try:
        effect = effect_from_tag(effect_tag.lower())
    except KeyError:
        print(
            f"error: unknown effect {effect_tag!r}; one of: "
            + ", ".join(sorted(e.value for e in Effect)),
            file=sys.stderr,
        )
        return 2
    steps = witness_chain(analysis.graph, qname, effect, analysis.closure)
    if steps is None:
        print(
            f"{qname} does not transitively reach {effect.value} "
            "(unwaived origins only)"
        )
        return 1
    print(format_witness(steps, analysis.graph))
    return 0


def _open_store(store_dir: Optional[str]):
    """Resolve the CLI's target store or exit with a clear message."""
    from .store import StoreError, resolve_store

    try:
        return resolve_store(store_dir)
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_store_ls(store_dir: Optional[str]) -> int:
    store = _open_store(store_dir)
    if store is None:
        return 2
    entries = list(store.entries())
    if not entries:
        print(f"store {store.root}: empty")
        return 0
    for entry in entries:
        print(
            f"{entry.key[:16]}  {entry.fn_id:<24} "
            f"{entry.nbytes:>8d} B  {entry.compute_seconds:8.3f} s"
        )
    print(f"{len(entries)} entries in {store.root}")
    return 0


def _cmd_store_inspect(store_dir: Optional[str], key: str) -> int:
    import json

    store = _open_store(store_dir)
    if store is None:
        return 2
    matches = [k for k in store.keys() if k.startswith(key)]
    if not matches:
        print(f"error: no entry matches {key!r}", file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(
            f"error: {key!r} is ambiguous ({len(matches)} entries); "
            "use a longer prefix",
            file=sys.stderr,
        )
        return 2
    manifest_path = store.path_for(matches[0]) / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: unreadable manifest for {matches[0]}: {exc!r}",
              file=sys.stderr)
        return 2
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _cmd_store_gc(
    store_dir: Optional[str],
    max_age_days: Optional[float],
    max_bytes: Optional[int],
    dry_run: bool,
) -> int:
    store = _open_store(store_dir)
    if store is None:
        return 2
    evicted = store.gc(
        max_age_seconds=(
            None if max_age_days is None else max_age_days * 86_400.0
        ),
        max_total_bytes=max_bytes,
        dry_run=dry_run,
    )
    verb = "would evict" if dry_run else "evicted"
    print(f"{verb} {len(evicted)} entries from {store.root}")
    for key in evicted:
        print(f"  {key}")
    return 0


def _cmd_store_verify(store_dir: Optional[str]) -> int:
    store = _open_store(store_dir)
    if store is None:
        return 2
    issues = store.verify()
    if not issues:
        print(f"store {store.root}: all entries verify")
        return 0
    for issue in issues:
        print(f"{issue.key[:16]}  {issue.problem}")
    print(f"{len(issues)} problems in {store.root}")
    return 1


def _cmd_store_stats(store_dir: Optional[str]) -> int:
    store = _open_store(store_dir)
    if store is None:
        return 2
    stats = store.stats()
    print(f"store      : {store.root}")
    print(f"entries    : {stats.entries}")
    print(f"total bytes: {stats.total_bytes}")
    print(f"solve time : {stats.compute_seconds_total:.3f} s recorded")
    for fn_id in sorted(stats.entries_by_fn):
        print(
            f"  {fn_id:<24} {stats.entries_by_fn[fn_id]:>5d} entries  "
            f"{stats.compute_seconds_by_fn[fn_id]:10.3f} s"
        )
    return 0


def _service_load_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        n_queries=args.n_queries,
        seed=args.seed,
        scenario=args.scenario,
        workers=args.workers,
        concurrency=args.concurrency,
        queue_limit=args.queue_limit,
        batch_size=args.batch_size,
        deadline_seconds=args.deadline,
    )


def _print_service_report(report) -> None:
    print(f"scenario          : {report.scenario}")
    print(f"queries           : {report.n_queries}")
    print(f"lost              : {report.lost}")
    print(
        f"elapsed           : {report.elapsed_seconds:.3f} s "
        f"({report.throughput_qps:.1f} q/s)"
    )
    print(
        f"latency p50 / p99 : {report.latency_p50_seconds:.4f} / "
        f"{report.latency_p99_seconds:.4f} s"
    )
    if report.deadline_seconds is not None:
        verdict = "ok" if report.deadline_p99_ok else "MISSED"
        print(
            f"deadline p99      : {verdict} "
            f"(deadline {report.deadline_seconds:g} s)"
        )
    print(f"pool restarts     : {report.pool_restarts}")
    print("statuses          :")
    for status in sorted(report.status_counts):
        print(f"  {status:<9} {report.status_counts[status]}")


def _print_service_stats(stats: dict) -> None:
    print(f"submitted         : {stats.get('submitted', 0)}")
    print(
        f"batches           : {stats.get('batches', 0)} "
        f"(+{stats.get('fallback_batches', 0)} fell back to the shed "
        "ladder)"
    )
    print(f"retries           : {stats.get('retries', 0)}")
    print(f"queue depth peak  : {stats.get('queue_depth_peak', 0)}")
    print(f"pool restarts     : {stats.get('pool_restarts', 0)}")
    lat = stats.get("latency_seconds", {})
    print(
        f"latency p50 / p99 : {lat.get('p50', 0.0):.4f} / "
        f"{lat.get('p99', 0.0):.4f} s"
    )
    breaker = stats.get("breaker", {})
    print(f"breaker state     : {breaker.get('state', '?')}")
    transitions = breaker.get("transitions", {})
    for name in sorted(transitions):
        print(f"  {name:<22} {transitions[name]}")
    shed = stats.get("shed_levels", {})
    if shed:
        print("shed levels       :")
        for name in sorted(shed):
            print(f"  {name:<12} {shed[name]}")
    counts = stats.get("status_counts", {})
    print("statuses          :")
    for status in sorted(counts):
        print(f"  {status:<9} {counts[status]}")
    events = stats.get("store_events", {})
    if events:
        print("store events      :")
        for name in sorted(events):
            print(f"  {name}: {events[name]}")


def _cmd_service_run(args: argparse.Namespace) -> int:
    import json

    from .service import run_load_test

    report = run_load_test(**_service_load_kwargs(args))
    payload = report.to_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.output}", file=sys.stderr)
    if args.output_format == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_service_report(report)
    return 0 if (report.lost == 0 and report.deadline_p99_ok) else 1


def _cmd_service_stats(args: argparse.Namespace) -> int:
    import json

    from .service import run_load_test

    report = run_load_test(**_service_load_kwargs(args))
    if args.output_format == "json":
        print(json.dumps(report.stats, indent=2))
    else:
        _print_service_stats(report.stats)
    return 0 if report.lost == 0 else 1


def _cmd_service_replay(args: argparse.Namespace) -> int:
    """Serve one deterministic trace twice; identical answers required.

    Statuses may differ between passes (timeouts and shedding are
    timing-dependent by design) — what must never differ is the *value*
    any query resolves to when both passes produce one.
    """
    from .faults import get_service_scenario
    from .service import QueryStatus, generate_trace, serve_queries

    plan = get_service_scenario(args.scenario)
    trace = generate_trace(
        args.n_queries,
        seed=args.seed,
        malformed_rate=plan.malformed_rate,
        deadline_seconds=args.deadline,
    )

    def serve_once():
        results, _ = serve_queries(
            trace,
            concurrency=args.concurrency,
            root_seed=args.seed,
            workers=args.workers,
            batch_size=args.batch_size,
            fault_plan=plan if plan.injects_faults else None,
        )
        answered = (QueryStatus.OK, QueryStatus.CACHED)
        return {
            r.query_id: r.value for r in results if r.status in answered
        }

    first = serve_once()
    second = serve_once()
    common = sorted(set(first) & set(second))
    mismatches = [
        qid for qid in common if first[qid] != second[qid]
    ]
    print(
        f"replay: {len(trace)} queries, {len(common)} answered in both "
        f"passes, {len(mismatches)} value mismatches"
    )
    for qid in mismatches[:10]:
        print(f"  {qid}: {first[qid]!r} != {second[qid]!r}")
    return 1 if mismatches else 0


def _cmd_service_scenarios() -> int:
    from .faults import SERVICE_SCENARIOS

    for name in sorted(SERVICE_SCENARIOS):
        plan = SERVICE_SCENARIOS[name]
        knobs = []
        if plan.worker_crash_prob:
            knobs.append(f"crash {plan.worker_crash_prob:g}")
        if plan.slow_prob:
            knobs.append(
                f"slow {plan.slow_prob:g}x{plan.slow_seconds:g}s"
            )
        if plan.transient_error_prob:
            knobs.append(f"transient {plan.transient_error_prob:g}")
        if plan.malformed_rate:
            knobs.append(f"malformed {plan.malformed_rate:g}")
        print(f"{name}: {', '.join(knobs) if knobs else 'no faults'}")
    return 0


def _cmd_theorems() -> int:
    for number in sorted(THEOREMS):
        t = THEOREMS[number]
        print(f"Theorem {t.number} ({t.title}):")
        print(f"  {t.statement}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(
            args.experiment,
            args.seed,
            args.workers,
            args.output_format,
            args.budget,
        )
    if args.command == "estimate":
        if args.sampler is not None:
            return _cmd_estimate_sample(
                args.sampler, args.pd, args.bits, args.samples, args.seed
            )
        return _cmd_estimate(args.pd, args.pi, args.bits, args.physical)
    if args.command == "bounds":
        return _cmd_bounds(args.pd, args.pi, args.bits)
    if args.command == "theorems":
        return _cmd_theorems()
    if args.command == "faults":
        if args.faults_command == "list":
            return _cmd_faults_list()
        if args.faults_command == "run":
            return _cmd_faults_run(
                args.scenario, args.pd, args.pi, args.bits, args.symbols, args.seed
            )
        print("usage: repro-covert faults {list,run} ...")
        return 2
    if args.command == "store":
        if args.store_command == "ls":
            return _cmd_store_ls(args.store_dir)
        if args.store_command == "inspect":
            return _cmd_store_inspect(args.store_dir, args.key)
        if args.store_command == "gc":
            return _cmd_store_gc(
                args.store_dir, args.max_age_days, args.max_bytes,
                args.dry_run,
            )
        if args.store_command == "verify":
            return _cmd_store_verify(args.store_dir)
        if args.store_command == "stats":
            return _cmd_store_stats(args.store_dir)
        print("usage: repro-covert store {ls,inspect,gc,verify,stats} ...")
        return 2
    if args.command == "service":
        if args.service_command in ("run", "stats", "replay"):
            from .faults import get_service_scenario

            try:
                get_service_scenario(args.scenario)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
        if args.service_command == "run":
            return _cmd_service_run(args)
        if args.service_command == "stats":
            return _cmd_service_stats(args)
        if args.service_command == "replay":
            return _cmd_service_replay(args)
        if args.service_command == "scenarios":
            return _cmd_service_scenarios()
        print("usage: repro-covert service {run,stats,replay,scenarios} ...")
        return 2
    if args.command == "lint":
        return _cmd_lint(
            args.paths, args.rules, args.output_format, args.graph
        )
    if args.command == "graph":
        if args.graph_command == "calls":
            return _cmd_graph_calls(args.function)
        if args.graph_command == "effects":
            return _cmd_graph_effects(args.function)
        if args.graph_command == "why":
            return _cmd_graph_why(args.function, args.effect)
        print("usage: repro-covert graph {calls,effects,why} ...")
        return 2
    if args.command == "report":
        return _cmd_report(args.output, args.seed)
    if args.command == "figures":
        return _cmd_figures(args.number)
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
