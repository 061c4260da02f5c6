"""One benchmark operation in a fresh process: ``bestreply run`` via ``cli.main``.

    python3 perfbench/child.py MODE CONFIG OUT RESULT [--verify] [--rewrites N]

MODE is ``setup`` (stop as soon as the config is parsed and the model and
grid are built), ``run`` or ``trace`` (``run`` with spans around every layer).
The solve and the artifact writing are timed by wrapping the two functions
``cli`` calls for them. Timestamps are CLOCK_MONOTONIC, which the parent
shares, so the parent measures from the moment it started this process.
Everything after ``cli.main`` returns (extra writes, the equilibrium check)
lies outside the timed region. The outcome goes to RESULT as JSON.
"""

import json
import resource
import sys
import time
from pathlib import Path


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _SetupDone(Exception):
    pass


def main(argv: list[str]) -> int:
    mode, config_path, out, result_path = argv[:4]
    verify = "--verify" in argv
    rewrites = int(argv[argv.index("--rewrites") + 1]) if "--rewrites" in argv else 0
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))

    start = now()
    from bestreply import cli
    import_s = now() - start
    from bestreply import config, engine, kernels, outputs

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, cli, config, engine, kernels, outputs)
    solve_fn, write_fn = cli.run_two_phase, cli.write_outputs
    if tracer is not None:
        solve_fn = tracer.wrap("engine.run_two_phase", solve_fn)
        write_fn = tracer.wrap("outputs.write_outputs", write_fn)
    seen: dict = {}

    def timed_solve(model, grid, **kwargs):
        seen["setup_end"] = now()
        if mode == "setup":
            raise _SetupDone
        if tracer is not None:
            model = tracer.counted_model(model)
        begin = now()
        seen["outcome"] = solve_fn(model, grid, **kwargs)
        seen["solve_s"] = now() - begin
        return seen["outcome"]

    def timed_write(cfg, outcome, out_dir):
        seen["config"] = cfg
        begin = now()
        manifest = write_fn(cfg, outcome, out_dir)
        seen["write_s"] = [now() - begin]
        return manifest

    cli.run_two_phase, cli.write_outputs = timed_solve, timed_write
    run_args = ["run", "--config", config_path, "--out", out]
    main_fn = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    try:
        rc = main_fn(run_args)
    except _SetupDone:
        rc = 0
    end = now()
    result = {"rc": rc, "import_s": import_s, "setup_end": seen["setup_end"]}
    if mode != "setup":
        result["end"] = end
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cfg, outcome = seen["config"], seen["outcome"]
        result["solve_s"] = seen["solve_s"]
        result["sweeps"] = [
            len(outcome.phase1.reports) if outcome.phase1 is not None else 0,
            len(outcome.phase2.reports),
        ]
        result["modifications"] = [
            r.modifications
            for phase in (outcome.phase1, outcome.phase2)
            if phase is not None
            for r in phase.reports
        ]
        result["controls_kept"] = outcome.grid_pruned.n_points
        if tracer is not None:
            metrics, sweep_log = spans.layer_metrics(tracer.spans)
            metrics["cli.import_s"] = import_s
            result["layers"], result["sweep_log"] = metrics, sweep_log
        for k in range(rewrites):
            begin = now()
            outputs.write_outputs(cfg, outcome, f"{out}-w{k}")
            seen["write_s"].append(now() - begin)
        result["write_s"] = seen["write_s"]
        if verify:
            modifications, residual = engine.verify_equilibrium(
                outcome.phase2.trajectories,
                cfg.build_model(),
                outcome.grid_pruned,
                seed=cfg.seed,
                phase=0,
                options=cfg.sweep_options(),
                sweep_index=len(outcome.phase2.reports) + 1,
            )
            result["verify"] = {"modifications": modifications, "residual": residual}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
