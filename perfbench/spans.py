"""Spans recorded from outside bestreply, around calls into its public functions.

``install`` rebinds the module attributes through which the ``bestreply run``
path reaches each layer (cli -> config, engine, models, kernels, outputs), so
the program's source stays untouched. Spans are kept in memory and turned
into per-layer metrics by ``layer_metrics`` when the run ends.

The model hooks (``state_cost``, ``state_gain``) run once per decision,
millions of times in a solve, so they are not stored as spans: each call adds
its count and time to the span that is open when it happens.
"""

from __future__ import annotations

import dataclasses
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def wrap(self, name, fn, annotate=None):
        """``fn`` inside a span; ``annotate(span, kwargs, result)`` adds fields."""

        def traced(*args, **kwargs):
            span = {
                "name": name,
                "id": len(self.spans),
                "parent": self._open[-1]["id"] if self._open else None,
                "children_s": 0.0,
                "hooks": {},
            }
            self.spans.append(span)
            self._open.append(span)
            span["start"] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self._open.pop()
                span["end"] = end
                if self._open:
                    self._open[-1]["children_s"] += end - span["start"]
            if annotate is not None:
                annotate(span, kwargs, result)
            return result

        return traced

    def wrap_hook(self, name, fn):
        """``fn`` counted and timed into the enclosing span (no span of its own)."""
        open_spans = self._open

        def counted(*args):
            start = _clock()
            result = fn(*args)
            elapsed = _clock() - start
            parent = open_spans[-1]
            parent["children_s"] += elapsed
            tally = parent["hooks"].get(name)
            if tally is None:
                tally = parent["hooks"][name] = [0, 0.0]
            tally[0] += 1
            tally[1] += elapsed
            return result

        return counted

    def counted_model(self, model):
        """Copy of ``model`` whose per-decision hooks report to this tracer."""
        return dataclasses.replace(
            model,
            state_cost=self.wrap_hook("models.state_cost", model.state_cost),
            state_gain=self.wrap_hook("models.state_gain", model.state_gain),
        )


def _annotate_sweep(span, kwargs, result):
    traj, report = result
    span["phase"] = kwargs["phase"]
    span["sweep"] = kwargs["sweep_index"]
    span["modifications"] = report.modifications
    # every live (particle, step) pair of the new trajectories was one decision
    span["decisions"] = int(traj.exit_step.clip(max=traj.n_steps).sum())


def _annotate_phase(span, kwargs, result):
    span["phase"] = kwargs["phase"]


def install(tracer: Tracer, cli, config, engine, kernels, outputs) -> None:
    """Wrap every layer boundary on the ``bestreply run`` path in a span."""
    wrap = tracer.wrap
    cli.parse_config = wrap("config.parse_config", cli.parse_config)
    config.RunConfig.build_model = wrap("config.build_model", config.RunConfig.build_model)
    config.RunConfig.build_grid = wrap("config.build_grid", config.RunConfig.build_grid)
    engine.run_to_equilibrium = wrap(
        "engine.run_to_equilibrium", engine.run_to_equilibrium, _annotate_phase
    )
    engine.make_noise = wrap("engine.make_noise", engine.make_noise)
    engine.simulate_controls = wrap("engine.simulate_controls", engine.simulate_controls)
    engine.sweep_best_reply = wrap(
        "engine.sweep_best_reply", engine.sweep_best_reply, _annotate_sweep
    )
    engine.prune_control_set = wrap("engine.prune_control_set", engine.prune_control_set)
    engine.warm_start_controls = wrap("engine.warm_start_controls", engine.warm_start_controls)
    engine.time_averaged_moments = wrap(
        "engine.time_averaged_moments", engine.time_averaged_moments
    )
    engine.weak_star_distance_from_moments = wrap(
        "kernels.weak_star_distance_from_moments", engine.weak_star_distance_from_moments
    )
    kernels.ShapeKernel.density = wrap("kernels.ShapeKernel.density", kernels.ShapeKernel.density)
    outputs.value_function_trace = wrap(
        "outputs.value_function_trace", outputs.value_function_trace
    )


def _duration(span) -> float:
    return span["end"] - span["start"]


def _self(span) -> float:
    return _duration(span) - span["children_s"]


def layer_metrics(spans: list[dict]) -> tuple[dict, list[dict]]:
    """Per-layer metrics and the per-sweep log from one traced ``bestreply run``.

    Times are seconds of self time (span minus its child spans and hook
    calls) unless the name says otherwise. Expects exactly one
    ``engine.run_two_phase`` span (the solve) and one
    ``outputs.write_outputs`` span.
    """
    by_id = {span["id"]: span for span in spans}
    (solve,) = [s for s in spans if s["name"] == "engine.run_two_phase"]
    (write,) = [s for s in spans if s["name"] == "outputs.write_outputs"]

    def under(span, ancestor) -> bool:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span is ancestor:
                return True
        return False

    def total(names, within, measure=_self) -> float:
        return sum((measure(s) for s in spans if s["name"] in names and under(s, within)), 0.0)

    sweeps = [s for s in spans if s["name"] == "engine.sweep_best_reply" and under(s, solve)]
    hooks = {"models.state_cost": [0, 0.0], "models.state_gain": [0, 0.0]}
    for sweep in sweeps:
        for name, (calls, seconds) in sweep["hooks"].items():
            hooks[name][0] += calls
            hooks[name][1] += seconds
    decisions = sum(s["decisions"] for s in sweeps)
    modifications = sum(s["modifications"] for s in sweeps)
    sweep_self = sum(_self(s) for s in sweeps)
    sweep_loop = sweep_self + hooks["models.state_cost"][1] + hooks["models.state_gain"][1]
    phases = {
        s["phase"]: _duration(s)
        for s in spans
        if s["name"] == "engine.run_to_equilibrium" and under(s, solve)
    }

    # the solve's layers: together with the orchestration left unattributed
    # they cover the whole run_two_phase span
    solve_layers = {
        "engine.noise_s": total({"engine.make_noise"}, solve),
        # rollouts keep their own model-hook calls (refinancing's state_gain)
        "engine.rollout_s": total({"engine.simulate_controls"}, solve, _duration),
        "engine.prune_s": total({"engine.prune_control_set", "engine.warm_start_controls"}, solve),
        "engine.sweep_self_s": sweep_self,
        "engine.moments_s": total({"engine.time_averaged_moments"}, solve),
        "kernels.metric_s": total({"kernels.weak_star_distance_from_moments"}, solve),
        "models.state_cost_s": hooks["models.state_cost"][1],
        "models.state_gain_s": hooks["models.state_gain"][1],
    }
    metrics = {
        **solve_layers,
        "engine.unattributed_s": _duration(solve) - sum(solve_layers.values()),
        "config.load_s": sum(
            _duration(s)
            for s in spans
            if s["name"].startswith("config.") and by_id[s["parent"]]["name"] == "cli.main"
        ),
        "models.state_cost_calls": hooks["models.state_cost"][0],
        "models.state_gain_calls": hooks["models.state_gain"][0],
        "engine.us_per_decision": 1e6 * sweep_loop / decisions,
        "engine.decisions": decisions,
        "engine.modification_ratio": modifications / decisions,
        "engine.sweeps_phase1": sum(1 for s in sweeps if s["phase"] == 1),
        "engine.sweeps_phase2": sum(1 for s in sweeps if s["phase"] == 0),
        "engine.phase1_s": phases.get(1, 0.0),
        "engine.phase2_s": phases[0],
        "kernels.kde_s": total({"kernels.ShapeKernel.density"}, write),
        "outputs.value_trace_s": total({"outputs.value_function_trace"}, write, _duration),
        "outputs.write_self_s": _self(write),
        "trace.solve_s": _duration(solve),
    }

    sweep_log = []
    for s in sweeps:
        seconds = _duration(s)
        calls = sum(calls for calls, _seconds in s["hooks"].values())
        sweep_log.append({
            "phase": s["phase"],
            "sweep": s["sweep"],
            "wall_s": seconds,
            "modifications": s["modifications"],
            "decisions": s["decisions"],
            "hook_calls": calls,
            "us_per_decision": 1e6 * seconds / s["decisions"] if s["decisions"] else 0.0,
        })
    return metrics, sweep_log
