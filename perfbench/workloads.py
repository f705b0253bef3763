"""The benchmark's three workloads, driven through repro's public API, save
that ``lossy`` runs the degradation experiment's own point runner and cases.

* ``paper`` -- every experiment in ``ALL_EXPERIMENTS`` at its committed
  defaults, in registry order: the wall-clock cost of reproducing the paper.
  Most of it is fig09's dynamic hashtable, which never reaches the bulk
  engine.
* ``roofline`` -- the paper's flood method at depth: floods over both
  Perlmutter views x every runtime each hosts x 8 B..1 MiB x 1..8192
  msgs/sync, then a LogGP fit per leg.  One-sided and shmem floods are
  costed by ``repro.perf``; the two-sided legs stay scalar.
* ``lossy`` -- the degradation traffic (flood, stencil, hashtable on three
  runtimes at rising loss, and the flood at rising jitter), without its
  clean baselines: every job has a fault injector, so every fabric transfer
  takes the faulty path and the bulk engine never runs.

The seed argument offsets the seeds the committed goldens were made with,
so seed 0 reproduces them: fig08's matrix seed, fig09's key seed and the
lossy fault-plan seed.

A pass returns an :class:`Outcome`: the canonical text of every output part
plus the named correctness checks the program itself states (experiment
expectations, flood roofline shape, degradation claims).  Comparing parts
against stored references happens outside the timed pass, in
:mod:`perfbench.checks`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

WORKLOADS = ("paper", "roofline", "lossy")

# Seeds of the committed outputs: fig08 (matrix), fig09 (keys), lossy faults.
FIG08_SEED = 2
FIG09_SEED = 5
LOSSY_FAULT_SEED = 11

# Output parts whose inputs change with the seed; their stored references
# only apply at seed 0.
SEEDED_PARTS = {"paper": ("fig08", "fig09"), "roofline": (), "lossy": ("lossy",)}

ROOFLINE_MACHINES = ("perlmutter-cpu", "perlmutter-gpu")
ROOFLINE_SIZES = (8, 512, 32768, 1048576)
ROOFLINE_MSGS = (1, 8, 64, 512, 8192)
ROOFLINE_ITERS = 1

@dataclass
class Outcome:
    """What one pass produced: output parts and the program's own checks."""

    parts: dict[str, str] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    # Rendered report text, kept for the experiments that have goldens.
    rendered: dict[str, str] = field(default_factory=dict)


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=float)


# -- set-up ---------------------------------------------------------------------


def setup(workload: str) -> None:
    """Import repro and resolve the workload's machines and backends."""
    from repro.machines.registry import get_machine, machine_names
    from repro.transport import backend_names, get_backend

    if workload == "paper":
        import repro.experiments  # noqa: F401 -- imports every experiment

        machines = machine_names(include_projections=True)
        backends = backend_names()
    elif workload == "roofline":
        import repro.roofline  # noqa: F401
        import repro.workloads.flood  # noqa: F401

        machines = ROOFLINE_MACHINES
        backends = sorted(
            {rt for m in machines for rt in get_machine(m).runtimes}
        )
    elif workload == "lossy":
        cases = _lossy_grid()[0]
        machines = sorted({m for m, _ in cases})
        backends = sorted({rt for _, rt in cases})
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for name in machines:
        get_machine(name)
    for name in backends:
        get_backend(name)


def _nothing() -> None:
    pass


def run_pass(workload: str, seed: int, tick=_nothing) -> Outcome:
    """Run one full pass of ``workload`` at ``seed``.

    ``tick()`` is called between the pass's large units of work (each
    experiment, each roofline leg), where the caller may sample the box's
    speed outside the timed work.
    """
    runner = {"paper": _paper, "roofline": _roofline, "lossy": _lossy}[workload]
    return runner(seed, tick)


# -- paper ------------------------------------------------------------------------


def _paper_kwargs(name: str, seed: int) -> dict:
    if name == "fig08":
        return {"seed": FIG08_SEED + seed}
    if name == "fig09":
        return {"seed": FIG09_SEED + seed}
    return {}


def _paper(seed: int, tick) -> Outcome:
    from repro.experiments import ALL_EXPERIMENTS

    out = Outcome()
    for name, run in ALL_EXPERIMENTS.items():
        try:
            report = run(**_paper_kwargs(name, seed))
        except Exception as exc:  # one experiment failing is a counted check
            out.checks[f"{name}: completed ({type(exc).__name__}: {exc})"] = False
            continue
        out.checks[f"{name}: completed"] = True
        for claim, ok in report.expectations.items():
            out.checks[f"{name}: {claim}"] = bool(ok)
        out.parts[name] = report.to_json(indent=None)
        out.rendered[name] = report.render()
        tick()
    return out


# -- roofline ---------------------------------------------------------------------


def flood_point(params, seed):
    """Sweep point runner: one flood, returned with full precision."""
    from repro.machines.registry import get_machine
    from repro.workloads.flood import run_flood

    r = run_flood(
        get_machine(params["machine"]), params["runtime"], params["nbytes"],
        params["msgs"], iters=params["iters"],
    )
    return {"time_total": r.time_total, "bandwidth": r.bandwidth}


def _roofline_legs() -> list[tuple[str, str]]:
    from repro.machines.registry import get_machine

    return [
        (m, rt) for m in ROOFLINE_MACHINES for rt in sorted(get_machine(m).runtimes)
    ]


def _roofline(seed: int, tick) -> Outcome:
    from repro.roofline import FloodSample, fit_loggp
    from repro.sweep import SweepSpec, run_sweep

    out = Outcome()
    for machine, runtime in _roofline_legs():
        leg = f"{machine}/{runtime}"
        spec = SweepSpec(
            name=f"roofline.{leg}",
            runner=flood_point,
            points=[
                {"nbytes": b, "msgs": n} for b in ROOFLINE_SIZES for n in ROOFLINE_MSGS
            ],
            common={"machine": machine, "runtime": runtime, "iters": ROOFLINE_ITERS},
        )
        results = run_sweep(spec, on_error="keep")
        rows = []
        bw: dict[tuple[int, int], float] = {}
        for r in results:
            p = r.params
            out.checks[f"{leg} B={p['nbytes']} n={p['msgs']}: completed"] = r.ok
            if r.ok:
                bw[(p["nbytes"], p["msgs"])] = r.value["bandwidth"]
                rows.append([p["nbytes"], p["msgs"], r.value["time_total"],
                             r.value["bandwidth"]])
        for b in ROOFLINE_SIZES:
            curve = [bw.get((b, n)) for n in ROOFLINE_MSGS]
            out.checks[f"{leg} B={b}: bandwidth non-decreasing in msgs/sync"] = (
                None not in curve
                and all(x <= y for x, y in zip(curve, curve[1:]))
            )
        fit = None
        if len(rows) >= 4:
            res = fit_loggp([FloodSample(float(b), n, v) for b, n, _t, v in rows])
            p = res.params
            fit = [p.L, p.o, p.g, p.G, res.residual_rms]
            out.checks[f"{leg}: LogGP fit has positive parameters"] = min(fit[:4]) > 0
        # The fit is a numerical optimisation, so it enters the digest at
        # nine significant digits; the simulated floods enter exactly.
        out.parts[leg] = _canonical(
            {"floods": rows, "fit": None if fit is None else [f"{x:.9g}" for x in fit]}
        )
        tick()
    return out


# -- lossy ------------------------------------------------------------------------


def _lossy_grid():
    """The degradation experiment's cases, nonzero loss rates and nonzero
    jitters.  Its clean baselines are left out: a clean plan keeps the
    fault-free fabric path and the bulk engine, and this workload is the
    faulty path alone."""
    from repro.experiments import degradation

    return (
        degradation._CASES,
        tuple(x for x in degradation.LOSS_RATES if x > 0),
        tuple(x for x in degradation.JITTERS if x > 0),
    )


def _lossy(seed: int, tick) -> Outcome:
    # The experiment's own point runner, so this traffic cannot drift from
    # it; only the fault seed and the dropped baselines are the benchmark's.
    from repro.experiments.degradation import _point
    from repro.sweep import SweepSpec, run_sweep

    cases, losses, jitters = _lossy_grid()
    fault_seed = LOSSY_FAULT_SEED + seed
    grid = [
        (w, m, rt, loss, 0.0)
        for w in ("flood", "stencil", "hashtable")
        for m, rt in cases
        for loss in losses
    ] + [("flood", m, rt, 0.0, j) for m, rt in cases for j in jitters]
    spec = SweepSpec(
        name="lossy",
        runner=_point,
        points=[
            {"workload": w, "machine": m, "runtime": rt, "loss": loss, "jitter": j}
            for w, m, rt, loss, j in grid
        ],
        common={"fault_seed": fault_seed},
    )
    out = Outcome()
    v: dict[tuple, float] = {}
    rows = []
    for r in run_sweep(spec, on_error="keep"):
        p = r.params
        key = (p["workload"], p["runtime"], p["loss"], p["jitter"])
        out.checks[f"{'/'.join(map(str, key))}: completed"] = r.ok
        if r.ok:
            v[key] = r.value["metric"]
            rows.append([*key, r.value["metric"], r.value["drops"],
                         r.value["retransmits"], r.value["exhausted"]])
    out.parts["lossy"] = _canonical({"fault_seed": fault_seed, "rows": rows})
    try:
        out.checks.update(_lossy_claims(v))
    except KeyError:  # a point a claim needs failed; already counted above
        out.checks["lossy claims: every point they need completed"] = False
    return out


def _lossy_claims(v: dict[tuple, float]) -> dict[str, bool]:
    """The degradation experiment's claims that hold at every fault seed.

    Loss draws are hash-coupled (a message lost at one rate is lost at every
    higher rate) and jitter scales one draw, so more faults can only slow a
    run.  Its runtime-ordering claims hold at its own seed but not at every
    seed, so they are checked in ``paper`` only.
    """
    cases, losses, jitters = _lossy_grid()
    low, top = losses[0], losses[-1]
    claims = {}
    for _m, rt in cases:
        bws = [v[("flood", rt, loss, 0.0)] for loss in losses]
        claims[f"flood/{rt}: bandwidth non-increasing in loss"] = all(
            a >= b for a, b in zip(bws, bws[1:])
        )
        claims[f"flood/{rt}: more jitter only slows the flood"] = (
            v[("flood", rt, 0.0, jitters[-1])]
            <= v[("flood", rt, 0.0, jitters[0])]
        )
        for w in ("stencil", "hashtable"):
            claims[f"{w}/{rt}: more loss extends the run"] = (
                v[(w, rt, top, 0.0)] >= v[(w, rt, low, 0.0)]
            )
    return claims
