"""Benchmark the vectorized bulk-transfer engine (:mod:`repro.perf`).

Times the two hot-loop workloads scalar vs vectorized and writes
``benchmarks/output/BENCH_core.json``:

* **flood**: one 32768-msg/sync shmem flood round (the paper's deep
  msg/sync axis) — every message is a fused ``put_signal_nbi`` on the
  same route;
* **hashtable epoch**: a 1e6-op remote CAS stream (the sender's-control
  insert pattern of the paper's hashtable and Fig. 4 CAS flood), the
  ISSUE's headline point — the vectorized engine must be **>= 5x**
  faster than the scalar event chain;
* **two-sided rendezvous flood**: one 8192-msg/sync ``Isend``/``Irecv``
  round at 1 MiB (RTS/CTS/data per message) — the roofline's two-sided
  leg.  Its timed scalar and vectorized results must be equal.
* **hashtable workload**: fig09's perlmutter-cpu one-sided case, 128
  ranks inserting 8000 keys — the dynamic insert epoch of CAS / FAA /
  swap / publish chains that :mod:`repro.perf.atomic_epoch` replays.
  Its timed scalar and vectorized results must be equal.

The scalar hashtable leg runs ``SCALAR_OPS`` ops and is extrapolated
linearly to 1e6 (the scalar path is O(events) = O(ops); per-op cost is
flat), keeping the bench under ~15 s; ``--full`` runs the scalar leg at
the full 1e6 ops instead.  Phase wall-clock is recorded through the
:mod:`repro.obs` span hooks and embedded in the JSON under ``"spans"``.

Both workloads are also checked for result parity (vectorized output ==
scalar output) at a reduced size, so the speedup numbers can never come
from computing something cheaper.

Run standalone (``python benchmarks/bench_core.py``) or via the
benchmark suite (``pytest benchmarks/bench_core.py``).  CI compares the
committed JSON against a fresh run and fails on a >20% vectorized
hashtable throughput regression (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro import perf
from repro.machines import get_machine
from repro.obs import SpanTracker
from repro.workloads.flood import run_cas_flood, run_flood
from repro.workloads.hashtable import HashTableConfig, run_hashtable

OUTPUT = pathlib.Path(__file__).parent / "output" / "BENCH_core.json"

FLOOD = {"machine": "perlmutter-gpu", "runtime": "shmem", "nbytes": 64,
         "msgs_per_sync": 32768, "iters": 1}
EPOCH_OPS = 1_000_000  # the 1e6-message hashtable epoch
SCALAR_OPS = 100_000  # scalar leg sample size (extrapolated to EPOCH_OPS)
CAS = {"machine": "perlmutter-cpu", "runtime": "one_sided"}
RENDEZVOUS = {"machine": "perlmutter-cpu", "runtime": "two_sided",
              "nbytes": 1 << 20, "msgs_per_sync": 8192, "iters": 1}
HASHTABLE = {"machine": "perlmutter-cpu", "runtime": "one_sided",
             "nranks": 128, "total_inserts": 8000, "seed": 5}


def _flood(vectorized: bool, shape: dict = FLOOD):
    with perf.vectorized(vectorized):
        t0 = time.perf_counter()
        r = run_flood(get_machine(shape["machine"]), shape["runtime"],
                      shape["nbytes"], shape["msgs_per_sync"],
                      iters=shape["iters"])
        return time.perf_counter() - t0, r


def _epoch(vectorized: bool, n_ops: int):
    with perf.vectorized(vectorized):
        t0 = time.perf_counter()
        r = run_cas_flood(get_machine(CAS["machine"]), CAS["runtime"],
                          n_ops=n_ops)
        return time.perf_counter() - t0, r


def _hashtable(vectorized: bool):
    cfg = HashTableConfig(total_inserts=HASHTABLE["total_inserts"],
                          seed=HASHTABLE["seed"])
    with perf.vectorized(vectorized):
        t0 = time.perf_counter()
        r = run_hashtable(get_machine(HASHTABLE["machine"]),
                          HASHTABLE["runtime"], cfg, HASHTABLE["nranks"])
        return time.perf_counter() - t0, r


def _same_table(a, b) -> bool:
    """Equal times, counters and stored table contents."""
    return (
        a.time == b.time
        and a.per_rank == b.per_rank
        and a.extras["values"] == b.extras["values"]
        and a.extras["collisions"] == b.extras["collisions"]
        and all(
            x.tolist() == y.tolist()
            for space in ("chains", "heaps")
            for x, y in zip(a.extras[space], b.extras[space])
        )
    )


def _parity() -> bool:
    """Vectorized results must equal scalar results (reduced sizes)."""
    with perf.vectorized(False):
        fs = run_flood(get_machine(FLOOD["machine"]), FLOOD["runtime"], 64, 256)
        cs = run_cas_flood(get_machine(CAS["machine"]), CAS["runtime"], n_ops=256)
    with perf.vectorized(True):
        fv = run_flood(get_machine(FLOOD["machine"]), FLOOD["runtime"], 64, 256)
        cv = run_cas_flood(get_machine(CAS["machine"]), CAS["runtime"], n_ops=256)
    return fs == fv and cs == cv


def run_bench(full: bool = False) -> dict:
    spans = SpanTracker()
    scalar_ops = EPOCH_OPS if full else SCALAR_OPS

    with spans.span("parity"):
        parity_ok = _parity()
    with spans.span("flood_scalar"):
        flood_scalar_s, _ = _flood(False)
    with spans.span("flood_vectorized"):
        flood_vec_s, _ = _flood(True)
    with spans.span("hashtable_scalar"):
        epoch_scalar_sample_s, _ = _epoch(False, scalar_ops)
    with spans.span("hashtable_vectorized"):
        epoch_vec_s, _ = _epoch(True, EPOCH_OPS)
    with spans.span("rendezvous_scalar"):
        rdv_scalar_s, rdv_scalar = _flood(False, RENDEZVOUS)
    with spans.span("rendezvous_vectorized"):
        rdv_vec_s, rdv_vec = _flood(True, RENDEZVOUS)
    with spans.span("hashtable_workload_scalar"):
        ht_scalar_s, ht_scalar = _hashtable(False)
    with spans.span("hashtable_workload_vectorized"):
        ht_vec_s, ht_vec = _hashtable(True)

    epoch_scalar_s = epoch_scalar_sample_s * (EPOCH_OPS / scalar_ops)
    flood_speedup = flood_scalar_s / flood_vec_s
    epoch_speedup = epoch_scalar_s / epoch_vec_s

    result = {
        "bench": "core",
        "flood": {
            **FLOOD,
            "scalar_seconds": round(flood_scalar_s, 4),
            "vectorized_seconds": round(flood_vec_s, 4),
            "speedup": round(flood_speedup, 2),
        },
        "hashtable_epoch": {
            **CAS,
            "ops": EPOCH_OPS,
            "scalar_sample_ops": scalar_ops,
            "scalar_seconds_extrapolated": round(epoch_scalar_s, 4),
            "vectorized_seconds": round(epoch_vec_s, 4),
            "vectorized_ops_per_sec": round(EPOCH_OPS / epoch_vec_s, 1),
            "speedup": round(epoch_speedup, 2),
        },
        "two_sided_rendezvous_flood": {
            **RENDEZVOUS,
            "scalar_seconds": round(rdv_scalar_s, 4),
            "vectorized_seconds": round(rdv_vec_s, 4),
            "speedup": round(rdv_scalar_s / rdv_vec_s, 2),
        },
        "hashtable_workload": {
            **HASHTABLE,
            "scalar_seconds": round(ht_scalar_s, 4),
            "vectorized_seconds": round(ht_vec_s, 4),
            "speedup": round(ht_scalar_s / ht_vec_s, 2),
        },
        "spans": {k: round(v, 4) for k, v in spans.totals().items()},
        "checks": {
            "vectorized_matches_scalar": parity_ok,
            "flood_vectorized_at_least_2x": flood_speedup >= 2.0,
            "hashtable_epoch_at_least_5x": epoch_speedup >= 5.0,
            "two_sided_rendezvous_matches_scalar": rdv_vec == rdv_scalar,
            "hashtable_workload_matches_scalar": _same_table(ht_scalar, ht_vec),
        },
    }
    OUTPUT.parent.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_core_bench():
    result = run_bench()
    failed = [k for k, ok in result["checks"].items() if not ok]
    assert not failed, f"core bench checks failed: {failed} in {result}"


def main() -> int:
    result = run_bench(full="--full" in sys.argv[1:])
    print(json.dumps(result, indent=2))
    print(f"wrote {OUTPUT}")
    return 0 if all(result["checks"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
