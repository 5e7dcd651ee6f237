#!/usr/bin/env python
"""CI smoke test for the energy attribution ledger + explain document.

Usage::

    python scripts/explain_smoke.py [--preset synth-200] [--steps 50]
                                    [--seed 7]

Runs the same seeded simulation with the energy ledger attached on the
engine and on the per-object reference oracle (``tests/object_oracle.py``)
and checks the ledger's headline contracts: every step conserves
(conserved components sum to wall power within the 1e-9 W budget per
router per step), engine and oracle attribute the same joules to the
same components, and the assembled ``repro.explain/v1`` document is
byte-identical across repeated builds.  Exit code 0 on success, 1 with
a diagnosis on stderr otherwise.  Designed to finish well under a
minute on a CI runner: the oracle dominates at ~30 ms/step for 50 steps
on the 200-router preset.
"""

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

import numpy as np  # noqa: E402

from repro.network import (  # noqa: E402
    FleetTrafficModel,
    generate_synth_network,
    synth_config,
)
from repro.network.attribution import (  # noqa: E402
    EXPLAIN_SCHEMA,
    build_explain_document,
    explain_to_json,
)
from repro.obs.ledger import RESIDUAL_TOLERANCE_W  # noqa: E402
from tests.object_oracle import SIMULATIONS  # noqa: E402

STEP_S = 300.0

#: Relative tolerance for oracle-vs-engine ledger energy agreement
#: (matches their total-power equivalence contract).
AGREEMENT_RTOL = 1e-9


def _build(preset: str, seed: int, engine: str = "vector"):
    network = generate_synth_network(
        synth_config(preset), rng=np.random.default_rng(seed))
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(seed + 1))
    sim = SIMULATIONS[engine](
        network, traffic, rng=np.random.default_rng(seed + 2))
    return network, sim


def main(argv: "list[str] | None" = None) -> int:
    """Run the smoke checks; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="synth-200")
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    duration_s = args.steps * STEP_S

    results = {}
    networks = {}
    for engine in ("object", "vector"):
        network, sim = _build(args.preset, args.seed, engine)
        t1 = time.perf_counter()
        results[engine] = sim.run(duration_s=duration_s, step_s=STEP_S,
                                  attribution=True)
        networks[engine] = network
        ledger = results[engine].ledger
        print(f"{engine}: {args.steps} steps in "
              f"{time.perf_counter() - t1:.1f}s, max residual "
              f"{ledger.max_residual_w:.2e} W")
        if not ledger.conserved():
            print(f"FAIL: {engine} ledger violates conservation "
                  f"(max residual {ledger.max_residual_w:.2e} W > "
                  f"{RESIDUAL_TOLERANCE_W:.0e} W)", file=sys.stderr)
            return 1

    obj, vec = results["object"].ledger, results["vector"].ledger
    diff = float(np.max(np.abs(obj.energy_j - vec.energy_j)))
    scale = float(np.max(np.abs(obj.energy_j)))
    if diff > AGREEMENT_RTOL * max(scale, 1.0):
        print(f"FAIL: engine and oracle attribute different energy "
              f"(max abs diff {diff:.2e} J on scale {scale:.2e} J)",
              file=sys.stderr)
        return 1
    print(f"engine and oracle ledgers agree (max abs diff {diff:.2e} J)")

    scenario = {"preset": args.preset, "seed": args.seed,
                "steps": args.steps, "step_s": STEP_S}
    doc1 = explain_to_json(build_explain_document(
        vec, networks["vector"], engine="vector", scenario=scenario))
    doc2 = explain_to_json(build_explain_document(
        vec, networks["vector"], engine="vector", scenario=scenario))
    if doc1 != doc2:
        print("FAIL: explain document is not deterministic",
              file=sys.stderr)
        return 1
    if f'"{EXPLAIN_SCHEMA}"' not in doc1:
        print(f"FAIL: explain document missing schema stamp "
              f"{EXPLAIN_SCHEMA}", file=sys.stderr)
        return 1
    print(f"explain document deterministic ({len(doc1)} bytes, "
          f"schema {EXPLAIN_SCHEMA}); total "
          f"{time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
