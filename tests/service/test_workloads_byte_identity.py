"""Acceptance sweep: cold-run vs cache-hit byte identity for every
shipped workload factory, at two observability tiers.

This is the service's reason to exist stated as one parametrized
test: for each entry of :data:`repro.workloads.RUN_FACTORIES` and each
tier, the payload served by a cache hit is byte-identical
to the cold run's — and to a plain, service-free execution of the same
spec.  Parameters are scaled down so the whole matrix stays in the
fast tier.
"""

import asyncio

import pytest

from repro.runner import RunSpec, _execute_spec
from repro.service import ResultStore, SweepService
from repro.service.store import payload_result, result_payload
from repro.workloads import RUN_FACTORIES

# small-but-real parameters per shipped workload
SMALL_KWARGS = {
    "quickstart": {"payload_len": 512},
    "conformance": {"payload_len": 384},
    "decode": {"width": 32, "height": 32, "frames": 2, "gop_n": 2, "gop_m": 1},
    "solved": {"workload": "conformance-pipeline", "sram_size": 4096},
    # lossy-ingest workloads: the loss spec/seed are ordinary kwargs,
    # so they are part of the content-addressed cache key like any other
    "conferencing": {"frames": 2, "gop_n": 2, "gop_m": 1, "audio_blocks": 2,
                     "loss_spec": "moderate", "loss_seed": 3},
    "timeshift-loss": {"frames": 2, "gop_n": 2, "gop_m": 2, "audio_blocks": 2,
                       "loss_spec": "mild", "loss_seed": 1},
    "multistream": {"frames": 2, "gop_n": 2, "gop_m": 2, "audio_blocks": 2},
}


def _all_workloads_covered():
    assert set(SMALL_KWARGS) == set(RUN_FACTORIES), (
        "a new shipped workload must join this byte-identity matrix"
    )


_all_workloads_covered()

#: extra kwargs per tier: ``reference`` serves the spec as given (the
#: ``full`` default, byte histories in the payload); ``fast`` serves it
#: at ``off``, the tier the sweep benchmark requests
TIERS = {"reference": {}, "fast": {"obs_level": "off"}}

# ``solved`` takes its system parameters from the solve model and has
# no ``obs_level``, so it is served at its default tier only
CASES = [
    (workload, tier)
    for workload in sorted(RUN_FACTORIES)
    for tier in TIERS
    if (workload, tier) != ("solved", "fast")
]


@pytest.mark.parametrize("workload,tier", CASES)
def test_hit_serves_cold_run_bytes(tmp_path, workload, tier):
    spec = RunSpec(
        factory=f"repro.workloads:{RUN_FACTORIES[workload].__name__}",
        kwargs={**SMALL_KWARGS[workload], **TIERS[tier]},
        label=workload,
    )
    oracle = result_payload(_execute_spec(0, spec))  # service-free

    async def main():
        store = ResultStore(str(tmp_path / "store"))
        async with SweepService(store, jobs=1, use_process_pool=False) as svc:
            cold = await svc.submit(spec)
            hit = await svc.submit(spec)
            return cold, hit

    cold, hit = asyncio.run(main())
    assert (cold.cache, hit.cache) == ("miss", "hit")
    assert cold.ok and hit.ok
    assert cold.payload == oracle
    assert hit.payload == oracle
    assert payload_result(hit.payload).obs_level == TIERS[tier].get("obs_level", "full")
