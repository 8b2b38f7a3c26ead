"""Soundness of the content-addressed cache key (property-based).

A result cache is only safe if the key function is injective over
everything that can change the served bytes and stable across
processes.  These properties pin both directions:

* **injective** — perturbing any single simulation-relevant field
  (observability tier, sample interval, fault seed/plan,
  payload, shell/coprocessor parameters, graph, label) changes the key;
* **canonical** — kwarg dict ordering, omitted-vs-explicit default
  values, and function-object-vs-string factory references do *not*
  change the key;
* **stable** — the key is a pure content hash: no ``PYTHONHASHSEED``
  sensitivity, no process identity, pinned by a golden constant and a
  fresh-interpreter recomputation.
"""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import RunSpec
from repro.service import CacheKeyError, cache_key, canonical_request
from repro.workloads import conformance_run

FACTORY = "repro.workloads:conformance_run"

# one strategy per perturbable field: (current) -> different value
FIELD_STRATEGIES = {
    "graph": st.sampled_from(["pipeline", "diamond"]),
    "payload_len": st.integers(min_value=64, max_value=4096),
    "fault_spec": st.sampled_from(["chaos", "drop", "dup", "none"]),
    "fault_seed": st.integers(min_value=0, max_value=1_000),
    "watchdog_timeout": st.sampled_from([None, 1000, 2000, 5000]),
    "n_coprocs": st.integers(min_value=1, max_value=6),
    "chunk": st.sampled_from([8, 16, 32]),
    "obs_level": st.sampled_from(["off", "counters", "series", "full"]),
    "sample_interval": st.sampled_from([None, 100, 250, 1000]),
}

kwargs_strategy = st.fixed_dictionaries(FIELD_STRATEGIES)


def _key(kwargs, label="k", interval=None):
    return cache_key(RunSpec(factory=FACTORY, kwargs=kwargs, label=label),
                     interval)


# ---------------------------------------------------------------------------
# injectivity: any single-field change changes the key
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    kwargs=kwargs_strategy,
    field=st.sampled_from(sorted(FIELD_STRATEGIES)),
    data=st.data(),
)
def test_single_field_perturbation_changes_the_key(kwargs, field, data):
    new = data.draw(
        FIELD_STRATEGIES[field].filter(lambda v, cur=kwargs[field]: v != cur)
    )
    perturbed = {**kwargs, field: new}
    assert _key(kwargs) != _key(perturbed), (
        f"key collision on {field}: {kwargs[field]!r} vs {new!r}"
    )


@given(kwargs=kwargs_strategy)
@settings(max_examples=25, deadline=None)
def test_label_is_part_of_the_key(kwargs):
    """The label is part of the served bytes, so it must be part of
    the key — sharing a key across labels would serve wrong bytes."""
    assert _key(kwargs, label="a") != _key(kwargs, label="b")


@given(kwargs=kwargs_strategy)
@settings(max_examples=25, deadline=None)
def test_checkpoint_interval_is_part_of_the_key(kwargs):
    """Execution parameters key separately: a bug in the supervised
    path can then only ever cause a miss, never serve wrong bytes."""
    assert _key(kwargs, interval=None) != _key(kwargs, interval=512)
    assert _key(kwargs, interval=256) != _key(kwargs, interval=512)


# ---------------------------------------------------------------------------
# canonicalization: representation details do NOT change the key
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(kwargs=kwargs_strategy, seed=st.integers(min_value=0, max_value=2**32))
def test_kwarg_dict_ordering_is_canonicalized(kwargs, seed):
    items = list(kwargs.items())
    random.Random(seed).shuffle(items)
    assert _key(kwargs) == _key(dict(items))


def test_omitted_and_explicit_defaults_share_a_key():
    """``conformance_run()`` and ``conformance_run(<all defaults
    spelled out>)`` describe the same simulation, so (given the same
    label) they must be one cache entry."""
    import inspect

    defaults = {
        name: p.default
        for name, p in inspect.signature(conformance_run).parameters.items()
    }
    assert _key({}) == _key(defaults)
    # and partially spelled out, too
    assert _key({"payload_len": 2048}) == _key({})


def test_function_object_and_string_reference_share_a_key():
    by_ref = RunSpec(factory=FACTORY, kwargs={"payload_len": 128}, label="x")
    by_obj = RunSpec(factory=conformance_run, kwargs={"payload_len": 128},
                     label="x")
    assert cache_key(by_ref) == cache_key(by_obj)


def test_bytes_kwargs_key_on_content():
    a = RunSpec(factory=FACTORY, kwargs={"payload_len": 128}, label="x")
    # equal content -> equal key even through the wire codec round trip
    from repro.resilience.snapshot import decode_value, encode_value

    round_tripped = {
        k: decode_value(encode_value(v)) for k, v in a.kwargs.items()
    }
    assert cache_key(a) == cache_key(
        RunSpec(factory=FACTORY, kwargs=round_tripped, label="x")
    )


# ---------------------------------------------------------------------------
# stability: content hash, not process accident
# ---------------------------------------------------------------------------
GOLDEN_SPEC = dict(factory=FACTORY,
                   kwargs={"graph": "pipeline", "payload_len": 384,
                           "fault_seed": 3},
                   label="pinned")
GOLDEN_KEY = "a2a6ef432f448467dbacd86bf697a39c9c16323310e353650e253321299c6adb"
GOLDEN_KEY_CKPT = "f7d5923f0ec8723b9528d7df93e945a9c8eb24bfdd797624f433790885cf670f"


def test_golden_key_is_pinned():
    """Any change to the key material shows up here first — bump
    KEY_SCHEMA (and these constants) so old store entries miss instead
    of being misread."""
    assert cache_key(RunSpec(**GOLDEN_SPEC)) == GOLDEN_KEY
    assert cache_key(RunSpec(**GOLDEN_SPEC), 512) == GOLDEN_KEY_CKPT


@pytest.mark.parametrize("hashseed", ["0", "1", "424242"])
def test_key_survives_process_restart_and_hash_randomization(hashseed):
    """A fresh interpreter with a different PYTHONHASHSEED computes the
    same key: nothing in the digest depends on Python's randomized
    hashing or on process identity."""
    code = (
        "from repro.runner import RunSpec\n"
        "from repro.service import cache_key\n"
        f"spec = RunSpec(factory={FACTORY!r}, "
        "kwargs={'graph': 'pipeline', 'payload_len': 384, 'fault_seed': 3}, "
        "label='pinned')\n"
        "print(cache_key(spec))\n"
    )
    import os

    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                       "src"))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PYTHONHASHSEED": hashseed,
             "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
    )
    assert out.stdout.strip() == GOLDEN_KEY


# ---------------------------------------------------------------------------
# refusal: specs that cannot be keyed soundly
# ---------------------------------------------------------------------------
def test_lambda_factories_are_rejected():
    with pytest.raises(CacheKeyError, match="not cacheable"):
        cache_key(RunSpec(factory=lambda: None, kwargs={}))


def test_canonical_request_shape():
    req = canonical_request(RunSpec(**GOLDEN_SPEC), 512)
    assert req["schema"] == "repro.service.key/2"
    assert req["factory"] == FACTORY
    assert req["label"] == "pinned"
    assert req["exec"] == {"checkpoint_interval": 512}
    # normalized kwargs include the applied defaults
    assert req["kwargs"]["obs_level"] == "full"
    assert req["kwargs"]["fault_seed"] == 3
