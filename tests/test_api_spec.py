"""ExperimentSpec / SweepSpec: serialisation, validation, expansion."""

import dataclasses
import json

import pytest

from repro.api import ExperimentSpec, SweepSpec
from repro.errors import RegistryError, SpecError


def full_spec() -> ExperimentSpec:
    return ExperimentSpec(
        circuit="c1355_syn",
        key_length=16,
        scheme="dmux",
        scheme_params={"strategy": "two_key"},
        attack="muxlink",
        attack_params={"predictor": "mlp", "ensemble": 2},
        engine="ga",
        engine_params={"population_size": 6, "generations": 3},
        metrics=("overhead", "corruption"),
        metric_params={"corruption": {"n_wrong_keys": 4}},
        seed=11,
        attack_seed=7,
        workers=2,
        cache_path="/tmp/cache.json",
        tag="full",
    )


# ------------------------------------------------------- JSON round trip
def test_spec_json_roundtrip_lossless():
    spec = full_spec()
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert again.to_dict() == spec.to_dict()
    assert again.fingerprint() == spec.fingerprint()


def test_spec_roundtrip_normalises_collections():
    # Lists from JSON land as the same spec as tuples from Python.
    a = ExperimentSpec(circuit="c17", metrics=("overhead",))
    b = ExperimentSpec.from_dict({"circuit": "c17", "metrics": ["overhead"]})
    assert a == b and a.fingerprint() == b.fingerprint()


def test_sweep_json_roundtrip_lossless(tmp_path):
    sweep = SweepSpec(
        base=full_spec(),
        axes={"circuit": ["c17", "c432_syn"], "key_length": [4, 8]},
        name="grid",
        workers=3,
        cache_path=str(tmp_path / "c.json"),
    )
    again = SweepSpec.from_json(sweep.to_json())
    assert again == sweep
    assert [s.to_dict() for s in again.expand()] == [
        s.to_dict() for s in sweep.expand()
    ]


def test_spec_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(full_spec().to_json())
    assert ExperimentSpec.from_file(path) == full_spec()


# ----------------------------------------------------------- validation
def test_unknown_spec_field_rejected():
    with pytest.raises(SpecError, match="unknown ExperimentSpec fields.*budget"):
        ExperimentSpec.from_dict({"circuit": "c17", "budget": 5})


def test_missing_circuit_rejected():
    with pytest.raises(SpecError, match="circuit"):
        ExperimentSpec.from_dict({"key_length": 8})


def test_unknown_registry_names_rejected_with_listing():
    with pytest.raises(RegistryError, match="unknown attack 'laser'.*muxlink"):
        ExperimentSpec(circuit="c17", attack="laser").validate()
    with pytest.raises(RegistryError, match="unknown locking scheme"):
        ExperimentSpec(circuit="c17", scheme="quantum").validate()
    with pytest.raises(RegistryError, match="unknown search engine"):
        ExperimentSpec(circuit="c17", engine="gradient_descent").validate()
    with pytest.raises(RegistryError, match="unknown metric"):
        ExperimentSpec(circuit="c17", metrics=("beauty",)).validate()


def test_unknown_circuit_rejected():
    with pytest.raises(SpecError, match="unknown circuit 'c9000'"):
        ExperimentSpec(circuit="c9000").validate()


def test_invalid_values_rejected():
    with pytest.raises(SpecError, match="key_length"):
        ExperimentSpec(circuit="c17", key_length=0).validate()
    with pytest.raises(SpecError, match="workers"):
        ExperimentSpec(circuit="c17", workers=0).validate()
    with pytest.raises(SpecError, match="metric_params"):
        ExperimentSpec(
            circuit="c17", metric_params={"overhead": {}}
        ).validate()


@pytest.mark.parametrize("field,value", [
    ("key_length", "abc"),
    ("key_length", 4.0),
    ("key_length", True),
    ("seed", "1"),
    ("seed", None),
    ("seed", False),
    ("workers", 2.5),
    ("workers", True),
])
def test_non_integer_fields_rejected(field, value):
    spec = ExperimentSpec(circuit="c17", **{field: value})
    with pytest.raises(SpecError, match=f"{field} must be an integer") as info:
        spec.validate()
    assert "\n" not in str(info.value)


def test_with_updates_rejects_unknown_fields():
    spec = ExperimentSpec(circuit="c17")
    assert spec.with_updates(seed=9).seed == 9
    with pytest.raises(SpecError, match="unknown ExperimentSpec fields"):
        spec.with_updates(velocity=3)


# ----------------------------------------------------------- fingerprint
def test_fingerprint_ignores_execution_knobs():
    spec = ExperimentSpec(circuit="c17", seed=3)
    assert spec.fingerprint() == spec.with_updates(
        workers=8, cache_path="/tmp/x.json"
    ).fingerprint()
    # The tag is a label, not an input: relabelled reruns must share
    # cached experiment records.
    assert spec.fingerprint() == spec.with_updates(tag="relabelled").fingerprint()
    # Tracing is pure observation: a traced rerun must replay the
    # untraced run's cached record byte for byte.
    assert spec.fingerprint() == spec.with_updates(
        trace="spans.jsonl"
    ).fingerprint()
    assert "trace" not in spec.deterministic_dict()
    assert spec.with_updates(trace="spans.jsonl").to_dict()["trace"] == (
        "spans.jsonl"
    )  # round-trips through JSON even though fingerprints ignore it
    assert spec.fingerprint() != spec.with_updates(seed=4).fingerprint()
    assert spec.fingerprint() != spec.with_updates(
        attack_params={"predictor": "bayes"}
    ).fingerprint()


def test_async_mode_resolution_and_fingerprints():
    """The *resolved* loop mode feeds the fingerprint: it changes the
    search trajectory, but is identical at any worker count."""
    engine = ExperimentSpec(
        circuit="c17", key_length=2, engine="ga", seed=1,
    )
    # None resolves from workers — but only for engine specs.
    assert engine.resolved_async_mode() is False
    assert engine.with_updates(workers=4).resolved_async_mode() is True
    assert engine.with_updates(async_mode=False, workers=4).resolved_async_mode() is False
    static = ExperimentSpec(circuit="c17", key_length=2, seed=1)
    assert static.with_updates(workers=8).resolved_async_mode() is False
    # Static fingerprints stay worker-independent; engine fingerprints
    # track the resolved mode, whichever way it was reached.
    assert static.fingerprint() == static.with_updates(workers=8).fingerprint()
    assert engine.fingerprint() != engine.with_updates(workers=4).fingerprint()
    assert (
        engine.with_updates(workers=4).fingerprint()
        == engine.with_updates(async_mode=True).fingerprint()
    ), "explicit async and workers-derived async are the same experiment"
    assert (
        engine.with_updates(async_mode=False, workers=4).fingerprint()
        == engine.fingerprint()
    ), "pinned sync at any worker count is the serial experiment"
    with pytest.raises(SpecError, match="async_mode"):
        ExperimentSpec(circuit="c17", async_mode="yes").validate()


def test_sweep_fingerprint_tracks_resolved_point_modes():
    """Worker counts never shift a static sweep's id; for engine sweeps
    they only shift it when they flip the points' resolved loop mode
    (which changes the results). Same-mode worker counts share queues."""
    static = SweepSpec(
        base=ExperimentSpec(circuit="c17", key_length=2),
        axes={"seed": [0, 1]},
    )
    assert (
        static.fingerprint()
        == dataclasses.replace(static, workers=8).fingerprint()
    )
    engine = SweepSpec(
        base=ExperimentSpec(circuit="c17", key_length=2, engine="ga"),
        axes={"seed": [0, 1]},
    )
    serial_id = engine.fingerprint()
    four = dataclasses.replace(engine, workers=4).fingerprint()
    eight = dataclasses.replace(engine, workers=8).fingerprint()
    assert four == eight, "same resolved mode -> same queue rows"
    assert four != serial_id, "sync and steady-state are different sweeps"
    # Pinning the mode makes the id worker-count independent again.
    pinned = dataclasses.replace(engine, async_mode=True)
    assert (
        pinned.fingerprint()
        == dataclasses.replace(pinned, workers=4).fingerprint()
    )


def test_sweep_async_mode_applies_to_every_point_and_sweep_id():
    base = ExperimentSpec(circuit="c17", key_length=2, engine="ga")
    plain = SweepSpec(base=base, axes={"seed": [0, 1]})
    pinned = SweepSpec(base=base, axes={"seed": [0, 1]}, async_mode=True)
    assert all(s.async_mode is True for s in pinned.expand())
    assert all(s.resolved_async_mode() for s in pinned.expand())
    assert plain.fingerprint() != pinned.fingerprint()
    # Round-trips through JSON.
    again = SweepSpec.from_json(pinned.to_json())
    assert again.async_mode is True
    assert again.fingerprint() == pinned.fingerprint()


# -------------------------------------------------------------- sweeps
def test_sweep_expansion_grid_order_and_tags():
    sweep = SweepSpec(
        base=ExperimentSpec(circuit="c17", key_length=2),
        axes={"circuit": ["c17", "c432_syn"], "seed": [0, 1]},
    )
    specs = sweep.expand()
    assert [(s.circuit, s.seed) for s in specs] == [
        ("c17", 0), ("c17", 1), ("c432_syn", 0), ("c432_syn", 1),
    ]
    assert specs[0].tag == "circuit=c17,seed=0"


def test_sweep_plain_axis_resets_params_only_when_component_changes():
    sweep = SweepSpec(
        base=ExperimentSpec(
            circuit="rand_80_3", scheme="dmux",
            scheme_params={"strategy": "two_key"}, attack=None,
        ),
        axes={"scheme": ["rll", "dmux"]},
    )
    rll_spec, dmux_spec = sweep.expand()
    # The base's dmux-only strategy must not leak into the rll point...
    assert rll_spec.scheme_params == {}
    # ...but the point keeping the base's scheme keeps its parameters.
    assert dmux_spec.scheme_params == {"strategy": "two_key"}
    # Both points construct cleanly.
    sweep.validate()


def test_sweep_merge_axis_resets_component_params():
    sweep = SweepSpec(
        base=ExperimentSpec(
            circuit="c17", attack="muxlink",
            attack_params={"predictor": "bayes"},
        ),
        axes={"*attack": [
            {"attack": "random"},
            {"attack": "muxlink", "attack_params": {"predictor": "mlp"}},
        ]},
    )
    random_spec, mlp_spec = sweep.expand()
    assert random_spec.attack == "random"
    assert random_spec.attack_params == {}  # bayes must not leak through
    assert mlp_spec.attack_params == {"predictor": "mlp"}


def test_sweep_shared_workers_and_cache_apply_to_points(tmp_path):
    cache = str(tmp_path / "c.json")
    sweep = SweepSpec(
        base=ExperimentSpec(circuit="c17"),
        axes={"seed": [0, 1]},
        workers=4,
        cache_path=cache,
    )
    for spec in sweep.expand():
        assert spec.workers == 4
        assert spec.cache_path == cache


def test_sweep_rejects_bad_axes():
    base = ExperimentSpec(circuit="c17")
    with pytest.raises(SpecError, match="not an ExperimentSpec field"):
        SweepSpec(base=base, axes={"velocity": [1, 2]}).expand()
    with pytest.raises(SpecError, match="must map to a list"):
        SweepSpec(base=base, axes={"seed": 3})
    with pytest.raises(SpecError, match="is empty"):
        SweepSpec(base=base, axes={"seed": []})
    with pytest.raises(SpecError, match="partial-spec dicts"):
        SweepSpec(base=base, axes={"*x": [3]}).expand()
    with pytest.raises(SpecError, match="unknown fields"):
        SweepSpec(base=base, axes={"*x": [{"velocity": 1}]}).expand()


def test_sweep_validate_catches_bad_points():
    sweep = SweepSpec(
        base=ExperimentSpec(circuit="c17"),
        axes={"*a": [{"attack": "muxlink"}, {"attack": "laser"}]},
    )
    with pytest.raises(RegistryError, match="unknown attack 'laser'"):
        sweep.validate()


def test_spec_json_is_plain_data():
    payload = json.loads(full_spec().to_json())
    assert isinstance(payload, dict)
    assert payload["metrics"] == ["overhead", "corruption"]
    assert payload["scheme_params"] == {"strategy": "two_key"}
