"""End-to-end attack behaviour: MuxLink, SCOPE, SAT, random baseline."""

import json

import numpy as np
import pytest

from repro.attacks import (
    MuxLinkAttack,
    RandomGuessAttack,
    SatAttack,
    ScopeAttack,
)
from repro.attacks.scope import propagate_constant
from repro.circuits import load_circuit
from repro.cli import main
from repro.errors import AttackError
from repro.locking import DMuxLocking, RandomLogicLocking
from repro.netlist import GateType, Netlist
from repro.registry import PREDICTORS
from repro.sim import check_equivalence


# ----------------------------------------------------------------- random
def test_random_guess_reports_all_bits(dmux_locked):
    report = RandomGuessAttack().run(dmux_locked, seed_or_rng=1)
    assert set(report.guesses) == set(dmux_locked.netlist.key_inputs)
    assert report.score.coverage == 1.0
    assert 0.0 <= report.accuracy <= 1.0


# ------------------------------------------------------------------ scope
def test_scope_cracks_rll(rll_locked):
    report = ScopeAttack().run(rll_locked, seed_or_rng=0)
    assert report.accuracy == 1.0, "constant propagation must crack XOR RLL"
    assert report.precision == 1.0


def test_scope_blind_on_dmux(dmux_locked):
    report = ScopeAttack().run(dmux_locked, seed_or_rng=0)
    assert report.score.coverage == 0.0, "symmetric MUX pairs give SCOPE nothing"
    assert report.accuracy == 0.5


def test_propagate_constant_counts():
    n = Netlist("p")
    n.add_input("a")
    n.add_input("k")
    n.add_gate("x", GateType.XOR, ["a", "k"])
    n.add_gate("z", GateType.AND, ["x", "a"])
    n.add_output("z")
    # k=0: XOR collapses to a wire.
    s0 = propagate_constant(n, {"k": 0})
    assert s0.n_wire == 1 and s0.n_constant == 0
    # k=1: XOR reduces to an inverter.
    s1 = propagate_constant(n, {"k": 1})
    assert s1.n_reduced == 1 and s1.n_wire == 0
    assert s0.total > s1.total


def test_propagate_constant_dominance():
    n = Netlist("d")
    n.add_input("a")
    n.add_input("k")
    n.add_gate("x", GateType.AND, ["a", "k"])
    n.add_gate("y", GateType.OR, ["x", "k"])
    n.add_output("y")
    # k=0 -> x=0 (const), y collapses to wire of x? y = OR(0, 0)=0 const.
    s = propagate_constant(n, {"k": 0})
    assert s.n_constant == 2


# -------------------------------------------------------------------- sat
@pytest.mark.parametrize("scheme_factory", [
    lambda: RandomLogicLocking(),
    lambda: DMuxLocking("shared"),
], ids=["rll", "dmux"])
def test_sat_attack_recovers_functional_key(scheme_factory):
    circuit = load_circuit("rand_60_4")
    locked = scheme_factory().lock(circuit, 8, seed_or_rng=2)
    report = SatAttack(max_iterations=128).run(locked, seed_or_rng=1)
    assert report.extra["status"] == "completed"
    assert report.extra["functional_equivalent"], "SAT attack must break both schemes"
    # Verify independently: recovered key restores the original function.
    key = {k: v for k, v in report.guesses.items()}
    res = check_equivalence(circuit, locked.netlist, key_right=key, seed_or_rng=3)
    assert res.equal


def test_sat_attack_dip_count_reported(dmux_locked):
    report = SatAttack().run(dmux_locked, seed_or_rng=0)
    assert report.extra["n_dips"] >= 1
    assert report.extra["conflicts"] >= 0
    assert report.runtime_s > 0


def test_sat_attack_budget_exhaustion(dmux_locked):
    report = SatAttack(max_iterations=1).run(dmux_locked, seed_or_rng=0)
    if report.extra["status"] != "completed":
        assert report.extra["status"] == "iteration_budget_exhausted"
        assert all(g is None for g in report.guesses.values())


def test_sat_attack_requires_keys(c17, rll_locked):
    unlocked = rll_locked
    bad = unlocked.__class__(
        netlist=c17, key=unlocked.key, scheme="x", original=c17, insertions=[]
    )
    with pytest.raises(AttackError):
        SatAttack().run(bad)


# ---------------------------------------------------------------- muxlink
def test_muxlink_validates_predictor():
    with pytest.raises(AttackError):
        MuxLinkAttack(predictor="nonsense")
    with pytest.raises(AttackError):
        MuxLinkAttack(ensemble=0)


@pytest.mark.parametrize(
    "predictor, field, value",
    [
        ("gnn", "n_train", 1),
        ("gnn", "epochs", 0),
        ("mlp", "n_train", 0),
        ("mlp", "epochs", 0),
    ],
)
def test_predictors_reject_untrainable_budgets(predictor, field, value):
    with pytest.raises(AttackError, match=f"^{field} must be"):
        PREDICTORS.create(predictor, **{field: value})


def test_cli_rejects_negative_n_train_without_traceback(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "circuit": "c17", "key_length": 2, "attack": "muxlink",
        "attack_params": {"predictor": "mlp", "n_train": -4}, "seed": 1,
    }))
    assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [
        "error: n_train must be >= 2 (one wire sample per label), got -4"
    ]


@pytest.mark.parametrize(
    "predictor, field, value, message",
    [
        ("mlp", "batch_size", 0, "batch_size must be >= 1, got 0"),
        ("mlp", "batch_size", -3, "batch_size must be >= 1, got -3"),
        ("mlp", "batch_size", 16.0, "batch_size must be an integer, got 16.0"),
        ("mlp", "batch_size", True, "batch_size must be an integer, got True"),
        ("mlp", "lr", 0, "lr must be a finite number > 0, got 0"),
        ("mlp", "lr", -1, "lr must be a finite number > 0, got -1"),
        ("gnn", "lr", 0, "lr must be a finite number > 0, got 0"),
        ("gnn", "lr", -1, "lr must be a finite number > 0, got -1"),
        ("gnn", "lr", "fast", "lr must be a finite number > 0, got 'fast'"),
        ("mlp", "epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("gnn", "epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("gnn", "epochs", False, "epochs must be an integer, got False"),
        ("mlp", "n_train", 100.0, "n_train must be an integer, got 100.0"),
    ],
)
def test_cli_rejects_bad_predictor_params_without_traceback(
    tmp_path, capsys, predictor, field, value, message
):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "circuit": "c17", "key_length": 2, "attack": "muxlink",
        "attack_params": {"predictor": predictor, field: value}, "seed": 1,
    }))
    assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [f"error: {message}"]


def test_muxlink_no_sites_on_rll(rll_locked):
    report = MuxLinkAttack(predictor="bayes").run(rll_locked, seed_or_rng=0)
    assert report.extra["n_sites"] == 0
    assert report.accuracy == 0.5
    assert report.score.coverage == 0.0


@pytest.mark.parametrize("predictor,kwargs", [
    ("bayes", {}),
    ("mlp", {"epochs": 15, "n_train": 200}),
    ("gnn", {"epochs": 3, "n_train": 60}),
], ids=["bayes", "mlp", "gnn"])
def test_muxlink_runs_and_reports(predictor, kwargs, dmux_locked):
    report = MuxLinkAttack(predictor=predictor, **kwargs).run(
        dmux_locked, seed_or_rng=5
    )
    assert report.extra["n_sites"] == 16
    assert set(report.guesses) == set(dmux_locked.netlist.key_inputs)
    assert 0.0 <= report.accuracy <= 1.0
    assert report.attack == f"muxlink-{predictor}"


def test_muxlink_beats_random_on_average():
    """Averaged over circuits/seeds, MuxLink must clearly beat 50 %."""
    accs = []
    for cname in ["c1355_syn", "c1908_syn"]:
        circuit = load_circuit(cname)
        locked = DMuxLocking("shared").lock(circuit, 24, seed_or_rng=3)
        report = MuxLinkAttack(predictor="mlp", ensemble=2).run(locked, seed_or_rng=7)
        accs.append(report.accuracy)
    assert np.mean(accs) > 0.62, f"MuxLink too weak: {accs}"


def test_muxlink_threshold_creates_undecided(dmux_locked):
    report = MuxLinkAttack(predictor="bayes", threshold=1e9).run(
        dmux_locked, seed_or_rng=0
    )
    assert report.score.coverage == 0.0
    assert report.accuracy == 0.5


def test_muxlink_deterministic_given_seed(dmux_locked):
    a = MuxLinkAttack(predictor="mlp", epochs=10).run(dmux_locked, seed_or_rng=11)
    b = MuxLinkAttack(predictor="mlp", epochs=10).run(dmux_locked, seed_or_rng=11)
    assert a.guesses == b.guesses
