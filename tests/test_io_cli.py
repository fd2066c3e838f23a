"""Design serialisation and the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import LockingError
from repro.io import load_locked_design, save_locked_design
from repro.locking import DMuxLocking, RandomLogicLocking
from repro.sim import check_equivalence


# --------------------------------------------------------------------- io
@pytest.mark.parametrize("scheme_factory", [
    lambda: RandomLogicLocking(),
    lambda: DMuxLocking("shared"),
    lambda: DMuxLocking("two_key"),
], ids=["rll", "dmux-shared", "dmux-two_key"])
def test_save_load_roundtrip(tmp_path, rand100, scheme_factory):
    locked = scheme_factory().lock(rand100, 8, seed_or_rng=3)
    sidecar = save_locked_design(locked, tmp_path)
    assert sidecar.exists()
    again = load_locked_design(sidecar)
    assert again.netlist.structurally_equal(locked.netlist)
    assert again.original.structurally_equal(locked.original)
    assert again.key == locked.key
    assert again.scheme == locked.scheme
    assert len(again.insertions) == len(locked.insertions)
    assert again.insertions == locked.insertions
    res = check_equivalence(
        again.original, again.netlist, key_right=dict(again.key), seed_or_rng=0
    )
    assert res.equal


def test_sidecar_is_readable_json(tmp_path, dmux_locked):
    sidecar = save_locked_design(dmux_locked, tmp_path)
    data = json.loads(sidecar.read_text())
    assert data["scheme"] == "dmux-shared"
    assert len(data["key_bits"]) == 8
    assert all(rec["type"] == "mux_pair" for rec in data["insertions"])


def test_load_rejects_unknown_insertion(tmp_path, dmux_locked):
    sidecar = save_locked_design(dmux_locked, tmp_path)
    data = json.loads(sidecar.read_text())
    data["insertions"][0]["type"] = "alien"
    sidecar.write_text(json.dumps(data))
    with pytest.raises(LockingError, match="unknown insertion"):
        load_locked_design(sidecar)


# -------------------------------------------------------------------- cli
def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_cli_info(capsys):
    assert main(["info", "c17"]) == 0
    out = capsys.readouterr().out
    assert "c17" in out and "gates=6" in out


def test_cli_info_all(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "c432_syn" in out and "c7552_syn" in out


def test_cli_lock_and_attack(tmp_path, capsys):
    assert main([
        "lock", "rand_80_3", "--scheme", "dmux", "--key-length", "6",
        "--seed", "5", "--output", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "saved:" in out
    sidecar = next(tmp_path.glob("*.lock.json"))

    assert main([
        "attack", str(sidecar), "--attack", "muxlink",
        "--predictor", "bayes", "--seed", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "muxlink-bayes" in out

    assert main(["attack", str(sidecar), "--attack", "scope"]) == 0
    assert main(["attack", str(sidecar), "--attack", "random"]) == 0
    assert main(["attack", str(sidecar), "--attack", "sat"]) == 0
    out = capsys.readouterr().out
    assert "n_dips" in out


def test_cli_attack_unknown_name_exits_nonzero(tmp_path, capsys):
    """No silent RandomGuess fallback: unknown attacks fail loudly."""
    assert main([
        "lock", "rand_80_3", "--scheme", "dmux", "--key-length", "6",
        "--seed", "5", "--output", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    sidecar = next(tmp_path.glob("*.lock.json"))

    assert main(["attack", str(sidecar), "--attack", "mystery"]) == 2
    err = capsys.readouterr().err
    assert "unknown attack 'mystery'" in err
    assert "muxlink" in err and "random" in err and "sat" in err


@pytest.mark.parametrize("argv,message", [
    (["info", "nosuch"], "unknown circuit 'nosuch'"),
    (["lock", "nosuch"], "unknown circuit 'nosuch'"),
    (["attack", "{tmp}/missing.json"], "cannot read locked design"),
    (["attack", "{tmp}/nodesign.lock.json"], "missing field 'design'"),
    (["attack", "{tmp}/garbage.lock.json"], "is not JSON"),
    (["evolve", "c17", "--key-length", "0"], "key_length must be >= 1"),
    (["evolve", "c17", "--population", "0", "--predictor", "bayes"],
     "population_size must be >= 2"),
    (["evolve", "c17", "--key-length", "40", "--predictor", "bayes"],
     "key too long"),
    (["run", "{tmp}/typo_spec.json"], "key_length must be an integer"),
], ids=[
    "info-unknown-circuit", "lock-unknown-circuit", "attack-missing-file",
    "attack-incomplete-sidecar", "attack-non-json-sidecar",
    "evolve-zero-key", "evolve-zero-population", "evolve-key-too-long",
    "run-non-integer-key",
])
def test_cli_library_errors_exit_two_without_traceback(
    tmp_path, capsys, argv, message
):
    (tmp_path / "nodesign.lock.json").write_text('{"scheme": "dmux"}')
    (tmp_path / "garbage.lock.json").write_text("not json")
    (tmp_path / "typo_spec.json").write_text(
        '{"circuit": "c17", "key_length": "abc"}'
    )
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    if argv[0] == "attack":
        assert str(tmp_path) in err  # the sidecar is named


def test_cli_evolve_workers_zero_means_serial(capsys):
    """Historical contract: --workers < 2 (incl. 0) runs serially."""
    assert main([
        "evolve", "rand_100_9", "--key-length", "4", "--population", "4",
        "--generations", "2", "--predictor", "bayes", "--seed", "2",
        "--workers", "0",
    ]) == 0
    assert "AutoLock on rand_100_9" in capsys.readouterr().out


def test_cli_lock_unknown_scheme_exits_nonzero(capsys):
    assert main(["lock", "rand_80_3", "--scheme", "alien"]) == 2
    err = capsys.readouterr().err
    assert "unknown locking scheme 'alien'" in err
    assert "dmux" in err and "rll" in err


def test_cli_evolve(tmp_path, capsys):
    assert main([
        "evolve", "rand_100_9", "--key-length", "4", "--population", "4",
        "--generations", "2", "--predictor", "bayes", "--seed", "2",
        "--output", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "AutoLock on rand_100_9" in out
    assert "gen   0" in out or "gen 0" in out.replace("  ", " ")
    assert list(tmp_path.glob("*.lock.json"))


def test_cli_alphabet_unknown_primitive_exits_two(capsys):
    """Unknown --alphabet names fail loudly, listing the registry —
    the same contract as unknown --attack / --scheme."""
    assert main([
        "evolve", "rand_100_9", "--key-length", "4", "--population", "4",
        "--generations", "1", "--predictor", "bayes",
        "--alphabet", "mux,mystery",
    ]) == 2
    err = capsys.readouterr().err
    assert "unknown locking primitive 'mystery'" in err
    assert "mux" in err and "xor" in err and "and_or" in err


def test_cli_alphabet_empty_exits_two(capsys):
    assert main([
        "evolve", "rand_100_9", "--key-length", "4", "--population", "4",
        "--generations", "1", "--predictor", "bayes", "--alphabet", ",",
    ]) == 2
    assert "at least one primitive" in capsys.readouterr().err


def test_cli_run_alphabet_override(tmp_path, capsys):
    """--alphabet on `autolock run` overrides the spec and the record
    names per-gene primitive kinds."""
    import json

    spec = {
        "circuit": "rand_100_9",
        "key_length": 6,
        "engine": "ga",
        "engine_params": {"population_size": 4, "generations": 2},
        "attack": "muxlink",
        "attack_params": {"predictor": "bayes"},
        "seed": 5,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([
        "run", str(path), "--alphabet", "mux,xor",
        "--out", str(tmp_path / "artifacts"),
    ]) == 0
    out = capsys.readouterr().out
    assert "alphabet=mux,xor" in out
    record = json.loads(
        (tmp_path / "artifacts" / "results.jsonl").read_text().splitlines()[0]
    )
    assert record["spec"]["alphabet"] == ["mux", "xor"]
    kinds = {g["kind"] for g in record["engine"]["best_genotype"]}
    assert kinds <= {"mux", "xor"} and kinds

    assert main(["run", str(path), "--alphabet", "nope"]) == 2
    assert "unknown locking primitive 'nope'" in capsys.readouterr().err


def test_cli_sweep_alphabet_flag_conflicts_with_axis(tmp_path, capsys):
    """--alphabet on a sweep that already sweeps an alphabet axis is
    refused: the axis would silently override the flag."""
    import json

    sweep = {
        "name": "clash",
        "base": {
            "circuit": "rand_100_9", "key_length": 4, "engine": "ga",
            "engine_params": {"population_size": 4, "generations": 1},
            "attack": "muxlink", "attack_params": {"predictor": "bayes"},
            "seed": 1,
        },
        "axes": {"alphabet": [["mux"], ["mux", "xor"]]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    assert main(["sweep", str(path), "--alphabet", "mux"]) == 2
    assert "already sweeps an 'alphabet' axis" in capsys.readouterr().err


def test_cli_sweep_alphabet_flag_conflicts_with_merge_axis(tmp_path, capsys):
    """A merge axis whose partial specs set alphabet conflicts too."""
    import json

    sweep = {
        "name": "clash_merge",
        "base": {
            "circuit": "rand_100_9", "key_length": 4, "engine": "ga",
            "engine_params": {"population_size": 4, "generations": 1},
            "attack": "muxlink", "attack_params": {"predictor": "bayes"},
            "seed": 1,
        },
        "axes": {
            "*variant": [
                {"alphabet": ["mux"]},
                {"alphabet": ["mux", "xor"]},
            ]
        },
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    assert main(["sweep", str(path), "--alphabet", "mux"]) == 2
    assert "already sweeps an 'alphabet' axis" in capsys.readouterr().err
