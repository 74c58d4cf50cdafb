"""Engine smoke tests: scenarios, sweep runner, result emission, CLI."""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    FAMILIES,
    PROTOCOLS,
    Scenario,
    backend_comparison,
    build_partition,
    build_workload,
    default_scenarios,
    iter_scenarios,
    profile_hotspots,
    rand_comparison,
    results_table,
    run_scenario,
    smoke_scenarios,
    sweep,
    write_results,
)
from repro.__main__ import main


def _tiny(protocol: str, backend: str = "set", partition: str = "random") -> Scenario:
    return Scenario(
        family="regular",
        params=(("d", 4), ("n", 24)),
        partition=partition,
        protocol=protocol,
        backend=backend,
    )


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("nope", (), "random", "vertex")
    with pytest.raises(ValueError):
        Scenario("regular", (), "nope", "vertex")
    with pytest.raises(ValueError):
        Scenario("regular", (), "random", "nope")
    with pytest.raises(ValueError):
        Scenario("regular", (), "random", "vertex", backend="nope")


def test_deleted_backend_name_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown backend"):
        _tiny("vertex", backend="bitset")
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--smoke", "--backend", "bitset", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_scenario_name_and_seed_are_stable():
    a = _tiny("vertex")
    b = _tiny("vertex", backend="csr")
    assert a.name == "vertex/regular(d=4,n=24)/random/set"
    assert a.coordinate == b.coordinate
    # Seeds hash the (family, params) workload key only: every protocol,
    # partition scheme, and backend sharing the key runs the identical
    # graph instance.
    assert a.effective_seed == b.effective_seed
    assert _tiny("edge").effective_seed == a.effective_seed
    assert _tiny("vertex", partition="all_alice").effective_seed == a.effective_seed
    other_workload = Scenario("regular", (("d", 4), ("n", 32)), "random", "vertex")
    assert other_workload.effective_seed != a.effective_seed
    pinned = Scenario("regular", (("d", 4), ("n", 24)), "random", "vertex", seed=7)
    assert pinned.effective_seed == 7


def test_scenario_params_are_normalized():
    a = Scenario("regular", (("n", 24), ("d", 4)), "random", "vertex")
    b = Scenario("regular", (("d", 4), ("n", 24)), "random", "vertex")
    assert a == b
    assert a.name == b.name
    assert a.effective_seed == b.effective_seed


def test_protocols_share_cached_workload_by_default():
    # No explicit seed: same (family, params) → same graph across protocols
    # and partition schemes.
    a = _tiny("vertex")
    b = _tiny("edge")
    c = _tiny("vertex", partition="all_alice")
    assert build_workload(a) is build_workload(b) is build_workload(c)


def test_workload_and_partition_caching():
    # Distinct protocols, same (family, params, seed): the cached graph and
    # partitioned instance must be shared, not regenerated.
    a = Scenario("regular", (("d", 4), ("n", 24)), "random", "vertex", seed=1)
    b = Scenario("regular", (("d", 4), ("n", 24)), "random", "edge", seed=1)
    assert build_workload(a) is build_workload(b)
    assert build_partition(a) is build_partition(b)


def test_run_scenario_record_shape():
    record = run_scenario(_tiny("vertex"))
    for key in (
        "scenario",
        "protocol",
        "family",
        "partition",
        "backend",
        "seed",
        "n",
        "m",
        "max_degree",
        "total_bits",
        "rounds",
        "num_colors",
        "valid",
        "params",
    ):
        assert key in record, key
    assert record["valid"] is True
    assert record["n"] == 24
    # Wall-clock time lives in the observability layer, never in the
    # canonical record (it would break byte-identical merge/verify).
    assert "wall_time_s" not in record
    from repro.obs import WALL_CLOCK

    assert WALL_CLOCK.last(record["scenario"]) is not None


def test_every_protocol_runs_one_tiny_scenario():
    for protocol in PROTOCOLS:
        record = run_scenario(_tiny(protocol))
        assert record["valid"], protocol
        if protocol == "edge_zero_comm":
            assert record["total_bits"] == 0 and record["rounds"] == 0


def _move_a_bob_edge_to_alice(result):
    edge = next(iter(result.bob_colors))
    result.alice_colors[edge] = result.bob_colors.pop(edge)


def _record_a_round(result):
    result.transcript.record_round(0, 0)


def _misdeclare_the_palette(result):
    result.num_colors += 1


@pytest.mark.parametrize(
    "protocol, driver, tamper",
    [
        ("edge", "run_edge_coloring", _move_a_bob_edge_to_alice),
        ("edge_zero_comm", "run_zero_comm_edge_coloring", _record_a_round),
        ("vertex", "run_vertex_coloring", _misdeclare_the_palette),
    ],
)
def test_sweep_record_is_invalid_when_a_proper_result_breaks_the_contract(
    monkeypatch, protocol, driver, tamper
):
    """Each adapter audits the model's contract, not just properness."""
    import repro.engine.scenarios as scenarios

    honest = getattr(scenarios, driver)

    def tampered(*args, **kwargs):
        result = honest(*args, **kwargs)
        tamper(result)
        return result

    monkeypatch.setattr(scenarios, driver, tampered)
    record = run_scenario(_tiny(protocol))
    assert record["valid"] is False


def test_backend_rows_agree_in_sweep():
    scenarios = [_tiny("vertex", backend=b) for b in ("set", "csr")]
    set_row, csr_row = sweep(scenarios, jobs=1)
    assert set_row["total_bits"] == csr_row["total_bits"]
    assert set_row["rounds"] == csr_row["rounds"]
    # Everything but the coordinate label must agree key-for-key, so
    # sweep.json records differ only in the backend column.
    strip = lambda r: {
        k: v for k, v in r.items() if k not in ("scenario", "backend")
    }
    assert strip(set_row) == strip(csr_row)


def test_sweep_parallel_matches_serial():
    scenarios = [_tiny(p) for p in ("vertex", "edge", "edge_zero_comm")]
    serial = sweep(scenarios, jobs=1)
    parallel = sweep(scenarios, jobs=2)
    # Records carry no wall times (those live in repro.obs.WALL_CLOCK),
    # so serial and pooled sweeps must agree exactly, key for key.
    assert serial == parallel


def test_iter_scenarios_filter_and_backend():
    grid = smoke_scenarios()
    only_edge = list(iter_scenarios(grid, pattern="edge/"))
    assert only_edge and all("edge/" in s.name for s in only_edge)
    both = list(iter_scenarios([_tiny("vertex")], backend="both"))
    assert {s.backend for s in both} == {"set", "csr"}
    pinned = list(iter_scenarios(grid, backend="csr"))
    assert all(s.backend == "csr" for s in pinned)


def test_registry_grids_are_valid():
    for scenario in default_scenarios() + smoke_scenarios():
        assert scenario.family in FAMILIES
        assert scenario.protocol in PROTOCOLS


def test_write_results_and_table(tmp_path):
    results = sweep([_tiny("vertex"), _tiny("edge_zero_comm")], jobs=1)
    json_path, md_path = write_results(results, tmp_path, label="smoke")
    document = json.loads(json_path.read_text())
    assert document["count"] == 2
    assert document["all_valid"] is True
    assert len(document["results"]) == 2
    markdown = md_path.read_text()
    assert markdown.startswith("###")
    assert "| scenario |" in markdown
    console = results_table(results)
    assert "sweep results (2 scenarios)" in console


def test_backend_comparison_rows():
    rows = backend_comparison(n=48, d=4, seed=1, repeat=1)
    kernels = {r["kernel"] for r in rows}
    assert "graph.copy" in kernels
    assert all(r["set_s"] > 0 and r["csr_s"] > 0 for r in rows)


def test_graphs_comparison_rows():
    from repro.engine import graphs_comparison

    rows = graphs_comparison(n=400, degree=8, seed=1, repeat=1)
    assert [r["backend"] for r in rows] == ["set", "csr"]
    assert len({r["m"] for r in rows}) == 1  # identical shared edge list
    csr = rows[-1]
    assert csr["probe_speedup_vs_set"] > 0
    assert csr["mem_ratio_vs_set"] > 1  # flat arrays beat hash sets already at n=400
    assert all(r["build_s"] > 0 and r["probe_s"] > 0 for r in rows)


def test_cli_list_and_sweep(tmp_path, capsys):
    assert main(["list-scenarios", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "vertex/regular" in out

    code = main(
        [
            "sweep",
            "--smoke",
            "--filter",
            "edge_zero_comm",
            "--jobs",
            "1",
            "--out",
            str(tmp_path / "results"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "results" / "sweep.json").exists()
    assert (tmp_path / "results" / "sweep.md").exists()


def test_cli_sweep_rejects_empty_filter(capsys):
    assert main(["sweep", "--smoke", "--filter", "zzz-no-match"]) == 2


def test_cli_bench_tiny(capsys):
    assert main(["bench", "--n", "48", "--degree", "4", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "graph backend comparison" in out


def test_rand_comparison_rows():
    rows = rand_comparison(n=48, d=4, seed=1, repeat=1)
    assert {r["op"] for r in rows} >= {"derive 2k sub-streams", "protocol: vertex (thm 1)"}
    protocol = next(r for r in rows if r["op"].startswith("protocol"))
    assert protocol["stream_coloring_proper"]
    assert all(r["tape_s"] > 0 and r["stream_s"] > 0 for r in rows)


def test_profile_hotspots_rows():
    rows = profile_hotspots(n=48, d=4, seed=1, top=5)
    assert 0 < len(rows) <= 5
    assert {"function", "file", "line", "ncalls", "tottime_s", "cumtime_s"} <= set(
        rows[0]
    )
    # cumtime-sorted: the driver should dominate the first row
    assert rows[0]["cumtime_s"] >= rows[-1]["cumtime_s"]


def test_cli_bench_rand_and_profile(tmp_path, capsys):
    out_json = tmp_path / "rand.json"
    assert main(
        ["bench", "--rand", "--n", "48", "--degree", "4", "--repeat", "1",
         "--json", str(out_json)]
    ) == 0
    out = capsys.readouterr().out
    assert "randomness substrate comparison" in out
    document = json.loads(out_json.read_text())
    assert document["bench"] == "rand_comparison"
    assert any(r["op"].startswith("protocol") for r in document["rows"])

    assert main(["bench", "--profile", "--n", "48", "--degree", "4", "--top", "5"]) == 0
    assert "cProfile hotspots" in capsys.readouterr().out


def test_cli_bench_graphs(tmp_path, capsys):
    out_json = tmp_path / "graphs.json"
    assert main(
        ["bench", "--graphs", "--n", "400", "--degree", "8", "--repeat", "1",
         "--json", str(out_json), "--min-csr-speedup", "0.01"]
    ) == 0
    out = capsys.readouterr().out
    assert "graph representation comparison" in out
    assert "csr guard" in out
    document = json.loads(out_json.read_text())
    assert document["bench"] == "graphs_comparison"
    assert {r["backend"] for r in document["rows"]} == {"set", "csr"}


def test_cli_bench_graphs_guard_flag_needs_graphs(capsys):
    assert main(["bench", "--min-csr-speedup", "3.0"]) == 2
    assert "--min-csr-speedup only applies to --graphs" in capsys.readouterr().err


def test_cli_list_large_grid(capsys):
    assert main(["list-scenarios", "--large"]) == 0
    out = capsys.readouterr().out
    assert "social(exponent=2.3,max_degree=64,n=1000000)" in out
    assert all(line.endswith("/csr") for line in out.strip().splitlines())


def test_cli_smoke_and_large_are_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["list-scenarios", "--smoke", "--large"])
    assert "not allowed with" in capsys.readouterr().err


def test_cli_bench_mode_flags_are_exclusive(capsys):
    assert main(["bench", "--rand", "--profile"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert main(["bench", "--graphs", "--rand"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_bench_rand_and_profile_reject_transport(capsys):
    assert main(["bench", "--rand", "--transport", "count"]) == 2
    assert "--transport conflicts with --rand" in capsys.readouterr().err
    assert main(["bench", "--profile", "--transport", "strict"]) == 2
    assert "--transport conflicts with --profile" in capsys.readouterr().err
    assert main(["bench", "--graphs", "--transport", "count"]) == 2
    assert "--transport conflicts with --graphs" in capsys.readouterr().err


def test_cli_bench_profile_rejects_infeasible_workload(capsys):
    # n*d odd -> random_regular_graph raises; the CLI must exit 2 cleanly.
    assert main(["bench", "--profile", "--n", "11", "--degree", "3"]) == 2
    assert "infeasible workload" in capsys.readouterr().err
