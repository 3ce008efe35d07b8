"""The tournament driver (repro.experiments.tournament)."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.tournament import (
    CellResult,
    TournamentParams,
    _cell_key,
    _cell_problems,
    _check_expect,
    _leaderboard,
    _params_from_expect,
    _sanity_problems,
    main,
    one_line,
    run,
    to_json,
)

BASELINE = (Path(__file__).resolve().parents[1] / "benchmarks"
            / "baseline_tournament.json")

MINI = TournamentParams(
    seed=0, scale=0.2,
    policies=("harmony", "naive", "isolated", "fcfs"),
    arrivals=("batch",), cluster_scales=(1.0,),
    engines=("fast", "reference"))


@pytest.fixture(scope="module")
def mini_result():
    return run(MINI)


def _cell(policy, jct, makespan=1000.0, arrival="batch", machines=20,
          engine="fast", failed=0):
    return CellResult(
        policy=policy, arrival=arrival, n_machines=machines,
        engine=engine, mean_jct=jct, makespan=makespan,
        cpu_utilization=0.5, net_utilization=0.3, n_finished=4,
        n_failed=failed, wall_seconds=0.0)


class TestLeaderboard:
    def test_normalizes_per_scenario_and_ranks(self):
        cells = (_cell("a", 100.0), _cell("b", 200.0),
                 _cell("a", 300.0, engine="reference"),
                 _cell("b", 150.0, engine="reference"))
        rows = _leaderboard(cells, ("a", "b"))
        by_name = {row.policy: row for row in rows}
        # a: 1.0 and 2.0 -> 1.5; b: 2.0 and 1.0 -> 1.5 — exact tie,
        # broken alphabetically.
        assert by_name["a"].jct_score == pytest.approx(1.5)
        assert by_name["b"].jct_score == pytest.approx(1.5)
        assert [row.policy for row in rows] == ["a", "b"]
        assert [row.rank for row in rows] == [1, 2]

    def test_winner_scores_one(self):
        cells = (_cell("fast", 10.0), _cell("slow", 30.0))
        rows = _leaderboard(cells, ("fast", "slow"))
        assert rows[0].policy == "fast"
        assert rows[0].jct_score == pytest.approx(1.0)
        assert rows[1].jct_score == pytest.approx(3.0)


class TestRun:
    def test_cell_grid_shape(self, mini_result):
        assert len(mini_result.cells) == 4 * 1 * 1 * 2
        assert len(mini_result.leaderboard) == 4
        assert set(mini_result.ordering()) == set(MINI.policies)

    def test_clean_under_invariants_and_engines_agree(self, mini_result):
        assert mini_result.n_violations == 0
        assert mini_result.engine_disagreements == ()

    def test_harmony_beats_the_uncoordinated_field(self, mini_result):
        scores = {row.policy: row.jct_score
                  for row in mini_result.leaderboard}
        assert scores["harmony"] < scores["naive"]
        assert scores["harmony"] < scores["fcfs"]
        assert _sanity_problems(mini_result) == []

    def test_deterministic_across_repeat_runs(self, mini_result):
        again = run(MINI)

        def simulated(result):  # drop the only real-time field
            return [{k: v for k, v in cell.items()
                     if k != "wall_seconds"}
                    for cell in to_json(result)["cells"]]

        # harmony: allow[DET006] exact reproducibility is the property under test
        assert simulated(again) == simulated(mini_result)

    def test_unknown_arrival_rejected(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            run(TournamentParams(policies=("fcfs",),
                                 arrivals=("lognormal",)))


class TestPersistence:
    def test_json_round_trip_and_expect(self, mini_result, tmp_path):
        payload = to_json(mini_result)
        expect = tmp_path / "expect.json"
        expect.write_text(json.dumps(payload))
        assert _check_expect(mini_result, str(expect)) == []
        payload["ordering"] = list(reversed(payload["ordering"]))
        expect.write_text(json.dumps(payload))
        problems = _check_expect(mini_result, str(expect))
        assert len(problems) == 1
        assert "ordering changed" in problems[0]

    def test_expect_pins_cell_numbers(self, mini_result, tmp_path):
        # Same ordering, one number moved: the replay must still fail.
        payload = to_json(mini_result)
        payload["cells"][0]["makespan"] += 1.0
        expect = tmp_path / "expect.json"
        expect.write_text(json.dumps(payload))
        problems = _check_expect(mini_result, str(expect))
        assert len(problems) == 1
        assert "makespan" in problems[0]
        assert "/".join(map(str, _cell_key(payload["cells"][0]))) \
            in problems[0]

    def test_one_line_summary(self, mini_result):
        line = one_line(mini_result)
        assert "tournament[seed=0]" in line
        assert "violations=0" in line


class TestCli:
    def test_list_policies(self, capsys):
        assert main(["--list-policies"]) == 0
        out = capsys.readouterr().out
        assert "harmony" in out and "cassini" in out

    def test_expect_replay_through_cli(self, tmp_path, capsys):
        expect = tmp_path / "expect.json"
        expect.write_text(json.dumps(to_json(run(TournamentParams(
            seed=0, scale=0.2, policies=("fcfs", "easy"),
            arrivals=("batch",), cluster_scales=(1.0,),
            engines=("fast",))))))
        output = tmp_path / "out.json"
        code = main(["--seed", "0", "--expect", str(expect),
                     "--assert-sanity", "--output", str(output)])
        assert code == 0
        written = json.loads(output.read_text())
        # The replay adopted the expect file's parameters.
        assert written["params"]["policies"] == ["fcfs", "easy"]
        assert written["ordering"] == json.loads(
            expect.read_text())["ordering"]


    def test_seed_other_than_the_expect_files_is_a_usage_error(
            self, monkeypatch, capsys):
        """A replay runs the expect file's parameters, so an explicit
        seed that differs from the file's is refused before anything
        runs instead of being silently dropped."""
        def refuse(params):
            raise AssertionError("the tournament must not run")

        monkeypatch.setattr("repro.experiments.tournament.run", refuse)
        with pytest.raises(SystemExit) as exit_info:
            main(["--seed", "1", "--expect", str(BASELINE)])
        assert exit_info.value.code == 2
        assert "--seed 1 differs from seed 0" in capsys.readouterr().err


class TestCommittedBaseline:
    def test_harmony_cells_match_committed_baseline(self):
        payload = json.loads(BASELINE.read_text())
        result = run(replace(_params_from_expect(payload),
                             policies=("harmony", "harmony-static"),
                             engines=("fast",)))
        keys = {_cell_key(cell) for cell in to_json(result)["cells"]}
        committed = [cell for cell in payload["cells"]
                     if _cell_key(cell) in keys]
        assert len(committed) == len(keys) == 8
        assert _cell_problems(result, committed) == []
