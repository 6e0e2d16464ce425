import hashlib
import json

import pytest

from spacelab import (
    EXPERIMENT_IDS,
    ValidationError,
    run_all,
    run_experiment,
)


EXPECTED_IDS = (
    "delta-kills-density",
    "density-entropy-bound",
    "entropy-iff-banach",
    "high-density-trivial-dynamics",
    "positive-entropy-no-periodic",
    "squares-zero-entropy",
    "transitive-needs-ipip",
    "zero-density-zero-entropy",
    "zero-entropy-proximal",
)


def test_experiment_ids():
    assert EXPERIMENT_IDS == EXPECTED_IDS


def test_unknown_experiment():
    with pytest.raises(ValidationError):
        run_experiment("no-such-experiment")


def test_unknown_override_key():
    with pytest.raises(ValidationError):
        run_experiment("delta-kills-density", {"bogus": 1})


@pytest.mark.parametrize("exp_id", EXPECTED_IDS)
def test_experiment_consistent(exp_id):
    report = run_experiment(exp_id)
    assert report.experiment == exp_id
    assert report.verdict == "consistent"
    checks = report.observations["checks"]
    assert checks
    assert all(ok for _, ok in checks)
    json.dumps(report.to_json())


def test_override_changes_params():
    report = run_experiment("delta-kills-density", {"k": 4})
    assert report.params["k"] == 4
    assert report.verdict == "consistent"


def test_budget_gives_inconclusive():
    report = run_experiment("squares-zero-entropy", budget=10)
    assert report.verdict == "inconclusive"
    assert any("budget" in note for note in report.notes)


def test_override_full_grid():
    report = run_experiment("high-density-trivial-dynamics",
                            {"k_grid": [7], "horizon": 21,
                             "window_grid": [7]})
    assert report.verdict == "consistent"


def test_squares_notes_record_deep_search():
    report = run_experiment("squares-zero-entropy",
                            {"deep_budget": 1000, "search_bound": 3000})
    assert report.verdict == "consistent"
    assert any("depth-5" in note for note in report.notes)


def test_squares_notes_record_deep_search_budget():
    report = run_experiment("squares-zero-entropy",
                            {"deep_budget": 100, "search_bound": 3000})
    assert report.verdict == "consistent"
    assert ("depth-5 search exhausted its budget after 101 nodes "
            "(reported, not asserted)") in report.notes


def test_run_all_order_and_verdicts():
    reports = run_all()
    assert tuple(r.experiment for r in reports) == EXPECTED_IDS
    assert all(r.verdict == "consistent" for r in reports)


def test_report_tables_shape():
    report = run_experiment("density-entropy-bound")
    table = report.observations["table"]
    assert table["columns"][0] == "k"
    assert len(table["rows"]) == 3 * 17


def test_squares_chain_label_follows_depth():
    report = run_experiment("squares-zero-entropy",
                            {"chain_depth": 4, "deep_budget": 1000})
    labels = [label for label, _ in report.observations["checks"]]
    assert "depth-4 chain with square differences found" in labels
    assert not any("depth-3" in text for text in labels + list(report.notes))


# rows of the four per-length tables for n_grid = [16, 8, 16]: grid order,
# repeats kept (entropy-iff-banach, 45 rows, as the sha256 of their JSON)
GRID_ROWS = {
    "zero-density-zero-entropy": ("violation", [
        [2, 16, 81, "0.39624062518028902"], [2, 8, 25, "0.58048202372184055"],
        [2, 16, 81, "0.39624062518028902"], [3, 16, 252, "0.4985799952187448"],
        [3, 8, 48, "0.69812031259014451"], [3, 16, 252, "0.4985799952187448"],
        [5, 16, 1280, "0.64512050593046011"],
        [5, 8, 108, "0.84436093777043353"],
        [5, 16, 1280, "0.64512050593046011"]]),
    "density-entropy-bound": ("consistent", [
        [1, 16, 65536, 16, "1/1"], [1, 8, 256, 8, "1/1"],
        [1, 16, 65536, 16, "1/1"], [2, 16, 511, 8, "1/2"],
        [2, 8, 31, 4, "1/2"], [2, 16, 511, 8, "1/2"], [3, 16, 126, 6, "3/8"],
        [3, 8, 18, 3, "3/8"], [3, 16, 126, 6, "3/8"]]),
    "entropy-iff-banach": ("consistent", "72ebe7e955684fcba3a7e1f5da8f55d4"
                                         "73d3794ffcd2aaebb2cd7eb3ee1c23fb"),
    "squares-zero-entropy": ("violation", [
        [16, 695, "0.59005432297567939", 7],
        [8, 37, "0.65118167070361876", 4],
        [16, 695, "0.59005432297567939", 7]]),
}


@pytest.mark.parametrize("exp_id", sorted(GRID_ROWS))
def test_profile_tables_follow_grid_order(exp_id):
    verdict, rows = GRID_ROWS[exp_id]
    report = run_experiment(exp_id, {"n_grid": [16, 8, 16]})
    got = report.observations["table"]["rows"]
    assert report.verdict == verdict
    if isinstance(rows, str):
        assert [row[1] for row in got] == [16, 8, 16] * 15
        got = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert got == rows


@pytest.mark.parametrize("exp_id", sorted(GRID_ROWS))
def test_length_past_horizon_raises_in_grid_order(exp_id):
    # a budget that runs out at 16 answers only once 16 comes first
    with pytest.raises(ValidationError, match="word length 100 exceeds"):
        run_experiment(exp_id, {"n_grid": [100, 16]}, budget=5)
    report = run_experiment(exp_id, {"n_grid": [16, 100]}, budget=5)
    assert report.verdict == "inconclusive"
    assert report.notes == (
        "budget exhausted after 6 nodes: word-count budget exhausted",)
