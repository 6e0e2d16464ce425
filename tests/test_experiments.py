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
