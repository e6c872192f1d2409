"""Tests of the benchmark's own logic: config generation, span arithmetic,
and the bitwise check of final iterates.

    python3 -m pytest perfbench
"""

import contextlib
import csv
import io
import json

import numpy as np
import pytest

import reference
import workloads
from spans import Tracer, self_times, summarize


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_are_deterministic_per_seed_and_differ_across_seeds(workload):
    a = workloads.make_config(workload, 7)
    assert json.dumps(a) == json.dumps(workloads.make_config(workload, 7))
    assert json.dumps(a) != json.dumps(workloads.make_config(workload, 8))
    # Only the inputs move with the seed; the amount of work does not.
    b = workloads.make_config(workload, 8)
    assert a["optimizers"] == b["optimizers"]
    assert a.get("iterations") == b.get("iterations")


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        ("c", 9.0, 12.0, 0),  # sticks out of root: only [9, 10] counts
        ("a", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])
    stats = summarize(spans)
    assert stats["a"] == pytest.approx({"calls": 2, "total": 4.0, "self": 3.0})
    assert stats["root"]["self"] == pytest.approx(4.0)


def test_wrapped_calls_record_parent_and_run_id():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    with tracer.root("cli.main", run_id=3):
        assert outer(1) == 4
    spans = tracer.spans(3)
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("cli.main", -1),
        ("outer", 0),
        ("inner", 1),
    ]
    assert all(start <= end for _, start, end, _ in spans)
    assert tracer.spans(0) == []


def _tiny_compare_run(tmp_path, monkeypatch):
    from ssmopt import build_objective, cli, load_config

    config = workloads.make_config("logistic-wide", 1)
    config["objective"].update(dim=3, n_samples=20, x0=[0.0, 0.0, 0.0])
    config["iterations"] = 30
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["compare", str(path)]) == 0
    grad = build_objective(load_config(path).objective).eval_grad
    return config, grad, out


def test_reference_matches_every_kind_bitwise(tmp_path, monkeypatch):
    config, grad, out = _tiny_compare_run(tmp_path, monkeypatch)
    assert len(reference.checked_entries(config)) == 6
    mismatches, seconds_per_iter = reference.check_final_iterates(config, grad, out)
    assert mismatches == []
    assert seconds_per_iter > 0


def test_check_rejects_an_iterate_perturbed_by_one_ulp(tmp_path, monkeypatch):
    config, grad, out = _tiny_compare_run(tmp_path, monkeypatch)
    (path,) = out.glob("traj_03_*.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[-1][4] = repr(float(np.nextafter(float(rows[-1][4]), np.inf)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    mismatches, _ = reference.check_final_iterates(config, grad, out)
    assert len(mismatches) == 1
    assert mismatches[0].startswith(config["optimizers"][3]["name"])
