import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(setup_s, rate, digests=None, correct=True):
    return {
        "workload": "pipeline_overhead",
        "correct": correct,
        "records_digests": digests or {"0": "aa"},
        "metrics": {
            "setup_s": {"unit": "s", "value": setup_s},
            "instances_per_s": {"unit": "1/s", "value": rate},
        },
    }


def _pair(seed, parent, change):
    return {"seed": seed, "first": "parent", "parent": parent, "change": change}


def test_summary_counts_wins_in_each_metric_direction():
    pairs = [
        _pair(1, _run(0.40, 100.0), _run(0.20, 110.0)),
        _pair(2, _run(0.38, 100.0), _run(0.21, 90.0)),
        _pair(3, _run(0.36, 100.0), _run(0.36, 100.0)),
    ]
    better = {"setup_s": "lower", "instances_per_s": "higher"}
    summary = bench_pairs.summarize(pairs, better)
    assert summary["setup_s"]["change_wins"] == 2  # a tie counts for neither side
    assert summary["instances_per_s"]["change_wins"] == 1
    assert summary["setup_s"]["pairs"] == 3 and summary["setup_s"]["unit"] == "s"
    assert summary["setup_s"]["parent"] == {"median": 0.38, "q1": 0.37, "q3": 0.39}
    single = bench_pairs.summarize(pairs[:1], better)["setup_s"]["change"]
    assert single == {"median": 0.2, "q1": 0.2, "q3": 0.2}


def test_digest_problems_name_the_seed_and_the_failing_side():
    same = _pair(1, _run(0.4, 1.0), _run(0.2, 1.0))
    differ = _pair(2, _run(0.4, 1.0), _run(0.2, 1.0, digests={"0": "bb"}))
    failed = _pair(3, _run(0.4, 1.0, correct=False), _run(0.2, 1.0))
    assert bench_pairs.digest_problems([same]) == []
    assert bench_pairs.digest_problems([differ, failed]) == [
        "pipeline_overhead seed 2: records digests differ between the two sides",
        "pipeline_overhead seed 3: the parent side failed its design checks",
    ]
