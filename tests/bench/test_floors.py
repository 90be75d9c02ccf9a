"""The one floor check and the collector that feeds it."""

import pytest

from repro.bench import check_floors, collect_floors

FLOORS = {"demo": (("rate", ">=", 0.5),)}


def _payload(**metrics):
    return {"bench": "demo", "metrics": metrics}


def test_cleared_floors_report_how_many_applied():
    floors = {"demo": (("rate", ">=", 0.5), ("rate", "<", 1.0))}
    assert check_floors("BENCH_demo.json", _payload(rate=0.5), floors) == 2


def test_undeclared_slug_fails():
    with pytest.raises(AssertionError, match="bench 'other' declares no"):
        check_floors(
            "BENCH_other.json", {"bench": "other", "metrics": {"x": 1}},
            FLOORS,
        )


def test_floor_on_unrecorded_metric_fails():
    with pytest.raises(AssertionError, match="metric 'rate' which the"):
        check_floors("BENCH_demo.json", _payload(other=1.0), FLOORS)


@pytest.mark.parametrize(
    ("op", "bound", "value"),
    [
        ("<", 1.0, 1.0),
        ("<=", 1.0, 1.5),
        (">", 0, 0),
        (">=", 0.5, 0.4),
        ("==", True, False),
    ],
)
def test_violated_floor_names_path_metric_and_bound(op, bound, value):
    with pytest.raises(AssertionError) as excinfo:
        check_floors(
            "results/BENCH_demo.json",
            _payload(rate=value),
            {"demo": (("rate", op, bound),)},
        )
    assert str(excinfo.value) == (
        f"results/BENCH_demo.json: rate={value!r} violates floor "
        f"'rate {op} {bound!r}'"
    )


def _bench_module(directory, name, body):
    (directory / name).write_text(body, encoding="utf-8")


def test_collector_merges_every_bench_module(tmp_path):
    _bench_module(tmp_path, "test_a.py", 'FLOORS = {"a": (("x", "<", 1),)}\n')
    _bench_module(tmp_path, "test_b.py", 'FLOORS = {"b": (("y", ">", 0),)}\n')
    _bench_module(tmp_path, "conftest.py", "FLOORS = None\n")
    assert collect_floors(str(tmp_path)) == {
        "a": (("x", "<", 1),),
        "b": (("y", ">", 0),),
    }


def test_slug_declared_in_two_modules_fails(tmp_path):
    for name in ("test_a.py", "test_b.py"):
        _bench_module(tmp_path, name, 'FLOORS = {"dup": (("x", "==", 1),)}\n')
    with pytest.raises(
        AssertionError,
        match="bench 'dup' declares FLOORS in both test_a.py and test_b.py",
    ):
        collect_floors(str(tmp_path))


def test_bench_module_without_floors_fails(tmp_path):
    _bench_module(tmp_path, "test_a.py", "def test_nothing():\n    pass\n")
    with pytest.raises(AssertionError, match="test_a.py declares no FLOORS"):
        collect_floors(str(tmp_path))


def test_unknown_op_fails(tmp_path):
    _bench_module(tmp_path, "test_a.py", 'FLOORS = {"a": (("x", "=>", 1),)}\n')
    with pytest.raises(AssertionError, match=r"unknown ops \['=>'\]"):
        collect_floors(str(tmp_path))
