"""Self-check of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

Tracing must not change what the library computes, and the tracer must
put back every name it rebinds.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every loaded choquet module and traced class."""
    import choquet.cli  # noqa: F401
    from choquet.lattice import GridFunction
    from choquet.young import NumericConjugate

    owners = {k: m for k, m in sys.modules.items() if k == "choquet" or k.startswith("choquet.")}
    owners["GridFunction"] = GridFunction
    owners["NumericConjugate"] = NumericConjugate
    return {(k, attr): val for k, owner in owners.items() for attr, val in list(vars(owner).items())}


def _outputs(ops, tracer=None, inproc=False):
    tally = run.Tally(tracer)
    if tracer is None:
        tally.run_pass(ops, inproc)
    else:
        with tracer:
            tally.run_pass(ops, inproc)
    return tally


@pytest.mark.parametrize("build", [workloads.suites, workloads.kernels])
def test_traced_run_gives_identical_outputs(build):
    ops = build(3, small=True)
    plain = _outputs(ops)
    tracer = spans.Tracer()
    traced = _outputs(ops, tracer)
    assert plain.failed == traced.failed == 0, plain.messages + traced.messages
    assert traced.digests == plain.digests
    assert traced.report_digest(ops) == plain.report_digest(ops)
    assert len(tracer.span_start) > 0


def test_cli_in_process_and_traced_match_subprocess(tmp_path):
    ops = workloads.cli(3, str(tmp_path), run.SRC)
    tally = run.Tally(spans.Tracer())
    tally.run_pass(ops)
    tally.run_pass(ops, inproc=True)
    with tally.tracer:
        tally.run_pass(ops, inproc=True)
    assert tally.unexpected == 0, tally.messages
    # only the malformed-input probe may fail, and then on every pass
    assert set(tally.known) <= {"cli.luxemburg.nan"}
    assert tally.failed in (0, 3)
    assert tally.tracer.calls["cli.main"] == len(ops)
    assert tally.tracer.counters["lattice.io.bytes"] > 0


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        during = _bindings()
        import choquet.spaces

        assert choquet.spaces.choquet_integral is not before[("choquet.content", "choquet_integral")]
    changed = {key for key, val in during.items() if before.get(key) is not val}
    # every rebinding of a wrapped function, in every module that imported it
    assert ("choquet.spaces", "choquet_integral") in changed
    assert ("choquet", "run_suite") in changed
    assert ("GridFunction", "from_json") in changed
    assert ("NumericConjugate", "__call__") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_bindings_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer():
            1 / 0
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_tail_leaves_ten_samples_above():
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert sum(x > value for x in range(100)) == 10
