"""Self-tests of the simulator benchmark.

Run from the repository root::

    python3 -m pytest simbench -q

The planted faults are made here by monkeypatching; the simulator
sources stay untouched.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import measure
import run
from repro.network import link as link_module
from repro.network.link import Link
from repro.simkernel.kernel import Kernel
from workloads import WORKLOADS, generate


def _sims_summary(sims):
    return [(s.name, s.config) for s in sims]


def test_generation_is_a_pure_function_of_workload_and_seed():
    for workload in WORKLOADS:
        assert _sims_summary(generate(workload, 7)) == _sims_summary(generate(workload, 7))
        assert _sims_summary(generate(workload, 7)) != _sims_summary(generate(workload, 8))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_fingerprints_repeat_exactly_across_passes(workload):
    runner = measure.Runner(generate(workload, 0), run.load_reference(workload, 0))
    first = runner.run_pass()
    second = runner.run_pass()
    assert first.counts == second.counts
    assert first.counts["simkernel.events"] > 0
    assert first.counts["rpi.advance_calls"] > 0
    assert first.fingerprints == second.fingerprints
    assert runner.attempted == 2 * len(runner.sims)
    assert runner.failed == 0, first.failures + second.failures


def test_every_workload_seed_zero_has_a_reference():
    for workload in WORKLOADS:
        reference = run.load_reference(workload, 0)
        assert reference is not None
        assert len(reference) == len(generate(workload, 0))


def _perturb_loss_streams(monkeypatch):
    original = Kernel.rng

    def rng(self, label):
        if label.startswith("dummynet:"):
            label += ":perturbed"
        return original(self, label)

    monkeypatch.setattr(Kernel, "rng", rng)


def test_perturbed_loss_seed_raises_fail_rate():
    sims = generate("farm", 0)[:1]
    reference = run.load_reference("farm", 0)[:1]
    clean = measure.Runner(sims, reference)
    clean.run_pass()
    assert clean.failed == 0
    with pytest.MonkeyPatch.context() as mp:
        _perturb_loss_streams(mp)
        faulty = measure.Runner(sims, reference)
        record = faulty.run_pass()
    assert faulty.failed / faulty.attempted > 0
    assert "differs from reference" in record.failures[0]


def test_fingerprint_change_between_passes_is_a_failure():
    sims = generate("farm", 0)[:1]
    runner = measure.Runner(sims)
    runner.run_pass()
    with pytest.MonkeyPatch.context() as mp:
        _perturb_loss_streams(mp)
        record = runner.run_pass()
    assert runner.failed == 1
    assert "differs from first pass" in record.failures[0]


def test_deadlock_is_a_failure():
    sims = generate("pingpong", 0)[:1]

    async def hang(comm):
        await comm.recv(source=1 - comm.rank)

    runner = measure.Runner([dataclasses.replace(sims[0], app=hang)])
    record = runner.run_pass()
    assert runner.failed == 1
    assert "DeadlockError" in record.failures[0]


BUSY_LOOP = 800


def _slow_link_send(monkeypatch):
    """Add a busy loop to Link.send, compiled as part of link.py so the
    profile attributes it to the network layer."""
    namespace = {"_original_send": Link.send}
    source = (
        "def send(self, packet):\n"
        f"    for _ in range({BUSY_LOOP}):\n"
        "        pass\n"
        "    return _original_send(self, packet)\n"
    )
    exec(compile(source, link_module.__file__, "exec"), namespace)
    monkeypatch.setattr(Link, "send", namespace["send"])


def _traced(sims):
    record = measure.Runner(sims).run_pass(traced=True)
    assert not record.failures
    return (
        measure.layer_self_times(record.profile),
        measure.entry_point_counts(record.profile),
        record.counts,
    )


def test_link_send_slowdown_shows_in_network_self_time():
    sims = generate("pingpong", 0)[8:12]  # larger messages: many link sends
    selfs, calls, counts = _traced(sims)
    with pytest.MonkeyPatch.context() as mp:
        _slow_link_send(mp)
        slow_selfs, slow_calls, slow_counts = _traced(sims)
    assert slow_calls == calls
    assert slow_counts == counts
    added = slow_selfs["network"] - selfs["network"]
    # the busy loop runs once per Link.send call; it must land in network,
    # not in another layer
    assert added > 0.5 * (sum(slow_selfs.values()) - sum(selfs.values()))
    assert slow_selfs["network"] > 1.5 * selfs["network"]


def test_layer_self_times_account_for_the_traced_total():
    sims = generate("pods", 0)[:2]
    record = measure.Runner(sims).run_pass(traced=True)
    selfs = measure.layer_self_times(record.profile)
    assert set(selfs) == set(measure.LAYER_NAMES)
    profiled = sum(selfs.values())
    assert profiled == pytest.approx(record.profile.total_tt)
    assert 0.5 * (record.setup_s + record.run_s) < profiled < 1.2 * (record.setup_s + record.run_s)
    assert all(selfs[name] > 0 for name in ("simkernel", "network", "tcp", "sctp", "rpi", "metrics"))


def test_traced_run_prints_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pods", "--seconds", "0.1", "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
        timeout=170,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "simbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "pods", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
