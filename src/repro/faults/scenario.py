"""Declarative, deterministic fault-injection timelines.

A :class:`FaultScenario` is a named list of :class:`FaultEvent` entries
``(t_start_ns, t_end_ns, target, impairment)``.  Arming a scenario on a
cluster schedules kernel timers that install each impairment on every
matched target at ``t_start_ns`` and remove it at ``t_end_ns``
(``None`` = until the end of the run).  Targets select Dummynet pipes
by ``fnmatch`` pattern over their keys (``"h0p0"``, ``"h*p0"``,
``"*"``); the prefix ``link:`` instead matches raw links by name and
administratively downs them for the window (impairment must be a
:class:`~repro.faults.impairments.Blackhole`).

Every armed impairment is an independent :meth:`clone` of the event's
prototype, bound to its own RNG stream
``faults:<scenario>:e<idx>:<target>`` — so the same scenario object can
arm many worlds, and arming never perturbs any other random stream.
Scenarios round-trip through plain dicts/JSON for config files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Optional, Sequence, Tuple

from .impairments import Blackhole, Impairment

LINK_PREFIX = "link:"


@dataclass(frozen=True)
class FaultEvent:
    """One timeline entry: apply ``impairment`` to ``target`` during
    ``[t_start_ns, t_end_ns)``."""

    t_start_ns: int
    t_end_ns: Optional[int]  # None: stays armed until the end of the run
    target: str
    impairment: Impairment

    def __post_init__(self) -> None:
        if self.t_start_ns < 0:
            raise ValueError(f"event start cannot be negative: {self.t_start_ns}")
        if self.t_end_ns is not None and self.t_end_ns <= self.t_start_ns:
            raise ValueError(
                f"event window is empty: [{self.t_start_ns}, {self.t_end_ns})"
            )
        if self.target.startswith(LINK_PREFIX) and not isinstance(
            self.impairment, Blackhole
        ):
            raise ValueError(
                f"link targets only support blackhole (link down), got "
                f"{self.impairment.kind!r} on {self.target!r}"
            )

    def to_dict(self) -> Dict:
        return {
            "t_start_ns": self.t_start_ns,
            "t_end_ns": self.t_end_ns,
            "target": self.target,
            "impairment": self.impairment.to_dict(),
        }

    @classmethod
    def from_dict(cls, spec: Dict) -> "FaultEvent":
        return cls(
            t_start_ns=spec["t_start_ns"],
            t_end_ns=spec.get("t_end_ns"),
            target=spec["target"],
            impairment=Impairment.from_dict(spec["impairment"]),
        )


@dataclass
class FaultScenario:
    """A named, reusable impairment timeline."""

    name: str
    events: Sequence[FaultEvent] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        self.events = tuple(self.events)

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> Dict:
        return {"name": self.name, "events": [ev.to_dict() for ev in self.events]}

    @classmethod
    def from_dict(cls, spec: Dict) -> "FaultScenario":
        return cls(
            name=spec["name"],
            events=tuple(FaultEvent.from_dict(e) for e in spec.get("events", ())),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultScenario":
        return cls.from_dict(json.loads(text))

    # -- arming -----------------------------------------------------------
    def arm(self, kernel, pipes: Dict, links: Optional[Dict] = None) -> "ArmedScenario":
        """Schedule this timeline against ``pipes`` (and ``links``).

        Raises ``ValueError`` for targets that match nothing — a typo'd
        target silently doing nothing would be a debugging trap.
        """
        armed = ArmedScenario(self, kernel)
        for idx, event in enumerate(self.events):
            if event.target.startswith(LINK_PREFIX):
                pattern = event.target[len(LINK_PREFIX):]
                matched = sorted(
                    name for name in (links or {}) if fnmatch(name, pattern)
                )
                if not matched:
                    raise ValueError(
                        f"scenario {self.name!r} event {idx}: link target "
                        f"{pattern!r} matches no link"
                    )
                for name in matched:
                    armed.add_link_window(event, links[name])
            else:
                matched = sorted(k for k in pipes if fnmatch(k, event.target))
                if not matched:
                    raise ValueError(
                        f"scenario {self.name!r} event {idx}: target "
                        f"{event.target!r} matches no Dummynet pipe"
                    )
                for key in matched:
                    imp = event.impairment.clone()
                    imp.bind(kernel, f"faults:{self.name}:e{idx}:{key}")
                    armed.add_pipe_window(event, idx, key, pipes[key], imp)
        return armed


class ArmedScenario:
    """A scenario scheduled onto one kernel: live state + metrics.

    Registers probes under ``faults.<scenario>.e<idx>.<target>.*`` so
    ``--metrics-json`` snapshots carry per-impairment seen/dropped/
    affected counts, plus a ``faults.<scenario>.active`` gauge.
    """

    def __init__(self, scenario: FaultScenario, kernel) -> None:
        self.scenario = scenario
        self.kernel = kernel
        self.impairments: List[Tuple[str, Impairment]] = []  # (pipe key, imp)
        self.active = 0
        # per window, its [start, end] handles that have not fired yet
        self._pending: List[List] = []
        self._scope = kernel.metrics.scope(f"faults.{scenario.name}")
        self._scope.probe("active", lambda: self.active)
        self._scope.probe("impairments_armed", lambda: len(self.impairments))

    def _schedule(self, t_start_ns: int, t_end_ns: Optional[int], on, off) -> None:
        # A fired handle goes back to the kernel's Timer pool and may be
        # reissued to an unrelated call_at, so each leg forgets its own
        # handle as it fires and cancel() only reaches pending ones.
        legs: List = [None, None]

        def fire_on() -> None:
            legs[0] = None
            on()

        def fire_off() -> None:
            legs[1] = None
            off()

        legs[:] = self.kernel.call_window(t_start_ns, t_end_ns, fire_on, fire_off)
        self._pending.append(legs)

    def add_pipe_window(
        self, event: FaultEvent, idx: int, key: str, pipe, imp: Impairment
    ) -> None:
        """Install ``imp`` on ``pipe`` for the event's time window."""
        self.impairments.append((key, imp))
        scope = self._scope.scope(f"e{idx}.{key}")
        scope.probe("packets_seen", lambda: imp.packets_seen)
        scope.probe("packets_dropped", lambda: imp.packets_dropped)
        scope.probe("packets_affected", lambda: imp.packets_affected)

        def on() -> None:
            pipe.arm(imp)
            self.active += 1

        def off() -> None:
            pipe.disarm(imp)
            self.active -= 1

        self._schedule(event.t_start_ns, event.t_end_ns, on, off)

    def add_link_window(self, event: FaultEvent, link) -> None:
        """Administratively down ``link`` for the event's time window."""

        def on() -> None:
            link.set_up(False)
            self.active += 1

        def off() -> None:
            link.set_up(True)
            self.active -= 1

        self._schedule(event.t_start_ns, event.t_end_ns, on, off)

    def cancel(self) -> None:
        """Cancel every not-yet-fired arm/disarm timer."""
        for legs in self._pending:
            for timer in legs:
                if timer is not None:
                    timer.cancel()
        self._pending.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ArmedScenario {self.scenario.name!r} "
            f"{len(self.impairments)} impairments, {self.active} active>"
        )
