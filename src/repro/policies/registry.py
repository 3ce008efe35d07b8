"""Name -> runtime registry for every scheduler the repo can run.

One place maps a policy name to a ready-to-``run()`` runtime, so the
experiments, the tournament and the CLI all speak the same names:

* ``harmony`` / ``naive`` / ``isolated`` — the paper's three systems
  (§V-A), exactly the pre-existing runtimes.
* ``fcfs`` / ``easy`` / ``conservative`` — the queueing family on
  dedicated allocations (:mod:`repro.policies.queueing`).
* ``synergy`` / ``cassini`` — resource-aware packing and COMM
  interleaving on Harmony's coordinated executor
  (:mod:`repro.policies.packing` / :mod:`repro.policies.interleave`).
* ``harmony-static`` — Algorithm 1's grouping as a one-shot queue
  policy, without profiling or dynamic regrouping
  (:mod:`repro.policies.planner`).

Every factory takes ``(n_machines, workload, config)`` and the listing
order of :func:`available` is the registration order — fixed in this
file, never hash order.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.base import BaselineRuntime
from repro.baselines.isolated import IsolatedRuntime
from repro.baselines.naive import NaiveRuntime
from repro.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.core.group_runtime import ExecutionMode
from repro.core.runtime import HarmonyRuntime
from repro.errors import SchedulingError
from repro.policies.interleave import cassini
from repro.policies.packing import synergy
from repro.policies.planner import harmony_static
from repro.policies.queueing import conservative, easy, fcfs
from repro.workloads.apps import JobSpec

_REGISTRY: dict[str, tuple[str, object]] = {}


def register(name: str, summary: str):
    """Decorator: register a ``(n_machines, workload, config)`` factory."""
    def wrap(factory):
        if name in _REGISTRY:
            raise SchedulingError(f"duplicate policy name {name!r}")
        _REGISTRY[name] = (summary, factory)
        return factory
    return wrap


def available() -> tuple[tuple[str, str], ...]:
    """``(name, summary)`` pairs in registration order."""
    return tuple((name, summary)
                 for name, (summary, _) in _REGISTRY.items())


def build_runtime(name: str, n_machines: int,
                  workload: Sequence[JobSpec],
                  config: SimConfig = DEFAULT_SIM_CONFIG):
    """Instantiate the named runtime over a workload."""
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(_REGISTRY))
        raise SchedulingError(f"unknown policy {name!r}; known: {known}")
    _, factory = entry
    return factory(n_machines, workload, config)


# -- the paper's three systems ------------------------------------------------

@register("harmony", "the paper's full system (profile + regroup + spill)")
def _harmony(n_machines, workload, config):
    return HarmonyRuntime(n_machines, workload, config=config)


@register("naive", "uncoordinated co-location (Gandiva style), §V-A")
def _naive(n_machines, workload, config):
    return NaiveRuntime(n_machines, workload, config=config)


@register("isolated", "dedicated per-job machines (Optimus/SLAQ), §V-A")
def _isolated(n_machines, workload, config):
    return IsolatedRuntime(n_machines, workload, config=config)


# -- queueing family (dedicated allocations, no co-location) ------------------

@register("fcfs", "strict first-come-first-served, no backfill")
def _fcfs(n_machines, workload, config):
    return BaselineRuntime(
        n_machines, workload, mode=ExecutionMode.ISOLATED, name="fcfs",
        config=config, dop_scale=IsolatedRuntime.DOP_SCALE, policy=fcfs)


@register("easy", "EASY backfill: one reservation for the queue head")
def _easy(n_machines, workload, config):
    return BaselineRuntime(
        n_machines, workload, mode=ExecutionMode.ISOLATED, name="easy",
        config=config, dop_scale=IsolatedRuntime.DOP_SCALE, policy=easy)


@register("conservative",
          "conservative backfill: reservations for every waiting job")
def _conservative(n_machines, workload, config):
    return BaselineRuntime(
        n_machines, workload, mode=ExecutionMode.ISOLATED,
        name="conservative", config=config,
        dop_scale=IsolatedRuntime.DOP_SCALE, policy=conservative)


# -- co-locating competitors on the coordinated executor ----------------------

@register("synergy", "resource-sensitive packing by Eq. 3 score gain")
def _synergy(n_machines, workload, config):
    return BaselineRuntime(
        n_machines, workload, mode=ExecutionMode.HARMONY,
        name="synergy", config=config, policy=synergy)


@register("cassini", "phase-offset COMM interleaving by compatibility")
def _cassini(n_machines, workload, config):
    return BaselineRuntime(
        n_machines, workload, mode=ExecutionMode.HARMONY,
        name="cassini", config=config, policy=cassini)


@register("harmony-static",
          "Algorithm 1 grouping once at admission, no adaptation")
def _harmony_static(n_machines, workload, config):
    return BaselineRuntime(
        n_machines, workload, mode=ExecutionMode.HARMONY,
        name="harmony-static", config=config,
        policy=harmony_static(config.scheduler))
