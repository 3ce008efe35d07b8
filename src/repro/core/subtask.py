"""Subtasks: the fine-grained scheduling unit of §IV-A.

"We decompose long-running worker tasks into smaller subtasks, each of
which uses a single dominant type of a resource.  COMP subtasks use CPU
resources while PULL and PUSH subtasks use network resources."

Decomposition requires no user code changes: the PS push/pull calls are
COMM subtasks and the remainder is the COMP subtask — implemented for
the real (threaded) runtime in :mod:`repro.core.local_runtime` and for
the simulated runtime in :mod:`repro.core.group_runtime`.
"""

from __future__ import annotations

import enum


class SubTaskKind(enum.Enum):
    """PULL / COMP / PUSH — the three steps of one iteration (Fig. 1).

    COMM subtasks (PULL/PUSH) use the network; COMP uses the CPU.
    """

    PULL = "pull"
    COMP = "comp"
    PUSH = "push"
