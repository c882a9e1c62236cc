"""Deterministic failpoints: named crash/error sites in production code.

A *failpoint* is a named site in a durability-critical code path (the
journal write sequence, the dataset manager's commit protocol, the
scheduler's dispatch loop).  In normal operation every site is a no-op
costing one dictionary lookup.  A test arms a site with a *mode*:

* ``crash`` — terminate the process immediately with
  :data:`CRASH_EXIT_CODE` via :func:`os._exit`, skipping ``atexit``
  handlers, buffered-file flushing and destructors.  This is the closest
  a test can get to ``kill -9`` from inside the victim, and it is what
  the crash-matrix suite uses to prove recovery never resurrects budget.
* ``error`` — raise :class:`FailpointError` at the site, exercising the
  in-process error-handling path (journal write failures must fail
  closed, never open).
* ``hang`` — block at the site for :data:`HANG_SECONDS` (effectively
  forever at test scale).  This is the "process is alive but wedged"
  failure shape that distinguishes liveness detection (heartbeats,
  progress deadlines) from crash detection: a hung shard node keeps its
  TCP connection open and simply stops answering.
* ``slow`` — sleep :data:`SLOW_SECONDS` at the site, then continue
  normally.  Models a degraded-but-correct peer; the distributed suite
  uses it to prove slowness alone never changes released bits.

Sites are armed through the API (:func:`arm`) or, for subprocess tests,
through the :data:`ENV_VAR` environment variable::

    REPRO_FAILPOINTS="journal.append.pre=crash@4,journal.append.post=error"

``@N`` fires the mode on the N-th hit of the site *after arming*
(1-based, default 1); earlier hits pass through untouched, which is how
a test targets "the commit record of the second query" deterministically
(env-armed sites count from process start, API-armed sites from the
:func:`arm` call).  Once fired, a
site stays disarmed (``error`` mode) — a crash obviously never returns.

Determinism is the whole point: the same arming spec against the same
workload fires at exactly the same instruction every run, so the crash
matrix is reproducible, not a flaky race hunt.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.exceptions import GuptError

#: Environment variable holding a comma-separated arming spec.
ENV_VAR = "REPRO_FAILPOINTS"

#: Exit status of a process killed by a ``crash``-mode failpoint; chosen
#: to be distinguishable from Python's own error exits (1) and from
#: signal deaths (negative returncodes under :mod:`subprocess`).
CRASH_EXIT_CODE = 73

#: ``hang`` sleeps this long — far beyond any test's liveness deadline,
#: short enough that an orphaned sleeper cannot outlive a CI job.
HANG_SECONDS = 600.0

#: ``slow`` delays this long, then lets the site proceed normally.
SLOW_SECONDS = 0.25

_MODES = ("crash", "error", "hang", "slow")


class FailpointError(GuptError):
    """Raised at a site armed in ``error`` mode."""

    def __init__(self, site: str):
        self.site = site
        super().__init__(f"failpoint {site!r} fired (injected error)")


class _Failpoint:
    __slots__ = ("site", "mode", "fire_at_count")

    def __init__(self, site: str, mode: str, fire_at_count: int):
        self.site = site
        self.mode = mode
        # Absolute hit count at which the site fires: arming is relative
        # to the hits already recorded, so "fire on my next pass" is
        # always ``fire_on_hit=1`` no matter how much traffic the site
        # saw before the test armed it.
        self.fire_at_count = fire_at_count


_lock = threading.Lock()
_armed: dict[str, _Failpoint] = {}
_hits: dict[str, int] = {}
_env_loaded = False


def _fresh_lock_after_fork() -> None:
    # A forked shard node passes failpoints on every frame; a lock some
    # other parent thread held at the fork would never be released.
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_after_fork)


def _load_env_locked() -> None:
    global _env_loaded
    if _env_loaded:
        return
    _env_loaded = True
    spec = os.environ.get(ENV_VAR, "").strip()
    if not spec:
        return
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        site, _, mode_spec = clause.partition("=")
        _arm_locked(site.strip(), mode_spec.strip())


def _arm_locked(site: str, mode_spec: str) -> None:
    mode, _, nth = mode_spec.partition("@")
    fire_on_hit = int(nth) if nth else 1
    if not site or mode not in _MODES or fire_on_hit < 1:
        raise GuptError(
            f"bad failpoint spec {site!r}={mode_spec!r} "
            f"(expected site=crash|error|hang|slow[@N], N >= 1)"
        )
    _armed[site] = _Failpoint(site, mode, _hits.get(site, 0) + fire_on_hit)


def arm(site: str, mode: str, fire_on_hit: int = 1) -> None:
    """Arm ``site`` to fire ``mode`` on its ``fire_on_hit``-th hit from now."""
    with _lock:
        _load_env_locked()
        _arm_locked(site, f"{mode}@{fire_on_hit}")


def disarm(site: str) -> None:
    """Disarm one site (its hit counter is kept)."""
    with _lock:
        _armed.pop(site, None)


def reset() -> None:
    """Disarm every site and zero all hit counters (test teardown)."""
    global _env_loaded
    with _lock:
        _armed.clear()
        _hits.clear()
        # Re-read the environment on next use so tests that mutate
        # os.environ around subprocess helpers stay hermetic.
        _env_loaded = False


def is_armed(site: str) -> bool:
    """Whether ``site`` is armed at all (it may fire on a later hit).

    Write paths that need *cooperative* failure shapes — the journal's
    torn-record split write — check this to set the stage before calling
    :func:`hit`; the check must stay cheap enough to sit on a hot path.
    """
    with _lock:
        _load_env_locked()
        return site in _armed


def hit_count(site: str) -> int:
    """How many times ``site`` has been hit since the last :func:`reset`."""
    with _lock:
        return _hits.get(site, 0)


def hit(site: str) -> None:
    """Mark one pass through ``site``, firing its armed mode if due."""
    with _lock:
        _load_env_locked()
        point = _armed.get(site)
        count = _hits.get(site, 0) + 1
        _hits[site] = count
        if point is None or count != point.fire_at_count:
            return
        del _armed[site]
        mode = point.mode
    if mode == "crash":
        _crash(site)
    if mode == "hang":
        time.sleep(HANG_SECONDS)
        return
    if mode == "slow":
        time.sleep(SLOW_SECONDS)
        return
    raise FailpointError(site)


def _crash(site: str) -> None:
    # Mimic SIGKILL as closely as possible from inside the process: no
    # atexit, no finally blocks, no buffered-file flushing.  Whatever the
    # journal managed to push past its own flush() survives in the OS
    # page cache; everything else is lost — exactly the torn states the
    # recovery path must tolerate.
    try:
        sys.stderr.write(f"failpoint {site!r}: crashing (os._exit)\n")
        sys.stderr.flush()
    except Exception:  # pragma: no cover - stderr may already be gone
        pass
    os._exit(CRASH_EXIT_CODE)
