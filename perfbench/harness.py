"""Runs one CLI invocation in process, under a timeout, and checks its report."""

from __future__ import annotations

import contextlib
import io
import json
import signal
import time
from dataclasses import dataclass


class Timeout(BaseException):
    """Raised by SIGALRM.  A BaseException, so the CLI's own handlers for
    ValueError and friends cannot swallow it."""


def _on_alarm(signum, frame):
    raise Timeout()


def timed_call(fn, timeout_s):
    """Run fn() on the main thread under a real-time alarm.  Returns
    (elapsed seconds, result, error), where error is None, a Timeout, or the
    exception fn raised."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    result = error = elapsed = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (Timeout, Exception) as exc:  # one failing call must not end the run
        error = exc
    finally:
        signal.signal(signal.SIGALRM, previous)
    if elapsed is None:
        elapsed = time.perf_counter() - start
    return elapsed, result, error


@dataclass
class Outcome:
    seconds: float
    problem: str | None  # None when the report matched its constructed answer
    scale: float = 1.0  # reference seconds per wall second; see speed.py

    @property
    def reference_s(self):
        return self.seconds * self.scale


class Harness:
    def __init__(self, cli, workdir, timeout_s):
        self.cli = cli
        self.workdir = workdir
        self.timeout_s = timeout_s

    def invoke(self, case) -> Outcome:
        paths = []
        for i, doc in enumerate(case.docs):
            path = self.workdir / f"doc{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        argv = [arg.format(*paths) for arg in case.argv]
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return self.cli.main(argv)
                except SystemExit as exc:  # argparse rejects a command line this way
                    return exc.code

        seconds, code, error = timed_call(call, self.timeout_s)
        if isinstance(error, Timeout):
            return Outcome(seconds, f"timeout after {self.timeout_s} s")
        if error is not None:
            return Outcome(seconds, f"crash: {type(error).__name__}: {error}")
        if code != 0:
            return Outcome(seconds, f"exit code {code}: {err.getvalue().strip()[:300]}")
        try:
            problems = case.check(json.loads(out.getvalue()), case.expect)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"malformed report: {type(exc).__name__}: {exc}"]
        return Outcome(seconds, "; ".join(problems)[:500] if problems else None)
