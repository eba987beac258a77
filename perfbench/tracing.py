"""Span and count wrappers around cassoc's public entry points.

``Tracer.install`` replaces each listed function or method with a wrapper
that records one span per call, and ``Tracer.uninstall`` puts the originals
back.  Nothing under ``src/`` is edited: a module-level function is replaced
in every loaded cassoc module that holds it, so calls made inside the package
(``solve_degreewise`` calling ``residual_15b``, ``zeta`` calling ``bernoulli``)
are seen too.

Per entry point the tracer keeps ``calls``; ``busy_s``, the time at least one
call of it was running (a recursive call is not counted twice); and
``self_s``, its spans' time minus the time covered by their child spans.
Self times of all entry points partition the traced time, so their sum plus
the time spent outside every span is the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # name -> [calls, busy_s, self_s]
        self._stack: list = []  # open spans: [name, start, child_s]
        self._depth: dict = {}  # name -> open spans of that name
        self._restore: list = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn, observe):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        depth = self._depth
        depth[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            depth[name] += 1
            frame[1] = start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += dur - frame[2]
                if not depth[name]:
                    stats[1] += dur
                if stack:
                    stack[-1][2] += dur
            if observe is not None:
                observe(args, result, dur)
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (owner, attribute, name, observe) with owner a module or
        class; ``observe(args, result, seconds)`` runs after each call."""
        modules = [m for k, m in sys.modules.items() if k == "cassoc" or k.startswith("cassoc.")]
        for owner, attr, name, observe in targets:
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, observe)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def report(self) -> dict:
        return {
            name: {"calls": calls, "busy_s": busy, "self_s": self_s}
            for name, (calls, busy, self_s) in self.stats.items()
        }
