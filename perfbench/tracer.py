"""Outside-in layer tracing: wrap public functions by patching module
attributes, so calls within a module and across modules both pass through
the wrapper.

Every wrapped call records its inclusive time; a call stack charges each
call's duration to its caller's child time, so a function's self time is its
duration minus the time spent in wrapped functions it called.  Recursive
calls count once in inclusive time (outermost activation only).  All data
stays in memory until `snapshot()`.
"""

from __future__ import annotations

import functools
import time


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "raised", "depth", "counters")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.depth = 0
        self.counters = {}

    def bump(self, counter: str, by=1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict = {}
        self.spans: list = []  # (name, seconds) per call of a function patched with span=True
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name: str, fn, on_result=None, span: bool = False):
        """A wrapper around `fn` recording into the stat `name`; `on_result`
        (stat, result) runs after each call that returned, and with `span`
        every call's duration is also kept in `spans`."""
        st = self.stats.setdefault(name, Stat())
        stack, clock, spans = self._stack, self.clock, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.raised += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - frame[0]
                if st.depth == 0:
                    st.incl_s += dt
                if stack:
                    stack[-1][0] += dt
                if span:
                    spans.append((name, dt))
            if on_result is not None:
                on_result(st, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None, span: bool = False) -> None:
        """Replace `owner.attr` (a module attribute or a dict entry) by its
        traced wrapper; `restore()` puts the original back."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, on_result, span)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, on_result, span))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {
            name: {"calls": st.calls, "incl_s": st.incl_s, "self_s": st.self_s,
                   "raised": st.raised, **st.counters}
            for name, st in self.stats.items()
        }
