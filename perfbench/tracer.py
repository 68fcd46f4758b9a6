"""Outside-in tracer: spans around calls into quadprimes' public functions.

The package is not edited.  install() wraps every public function defined
in a quadprimes module and rebinds the wrapper under each name that refers
to the original in any loaded quadprimes module, so `from .arith import
sieve_window` in scan, lemmas and cli is traced too.  A function captured
before install() runs (such as lemmas._group, an lru_cache around
build_character_group) keeps calling the original: its time lands in the
self time of the traced caller.

Spans are kept in memory as [name, parent, start, end, args] and written
out once, when the traced invocation ends.  Each thread has its own stack
of open spans, so a call made on a worker thread has no parent there.
Calls made in other processes leave no spans.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from functools import wraps

# Arguments recorded for the layers whose counters need them.
RECORDED_ARGS = {
    "arith.sieve_window": ("lo", "hi"),
    "scan.progression_sums": ("t", "delta", "K"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.hooked: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, name: str, fn):
        spans, local, lock, clock = self.spans, self._local, self._lock, time.perf_counter
        recorded = RECORDED_ARGS.get(name)
        signature = inspect.signature(fn) if recorded else None

        @wraps(fn)
        def traced(*args, **kwargs):
            args_seen = None
            if recorded:
                bound = signature.bind(*args, **kwargs).arguments
                args_seen = [bound.get(a) for a in recorded]
            stack = local.__dict__.setdefault("stack", [])
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, args_seen]
            with lock:
                stack.append(len(spans))
                spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "quadprimes" or n.startswith("quadprimes."))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                    self.hooked.append(f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
