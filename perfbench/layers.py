"""Timing shims installed from outside the simulator.

A :class:`LayerTimer` replaces public entry points of the layer objects a
``SystemSimulator`` or ``ExperimentExecutor`` owns with wrappers that
count calls and accumulate *self* time: a span's duration minus the
time its nested shimmed spans took.  Spans are grouped by the outermost
shimmed call they run under (``sim.run``, ``sim.build``, ...), so the
self times of everything under ``sim.run`` plus ``sim.run``'s own self
time add up to the inclusive ``run()`` time by construction.  That sum
is an identity, not a check; the coverage check in ``run.py`` compares
the shimmed ``run()`` time with a clock read around the call instead,
and requires every entry point to have been patched.

Shims patch classes, never instances, and :meth:`LayerTimer.restore`
puts the originals back.  Nothing under ``src/`` is edited and the
program's own tracer/timeline/invariant hooks stay off, so the traced
run keeps the TLB-hit fast path.
"""

import time

#: (attribute path on a built simulator, method, span name).  A span
#: name's first component is its layer.
SIM_ENTRY_POINTS = (
    ("cores.0.tlb", "lookup", "mmu.tlb_lookup"),
    ("cores.0.tlb", "fill", "mmu.tlb_fill"),
    ("cores.0.walker", "plan", "mmu.walk_plan"),
    ("cores.0.walker", "complete", "mmu.walk_complete"),
    ("cores.0.mmu_caches", "lookup", "mmu.mmu_cache_lookup"),
    ("cores.0.address_space", "handle_fault", "vm.handle_fault"),
    ("cores.0.address_space", "ensure_mapped", "vm.ensure_mapped"),
    ("engine", "build_prefetch", "core.build_prefetch"),
    ("hierarchy", "access", "cache.access"),
    ("hierarchy", "fill_from_memory", "cache.fill_from_memory"),
    ("hierarchy", "prefetch_fill_llc", "cache.prefetch_fill_llc"),
    ("hierarchy", "drain_writebacks", "cache.drain_writebacks"),
    ("controller", "submit_and_wait", "sched.submit_and_wait"),
    ("controller", "submit_async", "sched.submit_async"),
    ("controller", "submit_writeback", "sched.submit_writeback"),
    ("controller", "drain_all", "sched.drain_all"),
    ("controller.scheduler", "pick", "sched.pick"),
    ("controller.device", "access", "dram.access"),
    ("controller.device", "classify", "dram.classify"),
)

#: Layers whose host time is attributed inside ``SystemSimulator.run``;
#: ``common`` is the ``StatGroup.counter`` shim.
SIM_LAYERS = ("mmu", "vm", "core", "cache", "sched", "dram", "common")


def _resolve(obj, path):
    for part in path.split("."):
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    return obj


class LayerTimer:
    """Call counts and self times per (root span, span name)."""

    def __init__(self):
        #: (root, name) -> [calls, self_seconds]
        self.spans = {}
        #: root name -> inclusive seconds of its outermost calls
        self.roots = {}
        self._stack = []
        self._undo = []
        self._patched = set()
        #: span names patched at some point (kept across :meth:`restore`)
        self.installed = set()

    def wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        roots = self.roots
        clock = time.perf_counter

        def shim(*args, **kwargs):
            # frame = [root name, seconds spent in nested shimmed spans]
            frame = [stack[0][0] if stack else name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (frame[0], name)
                entry = spans.get(key)
                if entry is None:
                    entry = spans[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    roots[name] = roots.get(name, 0.0) + elapsed

        shim.__wrapped__ = fn
        return shim

    def patch(self, owner, attr, name):
        """Replace ``owner.attr`` (a class or module attribute) once."""
        if (owner, attr) in self._patched:
            return
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original))
        self.installed.add(name)
        self._patched.add((owner, attr))
        self._undo.append((owner, attr, original))

    def attach(self, simulator):
        """Shim the classes of the layer objects *simulator* owns.

        Called after construction and before ``run()``: the single-core
        driver binds hot methods to locals when ``run()`` starts, so a
        class patched here is what those locals resolve to.
        """
        for path, method, name in SIM_ENTRY_POINTS:
            target = _resolve(simulator, path)
            if target is not None:
                self.patch(type(target), method, name)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._patched.clear()

    def under(self, root):
        """``{name: (calls, self_seconds)}`` for spans run under *root*,
        excluding the root span itself."""
        return {
            name: (calls, seconds)
            for (span_root, name), (calls, seconds) in self.spans.items()
            if span_root == root and name != root
        }
