"""Traced mode: per-layer self time and counts, with nothing inside ``src/``.

Two instruments, both installed by the benchmark's worker process only when
``--trace 1`` asks for them:

* :class:`Counters` wraps a handful of public functions (by replacing the
  module and class attributes that name them) and counts their calls.
  The wrappers return what the original returns — for the generator
  protocols that is the original generator object — so they add one
  Python call per invocation and no frame to any yield chain.
* :func:`layer_self_times` reads a ``cProfile`` profile and charges each
  function's self time to the ``repro`` package that defines it.  Time in
  builtins, the standard library and numpy is charged to the package of
  its caller (recursively, by caller share), so ``list.sort`` called from
  ``repro.core`` counts as core.  Everything outside the six layers —
  engine glue, the benchmark's own code and these wrappers — is
  ``other``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

#: The repo's modules the traced split reports, in pipeline order.
LAYERS = ("graphs", "rand", "comm", "core", "coloring", "verify")

_HERE = Path(__file__).resolve().parent
_REPRO = _HERE.parent / "src" / "repro"


def _patch(owner: Any, name: str, wrapper: Callable, undo: list) -> None:
    undo.append((owner, name, owner.__dict__[name]))
    setattr(owner, name, wrapper)


def _patch_function(original: Callable, wrapper: Callable, undo: list) -> None:
    """Replace ``original`` in every ``repro`` module that binds it by name."""
    for modname, module in list(sys.modules.items()):
        if modname == "repro" or modname.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    _patch(module, attr, wrapper, undo)


class Counters:
    """Call counts of the wrapped public functions of one traced run."""

    def __init__(self) -> None:
        self.perm_calls = 0
        self.perm_keys: set[tuple[int, int]] = set()
        self.derive_calls = 0
        self.parallel_calls = 0
        self.cover_build_calls = 0
        self.cover_build_s = 0.0
        self.color_sample_calls = 0
        self._undo: list = []

    def install(self) -> None:
        """Wrap the counted functions; :meth:`uninstall` restores them."""
        from repro.comm import transport
        from repro.core import color_sample, cover_colors
        from repro.rand.core import Stream

        undo = self._undo
        permutation = Stream.permutation
        derive = Stream.derive

        def counted_permutation(stream, m):
            perm = permutation(stream, m)
            self.perm_calls += 1
            self.perm_keys.add((perm.key, m))
            return perm

        def counted_derive(stream, *labels):
            self.derive_calls += 1
            return derive(stream, *labels)

        _patch(Stream, "permutation", counted_permutation, undo)
        _patch(Stream, "derive", counted_derive, undo)

        for cls in (transport.Channel, *_subclasses(transport.Channel)):
            if "parallel" in cls.__dict__:
                _patch(cls, "parallel", self._count_parallel(cls.__dict__["parallel"]), undo)

        build_cover_message = cover_colors.build_cover_message

        def timed_cover_build(*args, **kwargs):
            start = time.perf_counter()
            try:
                return build_cover_message(*args, **kwargs)
            finally:
                self.cover_build_s += time.perf_counter() - start
                self.cover_build_calls += 1

        _patch_function(build_cover_message, timed_cover_build, undo)

        color_sample_proto = color_sample.color_sample_proto

        def counted_color_sample(*args, **kwargs):
            self.color_sample_calls += 1
            return color_sample_proto(*args, **kwargs)

        _patch_function(color_sample_proto, counted_color_sample, undo)

    def _count_parallel(self, parallel: Callable) -> Callable:
        def counted_parallel(channel, subprotocols):
            self.parallel_calls += 1
            return parallel(channel, subprotocols)

        return counted_parallel

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


@lru_cache(maxsize=None)
def _file_layer(filename: str) -> str | None:
    """The layer of a source file; None for builtins, stdlib and numpy."""
    if filename == "~":  # builtins
        return None
    path = Path(filename).resolve()
    if path.is_relative_to(_HERE):  # the harness and its wrappers
        return "other"
    try:
        parts = path.relative_to(_REPRO).parts
    except ValueError:
        return None
    name = parts[0] if len(parts) > 1 else Path(parts[0]).stem
    return name if name in LAYERS else "other"


def layer_self_times(stats: dict) -> dict[str, float]:
    """Self seconds per layer (plus ``other``) from ``Profile.stats``.

    ``stats`` maps ``(filename, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers[caller] = (nc, cc, tt, ct)``, the layout
    ``cProfile.Profile.create_stats`` produces.  The values sum to the
    profile's total self time.
    """
    shares_memo: dict[tuple, dict[str, float]] = {}

    def shares(func: tuple, seen: frozenset) -> dict[str, float]:
        # How the time spent in ``func`` divides between the layers.
        layer = _file_layer(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        total = sum(entry[3] for entry in callers.values())
        if func in seen or total <= 0.0:
            return {"other": 1.0}
        out: dict[str, float] = defaultdict(float)
        for caller, entry in callers.items():
            for layer, weight in shares(caller, seen | {func}).items():
                out[layer] += weight * entry[3] / total
        shares_memo[func] = out
        return out

    totals = {layer: 0.0 for layer in (*LAYERS, "other")}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = _file_layer(func[0])
        if layer is not None:
            totals[layer] += tt
            continue
        charged = 0.0
        for caller, entry in callers.items():
            for caller_layer, weight in shares(caller, frozenset({func})).items():
                totals[caller_layer] += weight * entry[2]
            charged += entry[2]
        # Top-level frames (no caller) and rounding go to ``other``.
        totals["other"] += max(tt - charged, 0.0)
    return totals
