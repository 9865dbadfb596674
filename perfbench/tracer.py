"""Outside-in tracing of phonorm's layers.

The tracer wraps library functions at the binding their caller looks up
(for example ``phonorm.pipeline.best_match_pruned``, the name the pipeline
calls), so the library itself is never edited. Three kinds of wrapper exist:

* span: a record (name, layer, start, end, parent, word id) is kept in memory;
* leaf: timed and counted but not recorded one by one, for calls that happen
  many times per word (LSTM steps, character encoding);
* counter: counted only, for the per-DP-call boundaries of the matcher.

A layer's self time is the time inside its spans and leaves minus the part
covered by their children, so the self times of all layers add up to the
time spent inside the outermost spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    word: int  # per-word id shared by every span of one word, -1 outside a word


@dataclass
class _Frame:
    span_index: int
    word: int
    child_s: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    seen_words: set[str] = field(default_factory=set)
    _stack: list[_Frame] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _next_word: int = 0

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str, new_word: bool = False):
        """Record one span; with new_word, it and its children get a fresh word id."""
        if new_word:
            word = self._next_word
            self._next_word += 1
        else:
            word = self._stack[-1].word if self._stack else -1
        parent = self._stack[-1].span_index if self._stack else -1
        record = Span(name, layer, _clock(), 0.0, parent, word)
        self.spans.append(record)
        frame = _Frame(len(self.spans) - 1, word)
        self._stack.append(frame)
        try:
            yield
        except BaseException:
            self.counters[f"{name}.raised"] += 1
            raise
        finally:
            record.end = _clock()
            self._stack.pop()
            elapsed = record.end - record.start
            self.self_s[layer] += elapsed - frame.child_s
            self.counters[f"{name}.self_s"] += elapsed - frame.child_s
            self.counters[f"{name}.calls"] += 1
            self.counters[f"{name}.s"] += elapsed
            if self._stack:
                self._stack[-1].child_s += elapsed

    def _leaf(self, name: str, layer: str, fn: Callable, args, kwargs):
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            self.self_s[layer] += elapsed
            self.counters[f"{name}.calls"] += 1
            self.counters[f"{name}.s"] += elapsed
            if self._stack:
                self._stack[-1].child_s += elapsed

    # -- installing wrappers --------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            print(f"perfbench: cannot trace {label}: no such binding", file=sys.stderr)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap_span(
        self,
        owner,
        attr: str,
        name: str,
        layer: str,
        new_word: bool = False,
        observe: Callable | None = None,
    ) -> None:
        """Record a span per call; observe(args, kwargs, result) may update counters."""

        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name, layer, new_word):
                    result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def wrap_leaf(self, owner, attr: str, name: str, layer: str) -> None:
        """Time and count each call without keeping a span record."""

        def make(fn):
            def wrapper(*args, **kwargs):
                return self._leaf(name, layer, fn, args, kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def wrap_counter(self, owner, attr: str, count: Callable) -> None:
        """Count each call with count(args, kwargs); nothing is timed."""

        def make(fn):
            def wrapper(*args, **kwargs):
                count(args, kwargs)
                return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every wrapped binding, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tlayer\tstart\tend\tparent\tword\n")
            for index, s in enumerate(self.spans):
                fh.write(f"{index}\t{s.name}\t{s.layer}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.word}\n")
