"""Spans around ``ptosc``'s public functions, recorded from outside the program.

``Tracer.install`` replaces each named function with a timing wrapper
wherever a ``ptosc`` module references it (module globals and, for methods,
the class attribute), and ``uninstall`` puts the originals back.  Each thread
keeps its own span stack; spans opened by a thread with an empty stack (the
``sweep`` worker) count as children of the open root span of the main
thread.  A span's self time is its duration minus the part of it that its
children cover.

A target that no longer exists is recorded as absent with a reason, so a
later rename or deletion shows up as a missing metric instead of a crash.
"""

import importlib
import sys
import threading
import time

# (layer key, module, attribute or Class.method).  Several targets may share
# a key; nested calls within one key count once, at the outermost call.
TARGETS = (
    ("cli.main", "ptosc.cli", "main"),
    ("cli.analytic_pattern", "ptosc.cli", "analytic_pattern"),
    ("verify.run_full_suite", "ptosc.verify", "run_full_suite"),
    ("verify.realize", "ptosc.verify", "realize"),
    ("linalg.eig_oracle", "ptosc.linalg", "eig_oracle"),
    ("models.eigensystem", "ptosc.models", "sfdm_eigensystem"),
    ("models.eigensystem", "ptosc.models", "h8v_reduced_eigensystem"),
    ("models.eigensystem", "ptosc.models", "h8v_p0_eigensystem"),
    ("models.eigensystem", "ptosc.models", "h8r_p0_eigensystem"),
    ("models.eigensystem", "ptosc.models", "pt_orthonormal_eigensystem"),
    ("models.hamiltonian", "ptosc.models", "model_hamiltonian"),
    ("models.hamiltonian", "ptosc.models", "model_full_hamiltonian"),
    ("models.hamiltonian", "ptosc.models", "sfdm_hamiltonian"),
    ("models.hamiltonian", "ptosc.models", "generic_t_odd_hamiltonian"),
    ("models.hamiltonian", "ptosc.models", "h8_hamiltonian"),
    ("models.hamiltonian", "ptosc.models", "h8v_reduced_hamiltonian"),
    ("symmetry.pairs", "ptosc.symmetry", "canonical_pair"),
    ("symmetry.pairs", "ptosc.symmetry", "dirac_pair"),
    ("symmetry.pairs", "ptosc.symmetry", "block_pair"),
    ("coperator.build_C", "ptosc.coperator", "build_C"),
    ("coperator.C_at", "ptosc.coperator", "COperator.at"),
    ("coperator.completeness_defect", "ptosc.coperator", "completeness_defect"),
    ("inner.cpt_ip", "ptosc.inner", "cpt_ip"),
    ("inner.cpt_ip_momentum", "ptosc.inner", "cpt_ip_momentum"),
    ("inner.superpose", "ptosc.inner", "superpose"),
    ("oscillate.standard_flavour_basis", "ptosc.oscillate", "standard_flavour_basis"),
    ("oscillate.transition_table", "ptosc.oscillate", "transition_table"),
    ("oscillate.to_csv", "ptosc.oscillate", "TransitionTable.to_csv"),
    ("oscillate.to_json_dict", "ptosc.oscillate", "TransitionTable.to_json_dict"),
    ("io.matrix_from_json", "ptosc.io", "matrix_from_json"),
)

ROOT_KEY = "cli.main"


def _skipped_checks(args, result) -> dict:
    return {"checks_skipped": sum(1 for r in result if r.note.startswith("skipped"))}


def _table_points(args, result) -> dict:
    return {"points": len(args[4]) if len(args) > 4 else 0}


def _text_bytes(args, result) -> dict:
    return {"bytes": len(result.encode())}


# extra per-call counters derived from arguments and results
COUNTERS = {
    "verify.run_full_suite": _skipped_checks,
    "oscillate.transition_table": _table_points,
    "oscillate.to_csv": _text_bytes,
}


class _Frame:
    __slots__ = ("key", "start", "children", "counted")

    def __init__(self, key, start, counted):
        self.key = key
        self.start = start
        self.children = []
        self.counted = counted


def _covered(children, start, end) -> float:
    """Length of the union of child intervals, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, cursor), min(c1, end)
        if c1 > c0:
            total += c1 - c0
            cursor = c1
    return total


class Tracer:
    """Per-key totals of spans: calls, inclusive seconds, self seconds, counters."""

    def __init__(self, keep_spans: bool = False):
        self.absent: dict[str, str] = {}
        self.totals: dict[str, dict] = {}
        self.spans: list | None = [] if keep_spans else None
        self._patches: list = []
        self._local = threading.local()
        self._root: _Frame | None = None
        self._lock = threading.Lock()
        self._resolve()

    # -- installation ------------------------------------------------------

    def _resolve(self):
        self._targets = []
        for key, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.absent.setdefault(key, f"module {module_name} not importable: {exc}")
                continue
            owner, name = module, attr
            if "." in attr:
                cls_name, name = attr.split(".", 1)
                owner = getattr(module, cls_name, None)
                if owner is None:
                    self.absent.setdefault(key, f"{module_name}.{cls_name} not found")
                    continue
            original = owner.__dict__.get(name)
            if original is None:
                self.absent.setdefault(key, f"{module_name}.{attr} not found")
                continue
            self._targets.append((key, owner, name, original))

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "ptosc" or n.startswith("ptosc.")]
        for key, owner, name, original in self._targets:
            wrapper = self._wrap(key, original)
            if isinstance(owner, type):
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key, fn):
        counter = COUNTERS.get(key)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            counted = all(frame.key != key for frame in stack)
            parent = stack[-1] if stack else tracer._root
            frame = _Frame(key, clock(), counted)
            stack.append(frame)
            is_root = key == ROOT_KEY and parent is None
            if is_root:
                tracer._root = frame
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_root:
                    tracer._root = None
                if parent is not None:
                    parent.children.append((frame.start, end))
                tracer._record(frame, end)
            if counter is not None and counted:
                tracer._count(key, counter(args, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _entry(self, key) -> dict:
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        return entry

    def _record(self, frame, end):
        if not frame.counted:
            return
        duration = end - frame.start
        own = duration - _covered(frame.children, frame.start, end)
        with self._lock:
            entry = self._entry(frame.key)
            entry["calls"] += 1
            entry["seconds"] += duration
            entry["self_seconds"] += own
            if self.spans is not None:
                self.spans.append((frame.key, threading.get_ident(), frame.start, end, own))

    def _count(self, key, extra: dict):
        with self._lock:
            entry = self._entry(key)
            for name, value in extra.items():
                entry[name] = entry.get(name, 0) + value

    def take(self) -> dict:
        """Totals since the last take, then reset them."""
        with self._lock:
            totals, self.totals = self.totals, {}
        return totals
