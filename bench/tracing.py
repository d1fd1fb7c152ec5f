"""In-memory spans around the public functions of each ``coposos`` layer.

The tracer wraps functions from outside the library: ``install`` replaces
every module attribute (and class attribute) bound to a traced function with
a wrapper, so names imported with ``from ... import ...`` -- for example
``coposos.relax.solve`` and ``coposos.cones.solve`` -- are wrapped where they
are bound, and ``uninstall`` puts the originals back.

Each span records a name, start, end, parent span and the benchmark call it
belongs to.  A layer's self time is the sum over its spans of the span's
duration minus the part covered by child spans.  Counts (rows, iterations,
statuses, certificate reports) are taken at the same boundaries from the
public objects passed in and returned.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

from coposos.sdpcore import SdpStatus

# layer name -> (module, attribute) of every public function it covers
LAYERS = {
    "polycore.lift": [
        ("coposos.polycore", "polya_lift"),
        ("coposos.polycore", "quartic_form"),
        ("coposos.polycore", "quadratic_form"),
        ("coposos.polycore", "coeff_norm"),
    ],
    "polycore.psd_exact": [("coposos.polycore", "is_psd_exact")],
    "sdpcore.builder": [("coposos.sdpcore", "SdpBuilder.add_row"),
                        ("coposos.sdpcore", "SdpBuilder.build")],
    "sdpcore.solve": [("coposos.sdpcore", "solve")],
    "cones.build": [
        ("coposos.cones", "build_membership"),
        ("coposos.cones", "build_K_membership"),
        ("coposos.cones", "build_Q_membership"),
    ],
    "cones.decide": [("coposos.cones", "decide_membership")],
    "cones.validate": [("coposos.cones", "validate_certificate")],
    "relax.assemble": [("coposos.relax", "build_relaxation_sdp")],
    "relax.extract": [("coposos.relax", "extract_certificates")],
    "relax.bounded": [("coposos.relax", "to_bounded")],
    "apps.program": [
        ("coposos.apps", "stability_qp_matrix"),
        ("coposos.apps", "chromatic_program"),
        ("coposos.apps", "product_graph"),
    ],
}

# per-layer self-time metric -> the layer it sums
SELF_TIME_METRICS = {
    "polycore.lift_s": "polycore.lift",
    "polycore.psd_exact_s": "polycore.psd_exact",
    "sdpcore.builder_s": "sdpcore.builder",
    "sdpcore.solve_s": "sdpcore.solve",
    "cones.build_s": "cones.build",
    "cones.decide_s": "cones.decide",
    "cones.validate_s": "cones.validate",
    "relax.assemble_s": "relax.assemble",
    "relax.extract_s": "relax.extract",
    "relax.bounded_s": "relax.bounded",
    "apps.program_s": "apps.program",
}
STATUS_METRICS = [f"sdpcore.status.{s.value}" for s in SdpStatus]
COUNT_UNITS = {
    "polycore.lift_calls": "count",
    "sdpcore.rows": "count",
    "sdpcore.cols": "count",
    "sdpcore.nnz": "count",
    "sdpcore.psd_blocks": "count",
    "sdpcore.a_bytes": "bytes_computed",
    "sdpcore.iterations": "count",
    "sdpcore.block_iterations": "count",
    "sdpcore.schur_flops": "flop_computed",
    **{name: "count" for name in STATUS_METRICS},
    "cones.validate_calls": "count",
}


@dataclass
class Span:
    ident: int
    name: str
    parent: int | None
    call: str
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by child spans and by counting hooks

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _count_build(counts, args, kwargs, sdp) -> None:
    m, dim = sdp.A.shape
    counts["sdpcore.rows"] += m
    counts["sdpcore.cols"] += dim
    counts["sdpcore.nnz"] += int(np.count_nonzero(sdp.A))
    counts["sdpcore.psd_blocks"] += sum(blk.kind == "psd" for blk in sdp.blocks)
    counts["sdpcore.a_bytes"] += m * dim * 8


def _count_solve(counts, args, kwargs, sol) -> None:
    sdp = args[0] if args else kwargs["sdp"]
    m, dim = sdp.A.shape
    it = int(sol.iterations)
    counts["sdpcore.iterations"] += it
    counts["sdpcore.block_iterations"] += it * sum(blk.kind == "psd" for blk in sdp.blocks)
    # Schur complement per iteration: row scaling m^2 * dim, Cholesky m^3 / 3
    counts["sdpcore.schur_flops"] += it * (m * m * dim + m**3 // 3)
    counts[f"sdpcore.status.{sol.status.value}"] += 1


def _count_validate(counts, args, kwargs, report) -> None:
    counts["cones.validate_calls"] += 1
    counts["cones.validate_ok"] += int(bool(report.ok))


def _count_lift(counts, args, kwargs, result) -> None:
    counts["polycore.lift_calls"] += 1


HOOKS = {
    ("coposos.sdpcore", "SdpBuilder.build"): _count_build,
    ("coposos.sdpcore", "solve"): _count_solve,
    ("coposos.cones", "validate_certificate"): _count_validate,
    **{target: _count_lift for target in LAYERS["polycore.lift"]},
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNT_UNITS, 0)
        self.counts["cones.validate_ok"] = 0
        self.call = ""
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), layer, None if parent is None else parent.ident,
                        self.call, perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            if parent is not None:
                parent.child += perf_counter() - span.start
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded coposos modules."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "coposos" or name.startswith("coposos.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr = _resolve(*target)
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, HOOKS.get(target))
                if isinstance(owner, type):  # a method: one binding, on its class
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def fired(self) -> set[str]:
        return {span.name for span in self.spans}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for everything recorded, as name -> (value, unit)."""
        self_time = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            self_time[span.name] += span.self_time
        out = {name: (self_time[layer], "s") for name, layer in SELF_TIME_METRICS.items()}
        out.update({name: (self.counts[name], unit) for name, unit in COUNT_UNITS.items()})
        calls = self.counts["cones.validate_calls"]
        ok = self.counts["cones.validate_ok"] / calls if calls else 0.0
        out["cones.cert_ok_ratio"] = (ok, "ratio")
        return out

    def span_records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
