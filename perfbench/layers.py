"""Outside-in layer tracing: spans around each layer's public entry points.

:class:`LayerTracer` replaces the entry points listed in :data:`LAYERS`
with wrappers that record a span (layer, start, end, parent, cell) and
accumulate each layer's call count and self time, which is span duration
minus the time its child spans cover.  Nothing in the program changes;
:meth:`LayerTracer.uninstall` puts every original attribute back.

Rules the wrappers follow:

- One thread runs everything, so spans nest strictly and a stack of open
  frames gives each span its parent.
- A call into a layer from inside the same layer opens no span (``put``
  calling ``deliver``, a supervisor method calling another), so ``calls``
  counts entries into the layer.
- Subscriber callbacks get spans of their own, so ``Topic.put`` self time
  excludes them: the scheduler's topic drivers count as ``core.scheduler``
  and every other callback as ``core.switchboard.callbacks``.
- Module-level functions are patched in their defining module and in each
  module that imported them by name (:data:`NAME_IMPORTS`).
- Helpers called ~15k times per simulated second (the quaternion functions,
  ``np.linalg.norm``) get no span; their cost lands in the caller's self
  time.

Self times include the tracer's own cost for the caller's child spans, so
the traced run is slower than the untraced one; the worker reports that
overhead next to the layer split.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# (layer, module, class or None for module-level functions, entry points).
# A class given as ``None`` for its entry points means "every public method".
LAYERS: Tuple[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]], ...] = (
    ("core.scheduler", "repro.sim.engine", "Engine", ("step",)),
    ("sim.engine", "repro.sim.engine", "Engine", ("timeout", "process", "call_later", "event")),
    ("sim.resources", "repro.sim.resources", "Resource", ("request", "release", "cancel")),
    ("core.switchboard.put", "repro.core.switchboard", "Topic", ("put", "deliver")),
    ("core.switchboard.read", "repro.core.switchboard", "Topic", ("get_latest", "get_latest_before")),
    ("core.switchboard.read", "repro.core.switchboard", "SyncReader", ("drain", "pop")),
    ("core.records", "repro.core.records", "RecordLogger", ("log", "log_drop")),
    ("hardware.timing", "repro.hardware.timing", "TimingModel", ("sample",)),
    ("maths.splines", "repro.maths.splines", "TrajectorySpline", ("sample",)),
    ("plugins.camera", "repro.plugins.perception", "CameraPlugin", ("iteration",)),
    ("plugins.imu", "repro.plugins.perception", "ImuPlugin", ("iteration",)),
    ("plugins.vio", "repro.plugins.perception", "VioPlugin", ("iteration",)),
    ("plugins.integrator", "repro.plugins.perception", "IntegratorPlugin", ("iteration",)),
    ("plugins.application", "repro.plugins.visual", "ApplicationPlugin", ("iteration",)),
    ("plugins.timewarp", "repro.plugins.visual", "TimewarpPlugin", ("iteration", "on_complete")),
    ("plugins.audio_encoding", "repro.plugins.audio", "AudioEncodingPlugin", ("iteration",)),
    ("plugins.audio_playback", "repro.plugins.audio", "AudioPlaybackPlugin", ("iteration",)),
    ("perception.integrator", "repro.perception.integrator", "Rk4Integrator", ("step",)),
    ("perception.vio.imu", "repro.perception.vio.msckf", "Msckf", ("process_imu",)),
    ("perception.vio.frame", "repro.perception.vio.msckf", "Msckf", ("process_frame",)),
    ("sensors.imu", "repro.sensors.imu", "ImuModel", ("sample_at",)),
    ("sensors.camera", "repro.sensors.camera", "StereoCamera", ("observe",)),
    ("audio.encoding", "repro.audio.encoding", "AudioEncoder", ("encode_next_block",)),
    ("audio.playback", "repro.audio.playback", "AudioPlayback", ("render_block",)),
    ("visual.renderer", "repro.visual.renderer", "Renderer", ("view_complexity", "render")),
    (
        "obs.publish",
        "repro.obs.observability",
        "Observability",
        ("publish_context", "on_publish", "on_read", "on_injector_drop"),
    ),
    (
        "obs.invocation",
        "repro.obs.observability",
        "Observability",
        (
            "begin_invocation",
            "end_invocation",
            "note_attempt",
            "on_attempt_error",
            "on_scheduler_drop",
            "annotate",
            "record_mtp",
        ),
    ),
    (
        "resilience.injector",
        "repro.resilience.faults",
        "FaultPlan",
        ("on_publish", "check_crash", "stall_time", "clock_skew"),
    ),
    ("resilience.supervisor", "repro.resilience.supervisor", "RuntimeSupervisor", None),
    ("visual.hologram", "repro.visual.hologram", "WeightedGerchbergSaxton", ("solve",)),
    (
        "visual.reprojection",
        "repro.visual.reprojection",
        None,
        ("rotational_reproject", "translational_reproject"),
    ),
    ("perception.reconstruction.tsdf", "repro.perception.reconstruction.tsdf", "TsdfVolume", ("integrate",)),
    (
        "perception.reconstruction.frame",
        "repro.perception.reconstruction.pipeline",
        "ReconstructionPipeline",
        ("process_frame",),
    ),
    ("perception.eye_tracking", "repro.perception.eye_tracking", "EyeTracker", ("train", "predict")),
    ("metrics.image", "repro.metrics.ssim", None, ("ssim",)),
    ("metrics.image", "repro.metrics.flip", None, ("one_minus_flip",)),
)

# Module-level entry points that other modules imported by name: the
# wrapper must replace the name where each caller looks it up.
NAME_IMPORTS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("repro.visual.reprojection", "rotational_reproject"): ("repro.metrics.qoe", "repro.visual"),
    ("repro.visual.reprojection", "translational_reproject"): ("repro.metrics.qoe", "repro.visual"),
    ("repro.metrics.ssim", "ssim"): ("repro.metrics.qoe", "repro.metrics"),
    ("repro.metrics.flip", "one_minus_flip"): ("repro.metrics.qoe", "repro.metrics"),
}

CALLBACKS = "core.switchboard.callbacks"
STANDALONE = "analysis.standalone"

# Layer groups for the layer-map check: which workloads may call them.
OBS_RESILIENCE = ("obs.", "resilience.")
ALGORITHMS = ("perception.", "sensors.", "audio.")
KERNELS = (
    "visual.hologram",
    "visual.reprojection",
    "perception.reconstruction.tsdf",
    "perception.reconstruction.frame",
    "perception.eye_tracking",
    "metrics.image",
)


def layer_names(steps: Sequence[str] = ()) -> List[str]:
    """Every layer the tracer reports, in table order."""
    names: List[str] = []
    for layer, *_ in LAYERS:
        if layer not in names:
            names.append(layer)
    names.append(CALLBACKS)
    names += [f"{STANDALONE}.{step}" for step in steps]
    return names


def _public_methods(owner: type) -> Tuple[str, ...]:
    return tuple(
        name
        for name, value in vars(owner).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


class LayerTracer:
    """Span recorder plus the patches that feed it.

    ``calls[i]`` and ``self_ns[i]`` accumulate per layer ``names[i]``
    while the tracer is active (inside :meth:`timed`).  Spans are kept in
    ``spans`` (flattened int64 rows of :data:`SPAN_FIELDS`) only while
    ``keep_spans`` is true.
    """

    SPAN_FIELDS = ("span_id", "layer", "start_ns", "end_ns", "parent_id", "cell")

    def __init__(self, steps: Sequence[str] = ()) -> None:
        self.names = layer_names(steps)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        # Spans per entry point ("Engine.step", ...), finer than layers.
        self.entries: List[str] = []
        self.entry_calls: List[int] = []
        self.skipped = 0  # plugin iterations that returned skipped results
        self.spans = array("q")
        self.keep_spans = True
        self.active = False
        self.cell = -1
        self.wall_ns = 0
        self.residual_ns = 0
        # Open frames: [child_ns, span_id, layer]; the root stands for
        # "outside every span".
        self._stack: List[List[int]] = [[0, -1, -1]]
        self._next_id = 0
        self._patches: List[Tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], layer: str, count_skipped: bool = False) -> Callable[..., Any]:
        """``fn`` with a span of ``layer`` around each call."""
        index = self._index[layer]
        entry_name = getattr(fn, "__qualname__", repr(fn))
        if entry_name not in self.entries:
            self.entries.append(entry_name)
            self.entry_calls.append(0)
        entry = self.entries.index(entry_name)
        entry_calls = self.entry_calls
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            if not tracer.active or parent[2] == index:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [0, span_id, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count_skipped and result is not None and result.skipped:
                    tracer.skipped += 1
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_ns[index] += elapsed - frame[0]
                calls[index] += 1
                entry_calls[entry] += 1
                parent[0] += elapsed
                if tracer.keep_spans:
                    tracer.spans.extend((span_id, index, start, end, parent[1], tracer.cell))

        return span

    def timed(self, cell: int, fn: Callable[..., Any], *args: Any) -> Tuple[Any, int]:
        """Run ``fn(*args)`` as traced cell ``cell``; returns (value, wall ns).

        The wall time is split exactly into the self time of the spans
        opened inside and the residual outside any span.
        """
        root = self._stack[0]
        root[0] = 0
        self.cell = cell
        self.active = True
        start = time.perf_counter_ns()
        try:
            value = fn(*args)
        finally:
            wall = time.perf_counter_ns() - start
            self.active = False
        self.wall_ns += wall
        self.residual_ns += wall - root[0]
        return value, wall

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        self._patches.append((owner, name, had, vars(owner).get(name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Replace every entry point of :data:`LAYERS` with its wrapper."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        try:
            for layer, module_name, owner_name, attributes in LAYERS:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                for name in attributes or _public_methods(owner):
                    fn = vars(owner)[name]
                    wrapper = self.wrap(fn, layer, count_skipped=layer.startswith("plugins."))
                    self._patch(owner, name, wrapper)
                    for importer in NAME_IMPORTS.get((module_name, name), ()):
                        self._patch(importlib.import_module(importer), name, wrapper)
            self._patch_callbacks()
        except BaseException:
            self.uninstall()
            raise

    def _patch_callbacks(self) -> None:
        from repro.core.switchboard import Topic

        subscribe = Topic.subscribe_callback
        tracer = self

        @functools.wraps(subscribe)
        def subscribe_callback(topic, callback):
            module = getattr(callback, "__module__", "")
            layer = "core.scheduler" if module == "repro.core.scheduler" else CALLBACKS
            return subscribe(topic, tracer.wrap(callback, layer))

        self._patch(Topic, "subscribe_callback", subscribe_callback)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, had, original = self._patches.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def patched_attributes(self) -> List[Tuple[Any, str]]:
        """(owner, name) of every attribute currently replaced."""
        return [(owner, name) for owner, name, _had, _original in self._patches]

    # ------------------------------------------------------------------

    def span_table(self):
        """The kept spans as an (n, 6) int64 array of :data:`SPAN_FIELDS`."""
        import numpy as np

        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(self.SPAN_FIELDS))


def layer_map_violations(workload: str, calls: Dict[str, float]) -> List[str]:
    """Where the traced calls contradict the layer map of the README."""
    violations = []
    for layer, count in sorted(calls.items()):
        if not count:
            continue
        if layer.startswith(OBS_RESILIENCE) and workload != "obs-chaos":
            violations.append(f"{layer} has calls outside obs-chaos")
        if layer.startswith(ALGORITHMS) and workload == "model-grid":
            violations.append(f"{layer} has calls in model-grid")
        if layer in KERNELS and workload != "characterize":
            violations.append(f"kernel layer {layer} has calls outside characterize")
    return violations
