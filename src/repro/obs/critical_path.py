"""Critical-path MTP attribution from span trees alone.

The paper's §III-E computes motion-to-photon latency *online* inside the
reprojection component.  With causal tracing the same number -- and its
decomposition -- is recoverable offline from the trace: for every
displayed frame (a finished ``timewarp`` invocation span that reached a
vsync), walk

    timewarp span --async-read link--> fast_pose event
                  --producer span----> integrator invocation
                  --trigger parent---> imu invocation (the sensor root)

and decompose

    mtp = t_imu_age + t_reprojection + t_swap

with ``t_imu_age`` the age of the linked pose's IMU sample when warp
work began, ``t_reprojection`` the invocation span's own duration, and
``t_swap`` the wait from completion to the vsync.  Per-frame values
match :mod:`repro.metrics.mtp` to float precision (the test suite pins
1e-6 s), which is the point: Table IV is reproducible from traces alone,
and unlike the online metric each frame also *names* its slowest edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.metrics.mtp import MtpSample, summarize_mtp
from repro.obs.tracer import Span, SpanLink, Tracer

SEGMENTS = ("imu_age", "reprojection", "swap")


@dataclass(frozen=True)
class FrameCriticalPath:
    """One displayed frame's latency decomposition, derived from spans."""

    frame_time: float            # vsync the frame was released at
    trace_id: int
    span_id: int
    imu_age: float
    reprojection: float
    swap: float
    slowest: str                 # the segment that dominates this frame
    imu_time: Optional[float]    # originating IMU sample timestamp
    linked_to_imu: bool          # lineage walk reached the imu track

    @property
    def total(self) -> float:
        return self.imu_age + self.reprojection + self.swap

    @property
    def total_ms(self) -> float:
        return self.total * 1e3


def _pose_link(span: Span, pose_topic: str) -> Optional[SpanLink]:
    """The *freshest* pose read of the invocation (the one warp used)."""
    links = [l for l in span.links if l.topic == pose_topic]
    if not links:
        return None
    return max(links, key=lambda l: (l.publish_time, l.sequence))


def _reaches_track(tracer: Tracer, link: SpanLink, track: str) -> bool:
    """Does the link's producer chain include a span on ``track``?"""
    if link.context is None:
        return False
    producer = tracer.get(link.context.span_id)
    if producer is None:
        return False
    if producer.track == track:
        return True
    return any(s.track == track for s in tracer.ancestry(producer))


def critical_paths(
    tracer: Tracer,
    timewarp_track: str = "timewarp",
    pose_topic: str = "fast_pose",
    imu_track: str = "imu",
) -> List[FrameCriticalPath]:
    """Decompose every displayed frame in the trace."""
    frames: List[FrameCriticalPath] = []
    for span in tracer.spans:
        if span.kind != "invocation" or span.track != timewarp_track:
            continue
        if span.end is None or "swap_time" not in span.attributes:
            continue
        if span.attributes.get("killed") or span.attributes.get("skipped"):
            continue
        link = _pose_link(span, pose_topic)
        iteration_at = float(span.attributes.get("iteration_at", span.start))
        if link is not None:
            imu_age = max(iteration_at - link.effective_data_time, 0.0)
            imu_time: Optional[float] = link.effective_data_time
            linked = _reaches_track(tracer, link, imu_track)
        else:
            imu_age, imu_time, linked = 0.0, None, False
        reprojection = span.end - span.start
        swap = max(float(span.attributes["swap_time"]) - span.end, 0.0)
        parts = {"imu_age": imu_age, "reprojection": reprojection, "swap": swap}
        frames.append(
            FrameCriticalPath(
                frame_time=float(span.attributes["swap_time"]),
                trace_id=span.trace_id,
                span_id=span.span_id,
                imu_age=imu_age,
                reprojection=reprojection,
                swap=swap,
                slowest=max(parts, key=parts.__getitem__),
                imu_time=imu_time,
                linked_to_imu=linked,
            )
        )
    frames.sort(key=lambda f: f.frame_time)
    return frames


def lineage_fraction(frames: Sequence[FrameCriticalPath]) -> float:
    """Fraction of displayed frames whose lineage reaches an IMU sample."""
    if not frames:
        return 0.0
    return sum(f.linked_to_imu for f in frames) / len(frames)


def decomposition_summary(frames: Sequence[FrameCriticalPath]) -> Dict[str, object]:
    """Table IV from traces alone, plus per-segment attribution."""
    if not frames:
        return {"count": 0}
    n = len(frames)
    mtp = summarize_mtp(
        [MtpSample(f.frame_time, f.imu_age, f.reprojection, f.swap) for f in frames]
    )
    segment_means = {
        seg: sum(getattr(f, seg) for f in frames) / n * 1e3 for seg in SEGMENTS
    }
    slowest_counts = {seg: sum(1 for f in frames if f.slowest == seg) for seg in SEGMENTS}
    return {
        "count": n,
        "mean_ms": mtp.mean_ms,
        "std_ms": mtp.std_ms,
        "p99_ms": mtp.p99_ms,
        "max_ms": mtp.max_ms,
        "segment_mean_ms": segment_means,
        "slowest_edge_counts": slowest_counts,
        "slowest_edge": max(slowest_counts, key=slowest_counts.__getitem__),
        "linked_fraction": lineage_fraction(frames),
    }


def render_report(frames: Sequence[FrameCriticalPath], limit: int = 12) -> str:
    """A plain-text critical-path report (the analysis CLI's payload)."""
    summary = decomposition_summary(frames)
    if not summary.get("count"):
        return "critical path: no displayed frames in trace"
    lines = [
        "Critical-path MTP attribution (from trace spans)",
        f"  frames: {summary['count']}   linked to IMU: {summary['linked_fraction']:.1%}",
        "  mtp mean {mean_ms:6.2f} ms   std {std_ms:5.2f}   p99 {p99_ms:6.2f}   max {max_ms:6.2f}".format(**summary),
        "  segment means: "
        + "   ".join(f"{s} {summary['segment_mean_ms'][s]:.2f} ms" for s in SEGMENTS),
        "  slowest edge per frame: "
        + "   ".join(f"{s}: {summary['slowest_edge_counts'][s]}" for s in SEGMENTS)
        + f"   (dominant: {summary['slowest_edge']})",
        "",
        f"  {'frame_t':>9s} {'total':>8s} {'imu_age':>8s} {'reproj':>8s} {'swap':>8s}  slowest",
    ]
    shown = list(frames)[:limit]
    for f in shown:
        lines.append(
            f"  {f.frame_time:9.4f} {f.total_ms:8.3f} {f.imu_age * 1e3:8.3f} "
            f"{f.reprojection * 1e3:8.3f} {f.swap * 1e3:8.3f}  {f.slowest}"
        )
    if len(frames) > limit:
        lines.append(f"  ... {len(frames) - limit} more frames")
    return "\n".join(lines)
