"""The benchmark's workloads (standard library only, so the launcher can
read them without importing the program)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "gp" | "dp" | "job"
    suite: str           # registry entry of repro.workloads
    scale: float
    #: The legal HPWL may be at most this multiple of the HPWL of the
    #: generator's reference layout (measured ratios are in README.md).
    reference_limit: float
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("gp-bigblue4-11k", "gp", "bigblue4_s", 0.5, 1.1,
                 "global placement at 11k cells with fixed macros: "
                 "projection, B2B assembly and CG carry the run"),
        Workload("dp-newblue1-3k", "dp", "newblue1_s", 1.0, 1.1,
                 "detailed placement of a fixed input, the costliest layer "
                 "of the default flow, with no global placement in front"),
        Workload("job-adaptec5-5k", "job", "adaptec5_s", 0.6, 1.3,
                 "the serve job body: supervised placement with tracer, "
                 "metrics, doctor and report, at a low density target"),
    )
}
