"""Visualise bus activity from the observability trace (ASCII timeline).

Traces the ``tpwire`` category of a Figure 6 validation run and renders
the TpWIRE frame activity as density strips — the quick-look
post-processing an NS-2 user would do on a trace file.

Run:  python examples/bus_activity_timeline.py
"""

from repro.analysis.timeline import activity_timeline, event_summary
from repro.cosim import ValidationScenario
from repro.obs import Observability


def main():
    obs = Observability(trace_categories={"tpwire"})
    result = ValidationScenario(cbr_rate=4.0, obs=obs).run(12)

    events = obs.tracer.events
    end = result.elapsed_seconds
    print(f"traced {len(events)} events over {end:.2f} s of simulated "
          f"time ({result.total_frames} TpWIRE frames)\n")

    print("bus frame activity (64 buckets):")
    for name in ("tx", "rx"):
        print(" ", activity_timeline(
            events, 0.0, end, buckets=64, names=[name], label=name,
        ))

    summary = event_summary(events)
    print("\nevent summary (cat, name) -> count:")
    for (cat, name), count in sorted(summary["by_cat_name"].items()):
        print(f"  ({cat}, {name:3s}) -> {count}")


if __name__ == "__main__":
    main()
