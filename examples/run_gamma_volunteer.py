"""Run Gamma standalone, the way a study volunteer would.

Usage::

    python examples/run_gamma_volunteer.py [CC]

Demonstrates the measurement suite itself (section 3 of the paper):
target-list delivery, the volunteer's own settings (OS and opt-outs),
the C1/C2/C3 components in one session, OS-specific traceroute
normalisation, and the JSON dataset the volunteer would mail back.
"""

import json
import sys
import tempfile
from pathlib import Path

from repro import GammaSuite, build_scenario


def main() -> None:
    args = sys.argv[1:]
    country = args[0] if args else "TH"

    scenario = build_scenario()
    volunteer = scenario.volunteers[country]
    targets = scenario.targets[country]
    print(f"Volunteer {volunteer.name} in {volunteer.city.key} "
          f"({volunteer.os_name}, IP {volunteer.ip})")
    print(f"Target list: {len(targets.regional)} regional + "
          f"{len(targets.government)} government sites")
    if volunteer.opted_out_sites:
        print(f"Volunteer opted out of {len(volunteer.opted_out_sites)} site(s): "
              f"{', '.join(sorted(volunteer.opted_out_sites))}")
    if volunteer.traceroute_opt_out:
        print("Volunteer opted out of traceroute probes (C3 disabled)")

    # The browser session comes from the scenario; OS and opt-outs from
    # the volunteer.
    suite = GammaSuite(scenario.world, scenario.catalog, scenario.browser_config)
    dataset = suite.run(volunteer, targets)

    counts = dataset.traceroute_counts()
    print(f"\nDataset: {dataset.loaded_count}/{dataset.attempted_count} sites loaded "
          f"({dataset.load_success_pct():.0f}%), "
          f"{counts['attempted']} traceroutes ({counts['reached']} reached)")

    sample = next((m for m in dataset.websites.values() if m.traceroutes), None)
    if sample is not None:
        ip, trace = next(iter(sample.traceroutes.items()))
        print(f"\nNormalised traceroute record for {ip} "
              f"(produced by '{trace.tool}' on {volunteer.os_name}):")
        print(json.dumps(trace.to_dict(), indent=2)[:600], "...")

    out_path = Path(tempfile.gettempdir()) / f"gamma-{country}-dataset.json"
    out_path.write_text(dataset.to_json(), encoding="utf-8")
    print(f"\nFull dataset written to {out_path} "
          f"({out_path.stat().st_size // 1024} KiB)")


if __name__ == "__main__":
    main()
