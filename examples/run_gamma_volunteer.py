"""Run Gamma standalone, the way a study volunteer would.

Usage::

    python examples/run_gamma_volunteer.py [CC] [--resume]

Demonstrates the measurement suite itself (section 3 of the paper):
target-list delivery, the C1/C2/C3 components, checkpoint/resume after
an "interruption", OS-specific traceroute normalisation, and the JSON
dataset the volunteer would mail back.
"""

import json
import sys
import tempfile
from pathlib import Path

from repro import GammaConfig, GammaSuite, build_scenario
from repro.core.gamma.checkpoint import Checkpoint


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    country = args[0] if args else "TH"

    scenario = build_scenario()
    volunteer = scenario.volunteers[country]
    targets = scenario.targets[country].without(sorted(volunteer.opted_out_sites))
    print(f"Volunteer {volunteer.name} in {volunteer.city.key} "
          f"({volunteer.os_name}, IP {volunteer.ip})")
    print(f"Target list: {len(targets.regional)} regional + "
          f"{len(targets.government)} government sites")
    if volunteer.opted_out_sites:
        print(f"Volunteer opted out of {len(volunteer.opted_out_sites)} site(s)")
    if volunteer.traceroute_opt_out:
        print("Volunteer opted out of traceroute probes (C3 disabled)")

    suite = GammaSuite(
        scenario.world,
        scenario.catalog,
        GammaConfig.study_defaults(os_name=volunteer.os_name),
        browser_config=scenario.browser_config,
    )

    checkpoint_path = Path(tempfile.gettempdir()) / f"gamma-{country}.ckpt.json"
    checkpoint_path.unlink(missing_ok=True)
    checkpoint = Checkpoint.load(checkpoint_path)

    # First session: measure the first 10 sites, then simulate the
    # volunteer stopping for the day.
    first_batch = targets.without(targets.all_sites[10:])
    print("\n-- session 1 (interrupted after 10 sites) --")
    suite.run(volunteer, first_batch, checkpoint=checkpoint,
              progress=lambda url, m: print(f"  {url}: "
                                            f"{'ok' if m.loaded else m.failure_reason}, "
                                            f"{len(m.requested_hosts)} hosts, "
                                            f"{len(m.traceroutes)} traceroutes"))

    # Second session: Gamma resumes exactly where it stopped.
    print("\n-- session 2 (resumed) --")
    resumed = Checkpoint.load(checkpoint_path)
    revisited = []
    dataset = suite.run(volunteer, targets, checkpoint=resumed,
                        progress=lambda url, m: revisited.append(url))
    print(f"  resumed run visited {len(revisited)} remaining sites "
          f"(skipped {len(resumed.completed) - len(revisited)} already-done)")

    counts = dataset.traceroute_counts()
    print(f"\nDataset: {dataset.loaded_count}/{dataset.attempted_count} sites loaded "
          f"({dataset.load_success_pct():.0f}%), "
          f"{counts['attempted']} traceroutes ({counts['reached']} reached)")

    sample_url = next(u for u, m in dataset.websites.items() if m.traceroutes)
    sample = dataset.websites[sample_url]
    ip, trace = next(iter(sample.traceroutes.items()))
    print(f"\nNormalised traceroute record for {ip} "
          f"(produced by '{trace.tool}' on {volunteer.os_name}):")
    print(json.dumps(trace.to_dict(), indent=2)[:600], "...")

    out_path = Path(tempfile.gettempdir()) / f"gamma-{country}-dataset.json"
    out_path.write_text(dataset.to_json(), encoding="utf-8")
    print(f"\nFull dataset written to {out_path} "
          f"({out_path.stat().st_size // 1024} KiB)")
    checkpoint_path.unlink(missing_ok=True)


if __name__ == "__main__":
    main()
