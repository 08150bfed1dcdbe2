"""One set-up measurement, run in a fresh interpreter by run.py.

Times importing loopverify, then loading and validating every input file
of one round, and prints the seconds. Usage:
    python3 perfbench/probe.py ROOT INPUTS.json
where INPUTS.json holds "ops", a list of [domain, controller or null,
scenario or null] paths relative to ROOT, one per op of the round.
"""

import json
import os
import sys
from time import perf_counter


def main() -> int:
    start = perf_counter()
    root, listing = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(root, "src"))
    os.chdir(root)
    import loopverify

    with open(listing, encoding="utf-8") as handle:
        files = json.load(handle)
    for domain_path, controller_path, scenario_path in files["ops"]:
        domain = loopverify.load_domain(domain_path)
        if controller_path:
            controller = loopverify.load_controller(controller_path)
            defects = loopverify.validate(controller, domain)
            if defects:
                raise SystemExit(f"{controller_path}: {defects}")
        if scenario_path:
            loopverify.load_scenario(scenario_path)
    print(perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
