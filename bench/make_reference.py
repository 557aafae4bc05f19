"""Write the reference report.json files the benchmark's correctness gate uses.

    python3 bench/make_reference.py

Runs each workload once in-process (theta-scan32 at every candidate angle)
and stores each report.json under bench/reference/<workload>/<name>.json.
Regenerate only when a change is meant to move a residual, and say so.
"""

import os
import shutil
import sys
import tempfile

import workloads


def main():
    cli = workloads.import_package()
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=workloads.WORK_DIR)
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make_workload(name, 1, os.path.join(workdir, name), cli)
            if name == "theta-scan32":
                wl.steps = workloads.theta_scan_steps(wl.workdir, range(workloads.SCAN_THETAS))
                wl.configs = {s.config: cli.parse_config(s.config) for s in wl.steps}
            result = workloads.run_inprocess_pass(wl, workloads.fresh_dir(wl, "out"), cli)
            if not result.ok:
                sys.exit(f"{name}: {result.error}")
            os.makedirs(os.path.join(workloads.REFERENCE_DIR, name), exist_ok=True)
            for ref, data in result.reports.items():
                with open(workloads.reference_path(name, ref), "wb") as fh:
                    fh.write(data)
                print(f"wrote {os.path.relpath(workloads.reference_path(name, ref))}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
