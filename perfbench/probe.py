"""Fresh-process probe, started by run.py.

Times ``import sobosvd.experiment`` in a new interpreter, the set-up
every command-line call pays. Given a JSON run spec as its argument, it
then runs that experiment once and reports the process's peak RSS.
Prints one JSON object.
"""
import sys
import time

t0 = time.perf_counter()
import sobosvd.experiment as experiment  # noqa: E402

import_s = time.perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402

out = {"import_s": import_s}
if len(sys.argv) > 1:
    spec = json.loads(sys.argv[1])
    config = experiment.ExperimentConfig.from_dict(spec["config"], base_dir=spec["base_dir"])
    result = experiment.run_experiment(
        config, out_dir=spec["out_dir"], edge_cases=spec["edge_cases"]
    )
    out["report"] = str(result.report_path)
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(out))
