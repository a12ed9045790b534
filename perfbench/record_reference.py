"""Record reference.json: every workload's spectra at the default seed.

Run from the root of a checkout of the commit whose numbers are the
reference:

    python3 perfbench/record_reference.py

For each workload it stores the spectra divided by the seed's scale
factor, which run.py compares (up to roundoff) with every run's spectra
divided by that run's factor, and the sha256 of sigma.csv at the
default seed, which run.py reports as byte-identical or not.
"""
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sobosvd.experiment import ExperimentConfig, run_experiment  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS, make_inputs  # noqa: E402


def main() -> None:
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, w in WORKLOADS.items():
            inputs = make_inputs(w, DEFAULT_SEED, Path(tmp) / name)
            config = ExperimentConfig.from_dict(inputs.config, base_dir=inputs.base_dir)
            result = run_experiment(config, edge_cases=w.edge_cases)
            if not result.passed:
                raise SystemExit(f"{name}: the run does not pass, refusing to record it")
            out[name] = {
                "seed": DEFAULT_SEED,
                "scale": inputs.scale,
                "sigma_csv_sha256": hashlib.sha256(result.sigma_path.read_bytes()).hexdigest(),
                "sigmas": [
                    [s / inputs.scale for s in entry["sigmas"]]
                    for entry in result.report["spectra"]
                ],
            }
            print(f"{name}: recorded {sum(len(s) for s in out[name]['sigmas'])} sigmas")
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    main()
