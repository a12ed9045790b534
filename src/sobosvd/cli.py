"""Command line front end.

BLAS libraries freeze their thread pools when numpy first loads, so the
thread count is pinned into the environment here before any numerical
import happens; the heavy modules are imported inside the handlers.
"""

from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobosvd",
        description=(
            "Decompose sampled functions with quadrature-weighted SVD and "
            "check the Sobolev error identities and bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run = sub.add_parser("run", help="run the experiment described by a JSON config")
    run.add_argument("--config", required=True, help="path to the JSON config")
    run.add_argument("--out", help="output directory, overrides the config")
    run.add_argument("--threads", type=int, help="BLAS thread count")

    verify = sub.add_parser(
        "verify", help="run every applicable check on a catalog case"
    )
    verify.add_argument("--case", required=True, help="catalog case name")
    verify.add_argument(
        "--n",
        required=True,
        help="grid sizes, comma separated; a single value is used for every mode",
    )
    verify.add_argument("--out", help="optional output directory")
    verify.add_argument("--threads", type=int, help="BLAS thread count")

    sub.add_parser("list-cases", help="list the analytic catalog cases")
    return parser


def _pin_threads(flag: int | None) -> None:
    """Resolve the thread count; SOBOSVD_THREADS beats the flag."""
    env = os.environ.get("SOBOSVD_THREADS")
    count = None
    if env is not None and env.strip() != "":
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"SOBOSVD_THREADS={env!r} is not an integer") from None
    elif flag is not None:
        count = flag
    if count is None:
        return
    if count < 1:
        raise ValueError(f"thread count must be at least 1, got {count}")
    os.environ["SOBOSVD_THREADS"] = str(count)
    for var in _THREAD_VARS:
        os.environ[var] = str(count)


def _parse_sizes(text: str):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        from .errors import ConfigError

        raise ConfigError(f"--n expects comma-separated integers, got {text!r}") from None


def _cmd_run(args) -> int:
    from .experiment import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_file(args.config)
    result = run_experiment(config, out_dir=args.out, log=print)
    if result.report_path is not None:
        print(f"report: {result.report_path}")
        print(f"spectrum: {result.sigma_path}")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    sizes = _parse_sizes(args.n)
    from .experiment import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_dict({"function": {"case": args.case}, "grid": {"n": sizes}})
    result = run_experiment(config, out_dir=args.out, edge_cases=True, log=print)
    if result.report_path is not None:
        print(f"report: {result.report_path}")
    print("verify: all checks passed" if result.passed else "verify: FAILED")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def _cmd_list_cases() -> int:
    from .cases import list_cases

    for name, summary in list_cases():
        print(f"{name:<10} {summary}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        _pin_threads(getattr(args, "threads", None))
    except ValueError as exc:
        print(f"sobosvd: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    from .errors import ConfigError, SobosvdError

    # the first class that matches gives the exit code; a SampleFileError is an OSError
    exit_codes = ((ConfigError, EXIT_CONFIG), (OSError, EXIT_IO), (SobosvdError, EXIT_CHECK_FAILED))
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_list_cases()
    except (SobosvdError, OSError) as exc:
        print(f"sobosvd: {exc}", file=sys.stderr)
        return next(code for kind, code in exit_codes if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
