"""Command-line front end: run, validate, and sweep scenario configs.

Exit codes: 0 success, 2 config problems, 3 physics guard tripped,
4 filesystem trouble.  Guard failures name the guard class so scripts
can branch on the reason without parsing prose.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import SCENARIOS, ConfigError, dumps, load_config
from .errors import SimulationError
from .grid import set_fft_workers
from .scenarios import run_scenario

logger = logging.getLogger("ramanvortex")

EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_IO = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("config", help="path to a JSON scenario config")
    parser.add_argument("-o", "--output-dir", default=None,
                        help="override the config's output directory")
    parser.add_argument("--threads", type=_positive_int, default=1,
                        metavar="N",
                        help="FFT worker threads (default 1; summaries are "
                             "bit-identical only single-threaded)")
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("-v", "--verbose", action="store_true",
                           help="log relaxation and time-of-flight records")
    verbosity.add_argument("-q", "--quiet", action="store_true",
                           help="only report errors")


def _configure_logging(args):
    if getattr(args, "quiet", False):
        level = logging.ERROR
    elif getattr(args, "verbose", False):
        level = logging.DEBUG
    else:
        level = logging.INFO
    logging.basicConfig(level=level, format="%(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramanvortex",
        description="deterministic two-photon vortex-transfer simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario config to completion")
    _add_common(run)

    validate = sub.add_parser(
        "validate", help="check a config and print the fully-defaulted echo")
    validate.add_argument("config", help="path to a JSON scenario config")
    validate.add_argument("-q", "--quiet", action="store_true",
                          help="suppress the echo, keep the exit code")

    sweep = sub.add_parser(
        "sweep", help="run the detuning sweep described by a config")
    _add_common(sweep)
    return parser


def _load(path: str) -> dict:
    try:
        return load_config(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except ConfigError as exc:
        for problem in exc.problems:
            print(problem, file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _run_checked(config: dict, output_dir: str | None):
    try:
        return run_scenario(config, output_dir=output_dir)
    except SimulationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_GUARD)
    except OSError as exc:
        print(f"output failed: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def cmd_run(args) -> int:
    _configure_logging(args)
    set_fft_workers(args.threads)
    config = _load(args.config)
    result = _run_checked(config, args.output_dir)
    if not args.quiet:
        print(f"wrote {len(result.artifacts)} artifacts to "
              f"{result.output_dir}")
    return 0


def cmd_validate(args) -> int:
    config = _load(args.config)
    if not args.quiet:
        sys.stdout.write(dumps(config))
    return 0


def cmd_sweep(args) -> int:
    _configure_logging(args)
    set_fft_workers(args.threads)
    config = _load(args.config)
    if config["scenario"] != "resonance_sweep":
        print(f"sweep needs a resonance_sweep config, got "
              f"{config['scenario']!r} (choices: {', '.join(SCENARIOS)})",
              file=sys.stderr)
        return EXIT_CONFIG
    result = _run_checked(config, args.output_dir)
    if not args.quiet:
        print(f"swept {result.summary['n_points']} detunings; peak transfer "
              f"{result.summary['peak_transfer']:.4f} at "
              f"{result.summary['peak_detuning_recoils']:g} recoils")
        print(f"wrote {len(result.artifacts)} artifacts to "
              f"{result.output_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "validate": cmd_validate, "sweep": cmd_sweep}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
