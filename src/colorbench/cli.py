"""colorbench command line: gen | run | compare.

Exit codes: 0 ok, 1 audit failure, 2 usage error (a refused trace update
included), which names the trace line at fault and leaves no output file.

A trace header's ``n=`` sizes the graph only up to ``HEADER_N_MAX``
vertices, so that a header alone cannot drive a multi-gigabyte allocation;
a larger graph needs ``--n``, which overrides the header.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, contextmanager
from typing import Iterator, List, Optional, TextIO

from . import harness
from .errors import ColorbenchError, InputError, InvalidSpec
from .hierarchy import BOTTOM_LEVEL, DEFAULT_BETA

# The largest vertex count a trace header may set without --n: every engine
# keeps a few containers per vertex, some hundreds of bytes in all.
HEADER_N_MAX = 1_000_000


def _add_shape_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="vertex count")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--delta", type=int, help="fixed degree bound")
    group.add_argument(
        "--adaptive",
        action="store_true",
        help="no degree bound; engines use degree-tracking palettes",
    )
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="colorbench",
        description="dynamic graph coloring engines and trace benchmarks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a trace file")
    _add_shape_args(g)
    g.add_argument("--ops", type=int, required=True, help="number of updates")
    g.add_argument("--mode", choices=harness.MODES, default="uniform-random")
    g.add_argument("--out", help="trace path (default stdout)")

    r = sub.add_parser("run", help="replay a trace through one engine")
    r.add_argument("--trace", required=True, help="trace file path")
    r.add_argument("--engine", choices=harness.ENGINES, required=True)
    _add_shape_args(r)
    r.add_argument("--beta", type=float, default=DEFAULT_BETA, help="hierarchy growth base")
    r.add_argument("--audit-every", type=int, default=1000)
    r.add_argument("--metrics-out", help="per-update CSV path")
    r.add_argument("--audit-out", help="JSON-lines audit log path")

    c = sub.add_parser("compare", help="replay a trace through several engines")
    c.add_argument("--trace", required=True)
    c.add_argument(
        "--engine",
        action="append",
        choices=harness.ENGINES,
        dest="engines",
        help="repeatable; default: all applicable",
    )
    _add_shape_args(c)
    c.add_argument("--beta", type=float, default=DEFAULT_BETA)
    c.add_argument("--audit-every", type=int, default=0)
    return p


def _header_int(meta, key: str) -> int:
    try:
        return int(meta[key])
    except ValueError:
        raise InvalidSpec(f"trace header {key}={meta[key]} is not an integer") from None


def _resolve_shape(args, meta) -> tuple[int, Optional[int], int]:
    """Merge --n/--delta/--adaptive with any trace header metadata."""
    n = args.n
    if n is None and "n" in meta:
        n = _header_int(meta, "n")
        if n > HEADER_N_MAX:
            raise InvalidSpec(
                f"trace header n={n} is above {HEADER_N_MAX}: pass --n to replay a graph this large"
            )
    if n is None:
        raise InvalidSpec("vertex count unknown: pass --n or use a trace header")
    if args.adaptive:
        delta = None
    elif args.delta is not None:
        delta = args.delta
    elif meta.get("delta") == "adaptive":
        delta = None
    elif "delta" in meta:
        delta = _header_int(meta, "delta")
    else:
        raise InvalidSpec("degree bound unknown: pass --delta or --adaptive")
    for name, value in (("n", n), ("delta", delta), ("audit-every", args.audit_every)):
        if value is not None and value < 0:
            raise InvalidSpec(f"{name} must be nonnegative, got {value}")
    # the engine seed is independent of the trace's generation seed
    return n, delta, args.seed


@contextmanager
def _open_outputs(*paths: Optional[str]) -> Iterator[List[Optional[TextIO]]]:
    """Open every given path for writing. If an open fails, or the block
    raises a usage error, remove every file opened and re-raise."""
    files: List[Optional[TextIO]] = []
    with ExitStack() as stack:
        try:
            for path in paths:
                files.append(stack.enter_context(open(path, "w", encoding="utf-8")) if path else None)
            yield files
        except (InputError, OSError):
            stack.close()
            for name in {f.name for f in files if f is not None}:
                os.remove(name)
            raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    text = None
    try:
        if args.command == "gen":
            if args.n is None or (args.delta is None and not args.adaptive):
                raise InvalidSpec("gen needs --n and --delta or --adaptive")
            spec = harness.TraceSpec(
                n=args.n,
                delta=None if args.adaptive else args.delta,
                op_count=args.ops,
                seed=args.seed,
                mode=args.mode,
            )
            text = harness.format_trace(harness.generate(spec), spec)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as f:
                    f.write(text)
            else:
                sys.stdout.write(text)
            return 0

        with open(args.trace, "r", encoding="utf-8") as f:
            text = f.read()
        events, meta = harness.parse_trace(text)
        n, delta, seed = _resolve_shape(args, meta)

        if args.command == "run":
            with _open_outputs(args.metrics_out, args.audit_out) as (metrics, audits):
                res = harness.run(
                    events,
                    args.engine,
                    n,
                    delta,
                    seed=seed,
                    beta=args.beta,
                    audit_every=args.audit_every,
                    metrics_out=metrics,
                    audit_out=audits,
                )
            if res.exit_code:
                print(f"AUDIT FAILURE after {res.updates} updates: "
                      f"{', '.join(res.failed_checks)}", file=sys.stderr)
            else:
                line = f"ok: {res.updates} updates, totals {res.totals}"
                if args.engine == "rand-vc":
                    hier = res.engine_obj.hier
                    line += (f", hierarchy {'dormant' if hier.dormant else 'active'}, "
                             f"max level {max(hier.level, default=BOTTOM_LEVEL)}")
                print(line)
            return res.exit_code

        # compare
        engines = args.engines or [
            e for e in harness.ENGINES if not (e == "det-vc" and delta is None)
        ]
        rows, code = harness.compare(
            events, engines, n, delta, seed=seed, beta=args.beta,
            audit_every=args.audit_every,
        )
        print(harness.render_table(rows))
        return code
    except (InputError, OSError) as exc:
        # bad invocation or a trace the target graph cannot legally replay
        message = str(exc)
        update = getattr(exc, "update", None)
        if update is not None and text is not None:
            # the trace's update lines, as parse_trace reads them
            lines = [i for i, raw in enumerate(text.splitlines(), 1)
                     if raw.strip() and not raw.lstrip().startswith("#")]
            message = f"line {lines[update - 1]}: {exc.args[0]}"
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ColorbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
