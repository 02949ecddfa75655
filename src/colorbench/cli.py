"""colorbench command line: gen | run | compare.

Exit codes: 0 ok, 1 audit failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from typing import List, Optional, TextIO

from . import harness
from .errors import (
    ColorbenchError,
    DegreeBoundExceeded,
    DuplicateEdge,
    InvalidSpec,
    MissingEdge,
    SelfLoop,
    TraceParseError,
    UnknownVertex,
)


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
    r.add_argument("--beta", type=float, default=21.0, help="hierarchy growth base")
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
    c.add_argument("--beta", type=float, default=21.0)
    c.add_argument("--audit-every", type=int, default=0)
    return p


def _resolve_shape(args, meta) -> tuple[int, Optional[int], int]:
    """Merge --n/--delta/--adaptive with any trace header metadata."""
    n = args.n
    if n is None and "n" in meta:
        n = int(meta["n"])
    if n is None:
        raise InvalidSpec("vertex count unknown: pass --n or use a trace header")
    if args.adaptive:
        delta = None
    elif args.delta is not None:
        delta = args.delta
    elif meta.get("delta") == "adaptive":
        delta = None
    elif "delta" in meta:
        delta = int(meta["delta"])
    else:
        raise InvalidSpec("degree bound unknown: pass --delta or --adaptive")
    # the engine seed is independent of the trace's generation seed
    return n, delta, args.seed


def _open_outputs(stack: ExitStack, *paths: Optional[str]) -> List[Optional[TextIO]]:
    """Open every given path for writing on ``stack``, or leave none behind."""
    files: List[Optional[TextIO]] = []
    try:
        for path in paths:
            files.append(stack.enter_context(open(path, "w", encoding="utf-8")) if path else None)
    except OSError:
        stack.close()
        for f in files:
            if f is not None:
                os.remove(f.name)
        raise
    return files


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        harness.check_vertex_ids(events, n, text)

        if args.command == "run":
            with ExitStack() as stack:
                metrics, audits = _open_outputs(stack, args.metrics_out, args.audit_out)
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
                print(f"ok: {res.updates} updates, totals {res.totals}")
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
    except (
        InvalidSpec,
        TraceParseError,
        OSError,
        DuplicateEdge,
        MissingEdge,
        DegreeBoundExceeded,
        SelfLoop,
        UnknownVertex,
    ) as exc:
        # bad invocation or a trace the target graph cannot legally replay
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ColorbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
