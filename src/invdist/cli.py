"""Command-line front end: single distances and verification suites with
machine-readable reports (JSON, or CSV for suites that produce table rows).

Exit codes: 0 success (verify: zero violations), 1 suite violations,
2 parse/usage errors, 3 unsupported domain or operation, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import _np as np

from . import distances as ds
from .domains import CnDomain, _json_canonical, domain_from_json
from .errors import (
    BranchViolation,
    DegenerateInput,
    DomainViolation,
    NoFiniteConstant,
    NonConvergence,
    SchemaError,
    UnsupportedDomain,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NONCONVERGENCE = 4


def _parse_point(text: str, domain):
    """Parse 'a+bi' on a planar domain, or on a C^n domain a JSON array of
    such literals with one per coordinate."""
    from .domains import _parse_complex

    text = text.strip()
    if not isinstance(domain, CnDomain):
        if text.startswith("["):
            raise SchemaError("planar domains take one 'a+bi' literal, not a vector")
        return _parse_complex(text)
    if not text.startswith("["):
        raise SchemaError("C^n domains need vector points, e.g. '[\"0.5+0i\",\"0+0i\"]'")
    try:
        items = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid vector literal: {exc}") from exc
    if len(items) != domain.dim:
        raise SchemaError(f"a point of this domain has {domain.dim} coordinates, got {len(items)}")
    return np.asarray([_parse_complex(t) for t in items], dtype=complex)


def _emit(doc: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(doc)
            if not doc.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(doc if doc.endswith("\n") else doc + "\n")


def cmd_dist(args) -> int:
    domain = domain_from_json(args.domain)
    z = _parse_point(args.z, domain)
    w = _parse_point(args.w, domain)
    if args.kind == "carath":
        val = ds.caratheodory(domain, z, w)
    elif args.kind == "lempert":
        val = ds.lempert(domain, z, w)
    else:
        from .bergman import bergman_distance

        val = bergman_distance(domain, z, w)
    if not (math.isfinite(val.lo) and math.isfinite(val.hi)):
        raise NonConvergence(f"{args.kind} distance is not finite "
                             f"(lo={val.lo!r}, hi={val.hi!r})")
    doc = {
        "schema": 1,
        "kind": args.kind,
        "value": val.to_json(),
        "d_z": domain.boundary_distance(z),
        "d_w": domain.boundary_distance(w),
    }
    _emit(_json_canonical(doc), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import bounds as bd

    domain = domain_from_json(args.domain) if args.domain else None
    rep = bd.run_suite(args.suite, samples=args.samples, seed=args.seed, domain=domain)
    if args.format == "csv" and rep.rows:
        _emit(rep.to_csv(), args.out)
    else:
        _emit(rep.to_json(include_runtime=args.timing), args.out)
    return EXIT_OK if rep.passed else EXIT_VIOLATIONS


class _SuiteNames:
    """The sorted names of bounds.SUITES, as `--suite` choices that load the
    suites only when argparse reads them: on a `verify` command."""

    def __iter__(self):
        from .bounds import SUITES

        return iter(sorted(SUITES))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="invdist",
        description="Invariant distances on model domains and their boundary-estimate suites.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="compute one distance")
    d.add_argument("--domain", required=True, help="domain description JSON")
    d.add_argument("--kind", choices=("carath", "lempert", "bergman"), required=True)
    d.add_argument("--z", required=True)
    d.add_argument("--w", required=True)
    d.add_argument("--out", default=None, help="output path (default stdout)")
    d.set_defaults(fn=cmd_dist)

    v = sub.add_parser("verify", help="run a verification suite")
    # choices set after add_argument, whose metavar check would read them
    v.add_argument("--suite", required=True).choices = _SuiteNames()
    v.add_argument("--domain", help="domain description JSON replacing the suite's default "
                                    "(exit 3 if the suite cannot use that kind)")
    v.add_argument("--samples", type=int, default=None,
                   help="sample count (default 1000); exit 2 below the suite's floor "
                        "or, for the fixed-size prop5 and boundary-slope, if given")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--out", default=None, help="output path (default stdout)")
    v.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv writes the suite's table rows, when it has any")
    v.add_argument("--timing", action="store_true",
                   help="include runtime in the report (breaks byte determinism)")
    v.set_defaults(fn=cmd_verify)
    return p


def _join_point_values(argv):
    """Rewrite '--z VALUE' and '--w VALUE' as '--z=VALUE': argparse reads a
    separate value that starts with '-', such as '-1+0i', as an option."""
    out = []
    it = iter(argv)
    for arg in it:
        if arg in ("--z", "--w"):
            value = next(it, None)
            out.append(arg if value is None else f"{arg}={value}")
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_point_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (SchemaError, DegenerateInput, DomainViolation, BranchViolation) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except UnsupportedDomain as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return EXIT_UNSUPPORTED
    except (NonConvergence, NoFiniteConstant) as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
