"""Command line front end: gmanvol <verb> <file...> [flags].

Verbs
    validate      print the violation report of a graph document
    invariants    print per-piece filled invariants and the absolute Euler number
    cover         print a finite cover with its certificate
    volume-bound  print a Seifert-volume lower-bound certificate
    classify      print a mapping-degree finiteness verdict

Output is canonical JSON on stdout, one document per input file, identical
bytes on identical inputs; --pretty switches to indented rendering.  This
module only parses flags and loops over files: it reads at most
MAX_INPUT_BYTES of each file, the package decodes them, and each failure
is a GmanvolError whose type carries the exit code.  It is reported on
stderr as one JSON document with the keys error (the type's name), file
(the file name exactly as given) and message.  Exit codes: 0 success,
1 validation failure, 2 unsupported input, 3 parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import classify as classify_mod
from .coverings import characteristic_cover, covered_graph_to_document, genus_raising_cover
from .errors import GmanvolError, ParseError, ValidationError
from .graph import (
    _absolute_euler,
    _filled_piece_table,
    _require_valid,
    graph_from_document,
    validate,
)
from .seifert import _geometry
from .serialize import _load_json, _ratio_text, canonical_json_bytes
from .volume import VolumeConfig, volume_lower_bound

EXIT_OK = 0

# The most bytes read from one input file.  The largest document the package
# writes with short piece ids, a --pretty genus-raising cover at
# coverings.MAX_COVER_SIZE, is about 49 MB.
MAX_INPUT_BYTES = 64 * 2**20

# A read of n bytes allocates n bytes before it reads, so a file is read in
# chunks of this size and not with one read the size of the limit.
_READ_CHUNK = 2**16


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first run, not at import, and reused by every later run
    # in the process: parse_args leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="gmanvol",
        description="Invariants, coverings and Seifert-volume certificates "
        "for decorated graph manifolds.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("files", nargs="+", help="input JSON document(s)")
        p.add_argument("--pretty", action="store_true", help="indented output")

    add_common(sub.add_parser("validate", help="report structural violations"))
    add_common(sub.add_parser("invariants", help="filled invariants per piece"))

    cover = sub.add_parser("cover", help="construct a finite cover")
    add_common(cover)
    cover.add_argument(
        "--mode",
        choices=("characteristic", "genus-raising"),
        required=True,
    )
    cover.add_argument("--prime", type=int, required=True)
    cover.add_argument("--center", help="center piece id (genus-raising mode)")

    volume = sub.add_parser("volume-bound", help="emit a volume certificate")
    add_common(volume)
    volume.add_argument("--alpha-bound", type=int, default=VolumeConfig().alpha_bound)

    add_common(sub.add_parser("classify", help="mapping-degree finiteness verdict"))
    return parser


def _load_document(path: str):
    try:
        with open(path, "rb") as file:
            # A buffered read returns a short chunk only at the end of the file.
            chunks, size = [], 0
            while size <= MAX_INPUT_BYTES:
                chunk = file.read(_READ_CHUNK)
                chunks.append(chunk)
                size += len(chunk)
                if len(chunk) < _READ_CHUNK:
                    break
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror or exc}") from exc
    if size > MAX_INPUT_BYTES:
        raise ParseError(f"input is larger than the limit of {MAX_INPUT_BYTES} bytes")
    return _load_json(b"".join(chunks), path)


def _run_validate(path: str, args) -> tuple[dict | list, int]:
    report = validate(graph_from_document(_load_document(path)))
    return report, (ValidationError.exit_code if report else EXIT_OK)


def _run_invariants(path: str, args) -> tuple[dict, int]:
    gm = _require_valid(graph_from_document(_load_document(path)))
    table = _filled_piece_table(gm)
    pieces = {}
    for piece_id, genus, boundary in gm.pieces:
        framing, e, chi, den = table[piece_id]
        pieces[piece_id] = {
            "genus": genus,
            "boundary": boundary,
            "canonical_framing": list(map(list, framing)),
            "filled_euler_number": _ratio_text(e, den),
            "filled_orbifold_euler_char": _ratio_text(chi, den),
            # _value_ is what the .value property of an enum member returns.
            "filled_geometry": _geometry(e, chi)._value_,
        }
    absolute = _ratio_text(*_absolute_euler(table))
    return {"absolute_euler_number": absolute, "pieces": pieces}, EXIT_OK


def _run_cover(path: str, args) -> tuple[dict, int]:
    gm = _require_valid(graph_from_document(_load_document(path)))
    if args.mode == "characteristic":
        cov = characteristic_cover(gm, args.prime)
    else:
        if args.center is None:
            raise GmanvolError("--center is required in genus-raising mode")
        cov = genus_raising_cover(gm, args.center, args.prime)
    return covered_graph_to_document(cov), EXIT_OK


def _run_volume_bound(path: str, args) -> tuple[dict, int]:
    # volume_lower_bound validates the graph itself.
    gm = graph_from_document(_load_document(path))
    cert = volume_lower_bound(gm, VolumeConfig(alpha_bound=args.alpha_bound))
    return cert.to_document(), EXIT_OK


def _run_classify(path: str, args) -> tuple[dict, int]:
    target = classify_mod._target_from_document(_load_document(path))
    verdict = classify_mod.mapping_degree_finiteness(target)
    return verdict.to_document(), EXIT_OK


_RUNNERS = {
    "validate": _run_validate,
    "invariants": _run_invariants,
    "cover": _run_cover,
    "volume-bound": _run_volume_bound,
    "classify": _run_classify,
}


def run(argv, stdout=None, stderr=None) -> int:
    """Execute one command; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    args = _build_parser().parse_args(argv)
    runner = _RUNNERS[args.verb]

    # Files are handled in input order; the first failure ends the run.
    for path in args.files:
        try:
            document, code = runner(path, args)
            text = canonical_json_bytes(document, pretty=args.pretty).decode("utf-8")
        except GmanvolError as exc:
            doc = {"error": type(exc).__name__, "file": path, "message": str(exc)}
            stderr.write(canonical_json_bytes(doc).decode("utf-8") + "\n")
            return exc.exit_code
        stdout.write(text + "\n")
        if code != EXIT_OK:
            return code
    return EXIT_OK


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
