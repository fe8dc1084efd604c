"""CLI determinism: run ``tropcurve.cli.main`` in process twice per sample.

The two runs must give byte-identical output, exit code and stderr, and the
parsed JSON must agree with the benchmark's own direct-call results.  This
is not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from tropcurve.cli import main


def _invoke(argv: list[str], out: str):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--format", "json", "--out", out])
        except Exception as exc:  # the CLI's own uncaught failures are outcomes here
            code = f"raised {type(exc).__name__}"
    body = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            body = fh.read()
        os.remove(out)
    return code, body, err.getvalue()


def cli_check(command: str, samples, workdir: str) -> list[str]:
    """samples: (scenario text, extra argv, expected fields) triples.
    Expected ``{"exit": code}`` means the CLI must end with that code."""
    problems = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for k, (text, extra, expected) in enumerate(samples):
            spec = os.path.join(tmp, f"sample{k}.trop.json")
            with open(spec, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [command, "--spec", spec] + extra
            out = os.path.join(tmp, "out.json")
            first = _invoke(argv, out)
            if _invoke(argv, out) != first:
                problems.append(f"{command} sample {k}: two runs differ")
            code, body, _ = first
            got = json.loads(body) if code == 0 and body is not None else {"exit": code}
            wrong = {key: (got.get(key), want) for key, want in expected.items() if got.get(key) != want}
            if wrong:
                problems.append(f"{command} sample {k}: CLI disagrees with direct calls on {wrong}")
    return problems
