"""Run one matchcert CLI command with the benchmark's span wrappers installed.

    python3 perfbench/traced_cli.py SPANS_OUT <matchcert arguments...>

Behaves like ``python -m matchcert <arguments...>`` (same exit code), and
writes the spans it recorded to SPANS_OUT as JSON on the way out.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    import matchcert.cli

    try:
        return matchcert.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
