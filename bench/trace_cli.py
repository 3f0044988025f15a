"""Run one pmmest CLI command with the tracer installed.

Usage: python bench/trace_cli.py SPANS_JSON CLI_ARG...

Equivalent to ``python -m pmmest.cli CLI_ARG...``, except that every public
function of the package records spans, which are written to SPANS_JSON when
the command ends.  The exit code is the command's.
"""

import sys

import tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import pmmest.cli
    t = tracer.Tracer()
    with tracer.installed(t):
        code = pmmest.cli.main(argv)
    t.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
