"""Run the pamper CLI in-process and capture what it prints."""
import contextlib
import io

from pamper.cli import main


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` as ``(exit code, stdout, stderr)``; argparse's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()
