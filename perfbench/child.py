"""Run the pamper CLI as a child process of the benchmark.

    python3 perfbench/child.py <peak-file> <spans-file or -> <pamper arguments...>

The exit code is the CLI's. At exit the peak resident set of this process,
in MiB, is written to <peak-file> (``VmHWM`` from ``/proc/self/status``).
The benchmark cannot take it from ``os.wait4``: the kernel carries the
forking parent's peak over the child's exec into ``ru_maxrss``, so every
child would report at least the benchmark's own memory. With a spans file
other than ``-``, every layer is traced (see spans.py) and the spans are
written there as a JSON list.
"""
import json
import sys


def peak_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> int:
    peak_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import pamper.cli

    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return pamper.cli.main(argv)
    finally:
        peak = peak_mib()
        if tracer is not None:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(tracer.finish(), handle)
        with open(peak_path, "w", encoding="ascii") as handle:
            handle.write(f"{peak}\n")


if __name__ == "__main__":
    sys.exit(main())
