#!/usr/bin/env python3
"""List the statements of ordmixed that no benchmark workload reaches.

    python scripts/traffic_lines.py TREE [--blocks N] [--seed S]

TREE is a checkout holding ``src/ordmixed`` and ``perfbench/``. The script
imports that tree's ``ordmixed`` and benchmark workloads under
``sys.settrace`` and runs each workload as the benchmark runs its passes,
for blocks 0 .. N-1 of seed S: build the inputs, run them and check the
output; for block 0 it also makes the library's side of ``loglik_err``,
``cluster_logliks`` at the workload's points. The statements of a module
are the lines where its code objects start a line (``dis.findlinestarts``),
and a statement is reached when a line event fires on it. The script
prints, per module of ``src/ordmixed``, how many statements no workload
reached and each run of them with no reached statement between, with the
source of the run's first line. It writes no bytecode, so it leaves
nothing under ``perfbench/`` or ``src/``.
"""

from __future__ import annotations

import argparse
import dis
import sys
import types
from pathlib import Path


def statement_lines(path: Path) -> set[int]:
    """The lines of ``path`` where one of its code objects starts a line."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def runs(unreached: list[int], statements: list[int]) -> list[list[int]]:
    """``unreached`` split where a reached statement lies between two of
    them; ``statements`` is every statement line, sorted."""
    out, position = [], {line: i for i, line in enumerate(statements)}
    for line in unreached:
        if out and position[line] == position[out[-1][-1]] + 1:
            out[-1].append(line)
        else:
            out.append([line])
    return out


def trace_workloads(tree: Path, blocks: int, seed: int, files: set[str]) -> dict[str, set[int]]:
    """Run the tree's workloads under ``sys.settrace``; the lines of each of
    ``files`` on which a line event fired."""
    reached: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename not in reached:
            return None
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    sys.settrace(on_call)
    try:
        import workloads as bench
        from ordmixed.likelihood import cluster_logliks

        for name, workload in bench.WORKLOADS.items():
            for block in range(blocks):
                inputs = workload.build(seed, block)
                output = workload.run(inputs)
                problems = workload.check(inputs, output)
                if problems:
                    print(f"{name} block {block}: check failed: {problems}", file=sys.stderr)
                if block == 0:
                    for p in workload.loglik_points(inputs, output):
                        cluster_logliks(p.dataset, p.params, p.link, p.rule)
    finally:
        sys.settrace(None)
    return reached


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="a checkout with src/ordmixed and perfbench/")
    parser.add_argument("--blocks", type=int, default=3, help="blocks per workload (default 3)")
    parser.add_argument("--seed", type=int, default=0, help="the workloads' seed (default 0)")
    args = parser.parse_args(argv)
    if args.blocks < 1:
        parser.error("--blocks must be at least 1")
    tree = args.tree.resolve()
    modules = sorted((tree / "src" / "ordmixed").glob("*.py"))
    reached = trace_workloads(tree, args.blocks, args.seed, {str(path) for path in modules})

    total = never = 0
    for path in modules:
        statements = sorted(statement_lines(path))
        unreached = [line for line in statements if line not in reached[str(path)]]
        total, never = total + len(statements), never + len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(statements)} statements unreached")
        source = path.read_text().splitlines()
        for run in runs(unreached, statements):
            span = f"{run[0]}" if len(run) == 1 else f"{run[0]}-{run[-1]}"
            print(f"  {span:>9} ({len(run):>3})  {source[run[0] - 1].strip()}")
    print(f"total: {never} of {total} statements unreached "
          f"({args.blocks} blocks per workload, seed {args.seed})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
