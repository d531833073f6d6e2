"""Benchmark-suite configuration.

Plain pytest does not collect the ``bench_*`` files. Run them with
the collection patterns overridden, for example::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_lazy.py \
        -o 'python_files=bench_*.py' -o 'python_functions=bench_*' \
        --benchmark-disable -s

``-s`` streams the rendered paper-style tables; the persisted artifacts
are under ``benchmarks/results/``.
"""

from __future__ import annotations



def pytest_collection_modifyitems(config, items):
    # The benchmark suite is ordered: tables first (cheap dataset builds),
    # then figures in paper order, then ablations.
    def key(item):
        name = item.module.__name__
        order = [
            "bench_table1", "bench_table2",
            "bench_fig3", "bench_fig4", "bench_fig5", "bench_fig6",
            "bench_fig7", "bench_fig8", "bench_fig9", "bench_fig10",
            "bench_fig11",
            "bench_ablation",
        ]
        for i, prefix in enumerate(order):
            if name.startswith(prefix):
                return i
        return len(order)

    items.sort(key=key)
