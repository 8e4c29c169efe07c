"""Frozen tight unsolvable distributions, the starting points of the
``solve_queries`` workload.

Each entry is (graph key, target label, t, {label: pebbles}, provenance).
They were produced by pebblekit 0.1.0 itself through the calls named in
the provenance column (``cor24_witness``, ``lower_bound`` and the
``PebblingReport.witness`` of ``compute_pebbling``) and are frozen here, so
the workload's inputs do not change when a later version of the engine
picks a different witness. Labels are written as ``str(label)``; graph keys
are those of ``workloads.GRAPHS``.
"""

WITNESSES = [
    ('tmp5', 'u(1,2)', 1, {'u(4,5)': 7, 'v2': 1, 'v3': 1, 'v4': 1},
     'cor24_witness(5)'),
    ('tmp6', 'u(1,2)', 1, {'u(5,6)': 15, 'v2': 1, 'v3': 1, 'v4': 1, 'v5': 1},
     'cor24_witness(6)'),
    ('tmp4', 'v2', 1, {'u(1,2)': 1, 'u(2,3)': 1, 'u(3,4)': 1, 'v3': 1},
     'lower_bound'),
    ('tmp4', 'v2', 1, {'v3': 3},
     'lower_bound'),
    ('tmp5', 'v2', 1, {'u(1,2)': 1, 'u(2,3)': 1, 'u(3,4)': 1, 'u(4,5)': 1, 'v3': 1, 'v4': 1},
     'lower_bound'),
    ('tmp5', 'v2', 1, {'v4': 7},
     'lower_bound'),
    ('tmp6', 'v2', 1, {'u(1,2)': 1, 'u(2,3)': 1, 'u(3,4)': 1, 'u(4,5)': 1, 'u(5,6)': 1, 'v3': 1, 'v4': 1, 'v5': 1},
     'lower_bound'),
    ('tmp6', 'v2', 1, {'v5': 15},
     'lower_bound'),
    ('mc2', 'v0', 1, {'u(0,1)': 1, 'u(0,3)': 1, 'u(1,2)': 1, 'u(2,3)': 1, 'v1': 1, 'v2': 1, 'v3': 1},
     'lower_bound'),
    ('mc2', 'v0', 1, {'v2': 7},
     'lower_bound'),
    ('c5', 'v0', 1, {'v1': 1, 'v2': 1, 'v3': 1, 'v4': 1},
     'lower_bound, compute_pebbling'),
    ('c5', 'v0', 1, {'v2': 3},
     'lower_bound'),
    ('c6', 'v0', 1, {'v1': 1, 'v2': 1, 'v3': 1, 'v4': 1, 'v5': 1},
     'lower_bound'),
    ('c6', 'v0', 1, {'v3': 7},
     'lower_bound, compute_pebbling'),
    ('c7', 'v0', 1, {'v1': 1, 'v2': 1, 'v3': 1, 'v4': 1, 'v5': 1, 'v6': 1},
     'lower_bound'),
    ('c7', 'v0', 1, {'v3': 7},
     'lower_bound'),
    ('p3p3', '(v1|v1)', 1, {'(v1|v2)': 1, '(v1|v3)': 1, '(v2|v1)': 1, '(v2|v2)': 1, '(v2|v3)': 1, '(v3|v1)': 1, '(v3|v2)': 1, '(v3|v3)': 1},
     'lower_bound'),
    ('p3p3', '(v1|v1)', 1, {'(v3|v3)': 15},
     'lower_bound, compute_pebbling'),
    ('p2p4', '(v1|v1)', 1, {'(v1|v2)': 1, '(v1|v3)': 1, '(v1|v4)': 1, '(v2|v1)': 1, '(v2|v2)': 1, '(v2|v3)': 1, '(v2|v4)': 1},
     'lower_bound'),
    ('p2p4', '(v1|v1)', 1, {'(v2|v4)': 15},
     'lower_bound, compute_pebbling'),
    ('tmp4', 'v2', 1, {'u(1,2)': 1, 'u(3,4)': 1, 'v3': 3},
     'compute_pebbling'),
    ('tmp5', 'v2', 1, {'u(1,2)': 1, 'u(4,5)': 1, 'v3': 1, 'v4': 7},
     'compute_pebbling'),
    ('mc2', 'v0', 1, {'v1': 1, 'v2': 7, 'v3': 1},
     'compute_pebbling'),
    ('c7', 'v0', 1, {'v3': 5, 'v4': 5},
     'compute_pebbling'),
    ('tmp6', 'u(1,2)', 1, {'u(5,6)': 1, 'v2': 1, 'v3': 1, 'v4': 1, 'v5': 15},
     'compute_pebbling(targets=[u(1,2)])'),
    ('mc2', 'u(0,1)', 2, {'v0': 1, 'v1': 1, 'v2': 7, 'v3': 3},
     'compute_pebbling(targets=[u(0,1)], t=2)'),
    ('mc2', 'v0', 2, {'v1': 1, 'v2': 15, 'v3': 1},
     'compute_pebbling(targets=[v0], t=2)'),
]
